"""Query-driven partial completion: pushdown vs full materialization.

The tentpole perf claim: on a selective query (few qualifying root evidence
rows) predicate pushdown restricts chunk scheduling and the walk itself to
qualifying rows, so the incompleteness join skips most of the model
sampling — while the per-row counter-based RNG keeps the surviving rows
bitwise-identical to the corresponding rows of a full materialization at
the same seed.  This bench measures both runs on paper-scale housing and
asserts the speedup (>= 3x) and the exact answer equality; the numbers
land in the ``--benchmark-json`` output via ``extra_info``.
"""

import time

import numpy as np
import pytest

from repro.core import ModelConfig, ReStore, ReStoreConfig, SamplingBudget
from repro.datasets import HousingConfig, generate_housing
from repro.incomplete import RemovalSpec, make_incomplete
from repro.nn import TrainConfig
from repro.query import parse_query

FAST = TrainConfig(epochs=10, batch_size=128, lr=1e-2, patience=3)

#: The bench requires a *selective* query: at most this fraction of root
#: evidence rows may qualify (the acceptance threshold of the claim).
MAX_SELECTIVITY = 0.10
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def pushdown_setup():
    """Paper-scale housing, incomplete apartments, a pinned 2-hop model."""
    db = generate_housing(HousingConfig(seed=0))
    dataset = make_incomplete(
        db, [RemovalSpec("apartment", "price", 0.5, 0.4)],
        tf_keep_rate=0.3, seed=1,
    )
    # chunk_size is pinned: the speedup claim compares two runs over the
    # SAME chunk grid (that is also what makes their answers bitwise
    # comparable and the partial cache reusable between them).
    config = ReStoreConfig(model=ModelConfig(hidden=(32, 32), train=FAST),
                           seed=3, chunk_size=4)
    engine = ReStore.from_dataset(dataset, config).fit()

    # Pin the completion model to the (neighborhood, apartment) path so the
    # measured walk is identical across runs regardless of selection noise.
    candidates = [
        m for m in engine.fitted_models().values()
        if m.layout.path.tables == ("neighborhood", "apartment")
    ]
    assert candidates, "no fitted model on the (neighborhood, apartment) path"
    model = sorted(candidates, key=lambda m: type(m).__name__)[0]

    threshold = float(np.quantile(db.table("neighborhood")["pop_density"], 0.92))
    query = parse_query(
        "SELECT AVG(apartment.price) "
        "FROM neighborhood NATURAL JOIN apartment "
        f"WHERE neighborhood.pop_density >= {threshold}"
    )
    return engine, query, model


def test_pushdown_speedup_bitwise(benchmark, pushdown_setup):
    """Budgetless pushdown: >= 3x faster, bitwise-identical answer."""
    engine, query, model = pushdown_setup

    profile = engine.pushdown_profile(query, model=model)
    selectivity = profile["roots_qualifying"] / profile["roots_total"]
    assert selectivity <= MAX_SELECTIVITY, (
        f"query not selective enough for the claim: {selectivity:.1%}"
    )

    engine.clear_cache()
    started = time.perf_counter()
    full = engine.answer(query, model=model)
    full_s = time.perf_counter() - started

    pushed_times = []

    def pushed_run():
        engine.clear_cache()
        t0 = time.perf_counter()
        answer = engine.answer(query, model=model, pushdown=True)
        pushed_times.append(time.perf_counter() - t0)
        return answer

    pushed = benchmark.pedantic(pushed_run, rounds=3, iterations=1,
                                warmup_rounds=0)
    pushed_s = min(pushed_times)

    assert pushed.pushdown is not None, "pushdown did not engage"
    assert pushed.result.scalar == full.result.scalar, (
        "pushed answer diverged from full materialization: "
        f"{pushed.result.scalar!r} != {full.result.scalar!r}"
    )
    speedup = full_s / pushed_s
    benchmark.extra_info.update({
        "full_s": full_s,
        "pushed_s": pushed_s,
        "speedup": speedup,
        "selectivity": selectivity,
        "roots_total": profile["roots_total"],
        "roots_qualifying": profile["roots_qualifying"],
        "chunks_total": pushed.pushdown["chunks_total"],
        "chunks_walked": pushed.pushdown["chunks_walked"],
        "bitwise_identical": True,
    })
    print(f"\nfull {full_s * 1000:.0f} ms, pushed {pushed_s * 1000:.0f} ms "
          f"({speedup:.1f}x, selectivity {selectivity:.1%}, walked "
          f"{pushed.pushdown['chunks_walked']}/{pushed.pushdown['chunks_total']}"
          " chunks)")
    assert speedup >= MIN_SPEEDUP, (
        f"pushdown speedup {speedup:.2f}x below the {MIN_SPEEDUP:.0f}x floor"
    )


def test_partial_cache_warm_answers(benchmark, pushdown_setup):
    """Warm partial cache: repeat pushed answers walk zero chunks."""
    engine, query, model = pushdown_setup
    engine.clear_cache()
    engine.answer(query, model=model, pushdown=True)  # warm the chunk cache

    def warm_run():
        # a pushed answer never memoizes a full join, so every run
        # reassembles from the cached chunks.
        return engine.answer(query, model=model, pushdown=True)

    answer = benchmark.pedantic(warm_run, rounds=3, iterations=1,
                                warmup_rounds=0)
    assert answer.pushdown["chunks_walked"] == 0
    assert answer.pushdown["chunks_cached"] > 0
    benchmark.extra_info["partial_cache"] = engine.partial_cache_stats.as_dict()


def test_progressive_refinement_converges(pushdown_setup):
    """Budgeted mode: early estimate plus bands, exact final answer."""
    engine, query, model = pushdown_setup
    engine.clear_cache()
    exact = engine.answer(query, model=model, pushdown=True)

    engine.clear_cache()
    refinements = list(engine.answer_progressive(
        query, budget=SamplingBudget(initial_chunks=2), model=model,
    ))
    assert refinements[-1].final
    assert refinements[-1].result.scalar == exact.result.scalar
    widths = [r.band.width for r in refinements if r.band is not None]
    assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))
