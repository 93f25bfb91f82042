"""Incremental recompletion: delta-aware reuse vs from-scratch.

The tentpole perf claim of the incremental layer: after a small mutation
(~1% of root rows updated in place, grid stable) ``recomplete(delta)``
re-walks only the updated root rows, splices them into the cached chunks
that hold them and reassembles the rest from the partial cache — while
the per-row counter-based RNG keeps the result bitwise-identical (up to
row order) to a from-scratch completion of the mutated database at the
same seed.  This bench measures both runs on paper-scale housing: on a
fine grid (4 roots per chunk) it requires the delta to touch at most 10%
of the chunks and asserts the >= 3x speedup floor; on the engine's
default grid (16 chunks, where a 1% update touches about a third of
them) it requires the recompletion to walk exactly the updated roots.  A
third bench records how much cheaper a digest-gated warm-start fine-tune
is than a full re-fit.  All numbers land in the ``--benchmark-json``
output via ``extra_info``.
"""

import time

import numpy as np
import pytest

from repro.core import IncompletenessJoin, ModelConfig, ReStore, ReStoreConfig
from repro.datasets import HousingConfig, generate_housing
from repro.experiments import joins_bitwise_identical
from repro.incomplete import RemovalSpec, make_incomplete
from repro.nn import TrainConfig
from repro.relational import ColumnKind

FAST = TrainConfig(epochs=10, batch_size=128, lr=1e-2, patience=3)

#: Fraction of root rows updated per mutation batch.
MUTATION_FRACTION = 0.01
#: The claim only holds while the delta stays local: at most this fraction
#: of the chunk grid may be invalidated (the acceptance threshold).
MAX_AFFECTED_FRACTION = 0.10
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def incremental_setup():
    """Paper-scale housing, incomplete apartments, a fitted engine."""
    db = generate_housing(HousingConfig(seed=0))
    dataset = make_incomplete(
        db, [RemovalSpec("apartment", "price", 0.5, 0.4)],
        tf_keep_rate=0.3, seed=1,
    )
    # chunk_size is pinned: the speedup claim compares a cold walk and a
    # delta walk over the SAME chunk grid (which is also what makes their
    # answers bitwise comparable and the partial cache reusable).
    config = ReStoreConfig(model=ModelConfig(hidden=(32, 32), train=FAST),
                           seed=3, chunk_size=4)
    engine = ReStore.from_dataset(dataset, config).fit()
    return engine, dataset, config


def _mutate_fraction(engine, rng, fraction=MUTATION_FRACTION):
    """Update ``fraction`` of root rows in place (grid-stable delta).

    A continuous column is nudged by +1.0 so every update genuinely
    changes its row (no-op updates are rejected by the mutation API).
    """
    root = engine._default_model().layout.path.tables[0]
    table = engine.db.table(root)
    pk = table.primary_key
    column = next(
        c for c in table.column_names
        if table.meta(c).kind == ColumnKind.CONTINUOUS
    )
    count = max(1, round(table.num_rows * fraction))
    positions = rng.choice(table.num_rows, size=count, replace=False)
    rows = [
        {pk: int(table[pk][pos]), column: float(table[column][pos]) + 1.0}
        for pos in positions
    ]
    return engine.apply_mutations(updates={root: rows})


def test_recomplete_speedup_after_one_percent_mutation(
    benchmark, incremental_setup
):
    """Delta recompletion: >= 3x faster than from scratch, same join."""
    engine, _, _ = incremental_setup
    rng = np.random.default_rng(11)

    # from-scratch baseline: a cold walk over the full grid
    engine.clear_cache()
    started = time.perf_counter()
    cold = engine.recomplete()
    full_s = time.perf_counter() - started
    total = cold.recompletion["chunks_total"]
    assert cold.recompletion["chunks_walked"] == total

    warm_times = []
    fractions = []

    def warm_run():
        delta = _mutate_fraction(engine, rng)
        t0 = time.perf_counter()
        answer = engine.recomplete(delta)
        warm_times.append(time.perf_counter() - t0)
        fractions.append(answer.recompletion["chunks_walked"] / total)
        return answer

    warm = benchmark.pedantic(warm_run, rounds=3, iterations=1,
                              warmup_rounds=0)
    warm_s = min(warm_times)

    assert max(fractions) <= MAX_AFFECTED_FRACTION, (
        f"delta touched {max(fractions):.1%} of the grid — not a local "
        "mutation, the speedup claim does not apply"
    )
    # soundness: the reassembled join is exactly what a cold walk of the
    # final (mutated) database yields at the same seed
    engine.clear_cache()
    assert joins_bitwise_identical(warm, engine.recomplete())

    speedup = full_s / warm_s
    benchmark.extra_info.update({
        "full_s": full_s,
        "incremental_s": warm_s,
        "speedup": speedup,
        "chunks_total": total,
        "chunks_walked": warm.recompletion["chunks_walked"],
        "affected_fraction": max(fractions),
        "mutation_fraction": MUTATION_FRACTION,
        "bitwise_identical": True,
    })
    print(f"\nfrom-scratch {full_s * 1000:.0f} ms, incremental "
          f"{warm_s * 1000:.0f} ms ({speedup:.1f}x, walked "
          f"{warm.recompletion['chunks_walked']}/{total} chunks)")
    assert speedup >= MIN_SPEEDUP, (
        f"incremental speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP:.0f}x floor"
    )


@pytest.fixture(scope="module")
def default_grid_engine(incremental_setup, tmp_path_factory):
    """The fitted engine again, loaded with ``chunk_size=None``: the
    default grid of about :data:`~repro.core.engine.GRID_CHUNKS` chunks,
    as perfbench's live-refresh runs it."""
    engine, _, _ = incremental_setup
    path = tmp_path_factory.mktemp("incremental") / "engine"
    engine.save_artifact(path)
    return ReStore.load(path, config_overrides={"chunk_size": None})


def test_recomplete_walks_only_updated_roots_on_default_grid(
    benchmark, default_grid_engine, monkeypatch
):
    """Delta recompletion on the default grid walks the updated roots."""
    engine = default_grid_engine
    rng = np.random.default_rng(13)
    root = engine._default_model().layout.path.tables[0]

    engine.clear_cache()
    started = time.perf_counter()
    cold = engine.recomplete()
    full_s = time.perf_counter() - started
    total = cold.recompletion["chunks_total"]
    assert cold.recompletion["chunks_walked"] == total
    assert engine.config.chunk_size is None and total > 1

    walk_chunks = IncompletenessJoin.walk_chunks
    walked_tasks = []

    def recording(self, tasks, *args, **kwargs):
        walked_tasks.extend(tasks)
        return walk_chunks(self, tasks, *args, **kwargs)

    monkeypatch.setattr(IncompletenessJoin, "walk_chunks", recording)
    warm_times, updated, walked, spliced = [], [], [], []

    def warm_run():
        delta = _mutate_fraction(engine, rng)
        walked_tasks.clear()
        t0 = time.perf_counter()
        answer = engine.recomplete(delta)
        warm_times.append(time.perf_counter() - t0)
        updated.append(len(set(delta.for_table(root).updated_positions)))
        walked.append(sum(stop - start for start, stop in walked_tasks))
        spliced.append(answer.recompletion["chunks_walked"])
        return answer

    warm = benchmark.pedantic(warm_run, rounds=3, iterations=1,
                              warmup_rounds=0)
    warm_s = min(warm_times)
    monkeypatch.undo()

    # exactly the updated roots were walked, whatever chunks hold them
    assert walked == updated, (walked, updated)
    engine.clear_cache()
    assert joins_bitwise_identical(warm, engine.recomplete())

    speedup = full_s / warm_s
    benchmark.extra_info.update({
        "full_s": full_s,
        "incremental_s": warm_s,
        "speedup": speedup,
        "chunks_total": total,
        "roots_walked": walked,
        "chunks_spliced": spliced,
        "mutation_fraction": MUTATION_FRACTION,
        "bitwise_identical": True,
    })
    print(f"\nfrom-scratch {full_s * 1000:.1f} ms, incremental "
          f"{warm_s * 1000:.1f} ms ({speedup:.1f}x, walked {walked} roots, "
          f"spliced {spliced} of {total} chunks)")


def test_warm_start_fine_tune_vs_full_refit(benchmark, incremental_setup):
    """Digest-gated fine-tune: fewer epochs than re-fitting from scratch."""
    engine, dataset, config = incremental_setup
    rng = np.random.default_rng(23)

    started = time.perf_counter()
    refit = ReStore.from_dataset(dataset, config).fit()
    refit_s = time.perf_counter() - started
    refit_epochs = sum(
        m.train_result.epochs_run for m in refit.fitted_models().values()
    )

    tune_times = []

    def tune_run():
        _mutate_fraction(engine, rng)  # move the digest each round
        t0 = time.perf_counter()
        outcome = engine.fine_tune()
        tune_times.append(time.perf_counter() - t0)
        return outcome

    outcome = benchmark.pedantic(tune_run, rounds=1, iterations=1,
                                 warmup_rounds=0)
    tune_s = min(tune_times)

    assert outcome["skipped"] is False
    assert outcome["models_tuned"] == len(engine.fitted_models())
    tuned_epochs = sum(
        m.train_result.epochs_run for m in engine.fitted_models().values()
    )
    for model in engine.fitted_models().values():
        assert model.train_result.warm_start is True
    # warm start resumes near the optimum, so early stopping fires no
    # later than it does from random init
    assert tuned_epochs <= refit_epochs

    benchmark.extra_info.update({
        "refit_s": refit_s,
        "fine_tune_s": tune_s,
        "refit_epochs": refit_epochs,
        "fine_tune_epochs": tuned_epochs,
        "models_tuned": outcome["models_tuned"],
    })
    print(f"\nfull re-fit {refit_s * 1000:.0f} ms / {refit_epochs} epochs, "
          f"warm fine-tune {tune_s * 1000:.0f} ms / {tuned_epochs} epochs")
