"""Invariants of query-driven partial completion (pushdown + budgets).

Pinned properties, exercised over randomized predicates and budgets at the
harness seed:

* **pushdown identity** — for any pushable predicate, the pushed answer is
  bitwise-identical to full materialization at the same seed and chunk
  grid, and the pushed join never contains a row failing the predicate;
* **backend independence** — plan-aware chunk walks return bitwise-identical
  joins on the serial and thread backends;
* **cache soundness** — chunks reused across overlapping predicates
  (subset fingerprints) reproduce the cold-run join exactly;
* **budget schedules** — for any (initial, growth, cap): cumulative chunk
  counts are strictly increasing and end exactly at the (capped) grid.
"""

import numpy as np
import pytest

from repro.core import ModelConfig, ReStore, ReStoreConfig, SamplingBudget
from repro.experiments import joins_bitwise_identical
from repro.incomplete import registry
from repro.nn import TrainConfig
from repro.query import parse_query, predicate_mask

from harness_utils import HARNESS_SEED

#: Predicates on the root (complete) evidence table of the scenario's
#: completion path — each selects a different fraction of root rows.
ROOT_PREDICATES = [
    "a = 'v1'",
    "a != 'v2'",
    "a IN ('v1', 'v3')",
]


def _config(**overrides) -> ReStoreConfig:
    base = dict(
        model=ModelConfig(
            hidden=(24, 24),
            train=TrainConfig(epochs=5, batch_size=128, lr=1e-2, patience=3,
                              seed=HARNESS_SEED),
        ),
        seed=HARNESS_SEED,
        chunk_size=16,
    )
    base.update(overrides)
    return ReStoreConfig(**base)


@pytest.fixture(scope="module")
def fitted(complete_databases):
    entry = registry.get("synthetic/biased")
    db = complete_databases(entry.dataset)
    dataset = registry.make_scenario_dataset(
        "synthetic/biased", db=db, seed=HARNESS_SEED
    )
    engine = ReStore.from_dataset(dataset, _config())
    engine.fit(targets=["tb"])
    return dataset, engine


def _sql(predicate: str) -> str:
    return f"SELECT COUNT(*) FROM ta NATURAL JOIN tb WHERE {predicate};"


@pytest.mark.parametrize("predicate", ROOT_PREDICATES)
def test_pushdown_answers_bitwise_identical(fitted, predicate):
    _, engine = fitted
    query = parse_query(_sql(predicate))
    engine.clear_cache()
    full = engine.answer(query)
    engine.clear_cache()
    pushed = engine.answer(query, pushdown=True)
    assert pushed.pushdown is not None
    assert pushed.result.scalar == full.result.scalar
    joined = pushed.completed.result
    for f in query.filters:
        assert predicate_mask(joined.resolve(f.column), f).all()


def test_pushed_walk_backend_independent(fitted):
    dataset, _ = fitted
    query = parse_query(_sql(ROOT_PREDICATES[0]))
    joins = []
    for backend in ("serial", "thread"):
        engine = ReStore.from_dataset(
            dataset,
            _config(n_workers=2 if backend == "thread" else 1,
                    parallel_backend=backend),
        )
        engine.fit(targets=["tb"])
        joins.append(engine.answer(query, pushdown=True).completed)
    assert joins_bitwise_identical(*joins)


def test_subset_reuse_reproduces_cold_run(fitted):
    dataset, engine = fitted
    loose = parse_query(_sql("a != 'v2'"))
    strict = parse_query(_sql("a != 'v2' AND b = 'v1'"))
    engine.clear_cache()
    engine.answer(loose, pushdown=True)
    before = engine.partial_cache_stats.subset_hits
    warm = engine.answer(strict, pushdown=True)
    assert engine.partial_cache_stats.subset_hits > before

    cold_engine = ReStore.from_dataset(dataset, _config())
    cold_engine.fit(targets=["tb"])
    cold = cold_engine.answer(strict, pushdown=True)
    assert joins_bitwise_identical(warm.completed, cold.completed)


def test_progressive_final_is_exact(fitted):
    _, engine = fitted
    query = parse_query(_sql(ROOT_PREDICATES[0]))
    engine.clear_cache()
    exact = engine.answer(query, pushdown=True)
    engine.clear_cache()
    refinements = list(engine.answer_progressive(query))
    assert refinements[-1].final
    assert refinements[-1].result.scalar == exact.result.scalar


def test_budget_schedules_cover_grid_exactly():
    rng = np.random.default_rng(HARNESS_SEED)
    for _ in range(200):
        initial = int(rng.integers(1, 8))
        growth = float(rng.uniform(1.0, 4.0))
        cap = None if rng.random() < 0.5 else int(rng.integers(1, 40))
        total = int(rng.integers(0, 64))
        budget = SamplingBudget(initial_chunks=initial, growth=growth,
                                max_chunks=cap)
        schedule = budget.schedule(total)
        expected_end = min(total, cap) if cap is not None else total
        if expected_end == 0:
            assert schedule == []
            continue
        assert schedule[-1] == expected_end
        assert schedule[0] <= max(initial, 1)
        assert all(b > a for a, b in zip(schedule, schedule[1:]))
