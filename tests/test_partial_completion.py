"""Partial-completion correctness: pushdown, chunk cache, top-up, progressive.

The contracts under test (ISSUE: query-driven partial completion):

* a pushed run answers **bitwise-identically** to full materialization at
  the same seed and chunk grid (counter-based per-row RNG);
* cached partial chunks are invalidated on re-``fit``;
* a full-join request tops up a budgeted partial run and the topped-up
  join is bitwise-identical to a from-scratch full run;
* overlapping-predicate reuse (subset fingerprints) never returns rows
  that fail the stricter predicate;
* progressive refinement converges to the exact answer with non-widening
  confidence bands.
"""

import numpy as np
import pytest

from repro.core import (
    ModelConfig,
    ReStore,
    ReStoreConfig,
    SamplingBudget,
)
from repro.datasets import HousingConfig, generate_housing
from repro.experiments import joins_bitwise_identical
from repro.incomplete import RemovalSpec, make_incomplete
from repro.nn import TrainConfig
from repro.query import parse_query, predicate_mask
from repro.runtime import PartialJoinCache

FAST = TrainConfig(epochs=6, batch_size=128, lr=1e-2, patience=3)


@pytest.fixture(scope="module")
def dataset():
    db = generate_housing(HousingConfig(seed=0, num_neighborhoods=48,
                                        num_landlords=200,
                                        apartments_per_neighborhood=10.0))
    return make_incomplete(db, [RemovalSpec("apartment", "price", 0.5, 0.4)],
                           tf_keep_rate=0.3, seed=1)


def make_engine(dataset) -> ReStore:
    config = ReStoreConfig(model=ModelConfig(hidden=(32, 32), train=FAST),
                           seed=3, chunk_size=8)
    return ReStore.from_dataset(dataset, config).fit()


@pytest.fixture(scope="module")
def engine(dataset) -> ReStore:
    return make_engine(dataset)


@pytest.fixture(scope="module")
def queries(dataset):
    density = dataset.incomplete.table("neighborhood")["pop_density"]
    threshold = float(np.quantile(np.asarray(density, dtype=float), 0.9))
    selective = parse_query(
        "SELECT AVG(apartment.price) "
        "FROM neighborhood NATURAL JOIN apartment "
        f"WHERE neighborhood.pop_density >= {threshold}"
    )
    stricter = parse_query(
        "SELECT AVG(apartment.price) "
        "FROM neighborhood NATURAL JOIN apartment "
        f"WHERE neighborhood.pop_density >= {threshold} "
        "AND apartment.accommodates <= 6"
    )
    full = parse_query(
        "SELECT COUNT(*) FROM neighborhood NATURAL JOIN apartment"
    )
    return selective, stricter, full


class TestPushdownBitwise:
    def test_pushed_equals_full(self, engine, queries):
        selective, _, _ = queries
        engine.clear_cache()
        full = engine.answer(selective)
        engine.clear_cache()
        pushed = engine.answer(selective, pushdown=True)
        assert pushed.pushdown is not None
        assert pushed.pushdown["chunks_walked"] < pushed.pushdown["chunks_total"]
        assert pushed.pushdown["roots_qualifying"] < pushed.pushdown["roots_total"]
        assert pushed.result.scalar == full.result.scalar

    def test_pushed_rows_satisfy_predicates(self, engine, queries):
        selective, _, _ = queries
        engine.clear_cache()
        pushed = engine.answer(selective, pushdown=True)
        joined = pushed.completed.result
        for f in selective.filters:
            mask = predicate_mask(joined.resolve(f.column), f)
            assert mask.all(), f"pushed join kept rows failing {f}"

    def test_cached_full_join_short_circuits(self, engine, queries):
        selective, _, full = queries
        engine.clear_cache()
        engine.answer(full)  # populates the join cache
        answer = engine.answer(selective, pushdown=True)
        # the cached full join is free, so pushdown must not re-walk
        assert answer.from_cache and answer.pushdown is None


class TestChunkReuse:
    def test_repeat_answers_walk_nothing(self, engine, queries):
        selective, _, _ = queries
        engine.clear_cache()
        first = engine.answer(selective, pushdown=True)
        assert first.pushdown["chunks_walked"] > 0
        second = engine.answer(selective, pushdown=True)
        assert second.pushdown["chunks_walked"] == 0
        assert second.pushdown["chunks_cached"] > 0
        assert second.result.scalar == first.result.scalar

    def test_overlapping_predicates_reuse_and_stay_correct(
        self, dataset, engine, queries
    ):
        _, stricter, _ = queries
        engine.clear_cache()
        loose, _ = queries[0], engine.answer(queries[0], pushdown=True)
        before = engine.partial_cache_stats.subset_hits
        warm = engine.answer(stricter, pushdown=True)
        assert engine.partial_cache_stats.subset_hits > before
        # reused chunks never leak rows that fail the stricter predicate
        joined = warm.completed.result
        for f in stricter.filters:
            assert predicate_mask(joined.resolve(f.column), f).all()
        # and the reassembled join matches a cold pushed run bitwise
        cold_engine = make_engine(dataset)
        cold = cold_engine.answer(stricter, pushdown=True)
        assert joins_bitwise_identical(warm.completed, cold.completed)
        assert warm.result.scalar == cold.result.scalar

    def test_invalidated_on_refit(self, dataset, queries):
        selective, _, _ = queries
        engine = make_engine(dataset)
        engine.answer(selective, pushdown=True)
        assert len(engine.partial_cache) > 0
        engine.fit()
        assert len(engine.partial_cache) == 0
        assert engine.partial_cache_stats.invalidations == 1
        # post-refit pushed answers agree with post-refit full answers
        pushed = engine.answer(selective, pushdown=True)
        engine.clear_cache()
        full = engine.answer(selective)
        assert pushed.result.scalar == full.result.scalar


class TestTopUp:
    def test_topup_matches_scratch_run(self, dataset, queries):
        _, _, full_query = queries
        engine = make_engine(dataset)
        # Truncated, unfiltered progressive run: leaves a strict prefix of
        # the canonical grid in the partial cache (empty fingerprints).
        refinements = list(engine.answer_progressive(
            full_query, budget=SamplingBudget(initial_chunks=1, max_chunks=2),
        ))
        assert not refinements[-1].final
        assert len(engine.partial_cache) > 0
        before = engine.partial_cache_stats.hits
        topped = engine.answer(full_query)
        assert engine.partial_cache_stats.hits > before  # reused the prefix

        scratch_engine = make_engine(dataset)
        scratch = scratch_engine.answer(full_query)
        assert joins_bitwise_identical(topped.completed, scratch.completed)
        assert topped.result.scalar == scratch.result.scalar


class TestProgressive:
    def test_converges_to_exact_with_monotone_bands(self, dataset, queries):
        selective, _, _ = queries
        engine = make_engine(dataset)
        exact = engine.answer(selective, pushdown=True)
        engine.clear_cache()
        refinements = list(engine.answer_progressive(
            selective, budget=SamplingBudget(initial_chunks=1),
        ))
        assert refinements[-1].final
        assert refinements[-1].result.scalar == exact.result.scalar
        widths = [r.band.width for r in refinements if r.band is not None]
        assert widths, "AVG over a continuous target column must carry bands"
        assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))
        completed = [r.chunks_completed for r in refinements]
        assert completed == sorted(set(completed))  # strictly increasing

    def test_budget_truncates(self, engine, queries):
        selective, _, _ = queries
        engine.clear_cache()
        refinements = list(engine.answer_progressive(
            selective, budget=SamplingBudget(initial_chunks=1, max_chunks=3),
        ))
        assert refinements[-1].chunks_completed == 3
        assert not refinements[-1].final
        assert refinements[-1].budget_utilization < 1.0

    def test_complete_tables_yield_single_final(self, engine):
        query = parse_query("SELECT COUNT(*) FROM neighborhood")
        [only] = list(engine.answer_progressive(query))
        assert only.final and only.band is None


class TestPartialJoinCacheUnit:
    def test_exact_hit_beats_subset(self):
        cache = PartialJoinCache(capacity=8)
        grid, task = ((0, 4), (4, 8)), (0, 4)
        fps_a = frozenset({("c", ">=", ("1",))})
        fps_ab = fps_a | {("d", "<=", ("2",))}
        cache.put("sig", grid, task, fps_a, "loose")
        cache.put("sig", grid, task, fps_ab, "exact")
        out, got = cache.lookup("sig", grid, task, fps_ab)
        assert out == "exact" and got == fps_ab
        assert cache.stats.subset_hits == 0

    def test_subset_serves_stricter_only(self):
        cache = PartialJoinCache(capacity=8)
        grid, task = ((0, 4),), (0, 4)
        fps_a = frozenset({("c", ">=", ("1",))})
        fps_b = frozenset({("d", "<=", ("2",))})
        cache.put("sig", grid, task, fps_a, "a-chunk")
        # a ⊄ b: different predicate, no reuse
        assert cache.lookup("sig", grid, task, fps_b) is None
        # a ⊂ a∪b: reuse with leftover fingerprints reported
        out, got = cache.lookup("sig", grid, task, fps_a | fps_b)
        assert out == "a-chunk" and got == fps_a
        assert cache.stats.subset_hits == 1
        # never serve a superset (stricter chunk for a looser query)
        assert cache.lookup("sig", grid, task, frozenset()) is None

    def test_largest_subset_wins(self):
        cache = PartialJoinCache(capacity=8)
        grid, task = ((0, 4),), (0, 4)
        f1 = ("c", ">=", ("1",))
        f2 = ("d", "<=", ("2",))
        f3 = ("e", "=", ("3",))
        cache.put("sig", grid, task, frozenset({f1}), "one")
        cache.put("sig", grid, task, frozenset({f1, f2}), "two")
        out, got = cache.lookup("sig", grid, task, frozenset({f1, f2, f3}))
        assert out == "two" and got == frozenset({f1, f2})

    def test_lru_eviction_cleans_index(self):
        cache = PartialJoinCache(capacity=2)
        grid = ((0, 4), (4, 8), (8, 12))
        for i, task in enumerate(grid):
            cache.put("sig", grid, task, frozenset(), f"chunk{i}")
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.lookup("sig", grid, (0, 4), frozenset()) is None
        assert cache.lookup("sig", grid, (8, 12), frozenset())[0] == "chunk2"
        cache.invalidate()
        assert len(cache) == 0

    def test_signature_and_grid_isolation(self):
        cache = PartialJoinCache(capacity=8)
        grid_a, grid_b = ((0, 4),), ((0, 2), (2, 4))
        cache.put("sig1", grid_a, (0, 4), frozenset(), "x")
        assert cache.lookup("sig2", grid_a, (0, 4), frozenset()) is None
        assert cache.lookup("sig1", grid_b, (0, 4), frozenset()) is None
