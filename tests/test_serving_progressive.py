"""Tests for progressive streaming in :mod:`repro.serving.service`.

``submit_progressive`` streams :class:`~repro.core.Refinement` objects per
request; identical in-flight (query, budget) pairs share **one** engine-side
refinement run — late subscribers replay the refinements already emitted and
then stream live, so every subscriber observes the same sequence.  The
stats surface gains refinement metrics (refinements per flight, budget
utilization, partial-cache counters).
"""

import asyncio

import pytest

from repro import ReStore, ReStoreConfig
from repro.core import ModelConfig, SamplingBudget
from repro.incomplete.registry import make_scenario_dataset
from repro.nn import TrainConfig
from repro.serving import CompletionService, ServiceClosedError

FAST = TrainConfig(epochs=3, batch_size=128, lr=1e-2, patience=2)

PROGRESSIVE_SQL = "SELECT COUNT(*) FROM ta NATURAL JOIN tb WHERE b = 'v1';"


@pytest.fixture(scope="module")
def engine() -> ReStore:
    dataset = make_scenario_dataset(
        "synthetic/biased", keep_rate=0.5, seed=1, scale=0.2
    )
    # chunk_size pins one canonical grid for full, pushed and progressive
    # runs, which is what makes their answers bitwise-comparable.
    config = ReStoreConfig(model=ModelConfig(train=FAST), seed=3, chunk_size=16)
    return ReStore.from_dataset(dataset, config).fit()


@pytest.fixture()
def fresh_engine(engine) -> ReStore:
    engine.clear_cache()
    return engine


def run(coro):
    return asyncio.run(coro)


async def collect(service, sql=PROGRESSIVE_SQL, budget=None):
    refinements = []
    async for refinement in service.submit_progressive(sql, budget=budget):
        refinements.append(refinement)
    return refinements


class TestRefinementStream:
    def test_streams_to_exact_final(self, fresh_engine):
        async def main():
            async with CompletionService(fresh_engine) as service:
                refinements = await collect(service)
                exact = await service.submit(PROGRESSIVE_SQL)
                return refinements, exact

        refinements, exact = run(main())
        assert refinements and refinements[-1].final
        assert refinements[-1].result.scalar == exact.result.scalar
        completed = [r.chunks_completed for r in refinements]
        assert completed == sorted(set(completed))

    def test_budget_truncates_stream(self, fresh_engine):
        async def main():
            async with CompletionService(fresh_engine) as service:
                return await collect(
                    service, budget=SamplingBudget(initial_chunks=1, max_chunks=1)
                )

        refinements = run(main())
        assert len(refinements) == 1
        assert not refinements[-1].final
        assert refinements[-1].budget_utilization < 1.0

    def test_complete_only_query_single_final(self, fresh_engine):
        async def main():
            async with CompletionService(fresh_engine) as service:
                return await collect(service, sql="SELECT COUNT(*) FROM ta;")

        [only] = run(main())
        assert only.final and only.chunks_total == 0


class TestCoalescing:
    def test_identical_inflight_queries_share_one_flight(self, fresh_engine):
        n_clients = 5

        async def main():
            async with CompletionService(fresh_engine) as service:
                sequences = await asyncio.gather(
                    *(collect(service) for _ in range(n_clients))
                )
                return sequences, service.stats()

        sequences, stats = run(main())
        progressive = stats.progressive
        assert progressive["queries"] == n_clients
        assert progressive["flights"] == 1
        assert progressive["coalesced_queries"] == n_clients - 1
        # one refinement sequence, observed identically by every subscriber
        first = [(r.index, r.chunks_completed, r.result.scalar)
                 for r in sequences[0]]
        for sequence in sequences[1:]:
            assert [(r.index, r.chunks_completed, r.result.scalar)
                    for r in sequence] == first
        assert progressive["refinements_emitted"] == len(first)

    def test_distinct_budgets_run_separately(self, fresh_engine):
        async def main():
            async with CompletionService(fresh_engine) as service:
                await asyncio.gather(
                    collect(service, budget=SamplingBudget(initial_chunks=1)),
                    collect(service, budget=SamplingBudget(initial_chunks=2)),
                )
                return service.stats()

        stats = run(main())
        assert stats.progressive["flights"] == 2
        assert stats.progressive["coalesced_queries"] == 0

    def test_sequential_requests_are_new_flights(self, fresh_engine):
        async def main():
            async with CompletionService(fresh_engine) as service:
                first = await collect(service)
                second = await collect(service)
                return first, second, service.stats()

        first, second, stats = run(main())
        assert stats.progressive["flights"] == 2
        assert first[-1].result.scalar == second[-1].result.scalar


class TestStatsAndErrors:
    def test_stats_surface(self, fresh_engine):
        async def main():
            async with CompletionService(fresh_engine) as service:
                await collect(service)
                return service.stats()

        stats = run(main())
        progressive = stats.as_dict()["progressive"]
        assert progressive["refinements_emitted"] >= 1
        assert progressive["mean_refinements_per_flight"] >= 1.0
        assert 0.0 < progressive["mean_budget_utilization"] <= 1.0
        partial = stats.as_dict()["partial_cache"]
        assert {"hits", "misses", "subset_hits"} <= set(partial)

    def test_unknown_column_raises(self, fresh_engine):
        async def main():
            async with CompletionService(fresh_engine) as service:
                async for _ in service.submit_progressive(
                    "SELECT COUNT(*) FROM ta WHERE nope = 1;"
                ):
                    pass

        with pytest.raises(ValueError, match="nope"):
            run(main())

    def test_submit_after_close_raises(self, fresh_engine):
        async def main():
            service = CompletionService(fresh_engine)
            await service.start()
            await service.close()
            async for _ in service.submit_progressive(PROGRESSIVE_SQL):
                pass

        with pytest.raises(ServiceClosedError):
            run(main())
