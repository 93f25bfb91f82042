"""One workload, three transports — the api_redesign contract test.

The same mixed workload (identical completion queries to coalesce,
complete-only queries, grouped queries, one invalid query) runs through:

* the synchronous :class:`ServingCore` directly (no event loop),
* the asyncio :class:`CompletionService` shell,
* a 2-worker :class:`FleetRouter` (``slow``: real processes + sockets),

and every transport must produce identical answers (up to row order),
truthful coalescing counters (sum(joins_started) == distinct signatures
actually joined), and a clean shutdown with zero dropped in-flight
requests.
"""

import asyncio
from pathlib import Path

import pytest

from repro import ReStore, ReStoreConfig, parse_query
from repro.core import ModelConfig
from repro.incomplete.registry import make_scenario_dataset
from repro.nn import TrainConfig
from repro.serving import (
    CompletionService,
    FleetConfig,
    FleetRouter,
    ServiceConfig,
    ServingCore,
    save_artifact,
)

FAST = TrainConfig(epochs=3, batch_size=128, lr=1e-2, patience=2)

COMPLETION_SQL = "SELECT COUNT(*) FROM ta NATURAL JOIN tb WHERE b = 'v1';"
COMPLETE_ONLY_SQL = "SELECT COUNT(*) FROM ta;"
GROUPED_SQL = "SELECT COUNT(*) FROM ta NATURAL JOIN tb GROUP BY a;"

#: (sql, multiplicity) — multiplicity > 1 exercises coalescing.
WORKLOAD = [
    (COMPLETION_SQL, 6),
    (COMPLETE_ONLY_SQL, 2),
    (GROUPED_SQL, 2),
]

SERVICE_CONFIG = ServiceConfig(max_queue=32, n_workers=2)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory) -> Path:
    dataset = make_scenario_dataset(
        "synthetic/biased", keep_rate=0.5, seed=1, scale=0.2
    )
    config = ReStoreConfig(model=ModelConfig(train=FAST), seed=3)
    engine = ReStore.from_dataset(dataset, config).fit()
    path = tmp_path_factory.mktemp("equiv") / "artifact"
    save_artifact(engine, path, scenario="synthetic/biased")
    return path


@pytest.fixture(scope="module")
def expected(artifact):
    engine = ReStore.load(artifact)
    return {
        sql: sorted(engine.answer(parse_query(sql)).result.values)
        for sql, _n in WORKLOAD
    }


def _flat_workload():
    return [sql for sql, n in WORKLOAD for _ in range(n)]


def _run_core(artifact):
    core = ServingCore(ReStore.load(artifact), SERVICE_CONFIG)
    answers = {}
    for sql in _flat_workload():
        answers.setdefault(sql, []).append(core.submit(sql))
    with pytest.raises(ValueError):
        core.submit("SELECT AVG(nope) FROM ta;")
    return answers, core.stats().as_dict()


def _run_service(artifact):
    engine = ReStore.load(artifact)

    async def main():
        async with CompletionService(engine, SERVICE_CONFIG) as service:
            results = await service.submit_many(_flat_workload())
            with pytest.raises(ValueError):
                await service.submit("SELECT AVG(nope) FROM ta;")
            stats = service.stats().as_dict()
        answers = {}
        for sql, answer in zip(_flat_workload(), results):
            answers.setdefault(sql, []).append(answer)
        return answers, stats

    return asyncio.run(main())


def _run_fleet(artifact):
    async def main():
        config = FleetConfig(n_workers=2, worker=SERVICE_CONFIG)
        async with FleetRouter(artifact, config) as fleet:
            results = await fleet.submit_many(_flat_workload())
            with pytest.raises(ValueError):
                await fleet.submit("SELECT AVG(nope) FROM ta;")
            stats = await fleet.stats()
        answers = {}
        for sql, answer in zip(_flat_workload(), results):
            answers.setdefault(sql, []).append(answer)
        merged = stats.as_dict()
        # Roll the per-worker cores up to the service-stats vocabulary.
        merged["requests"] = stats.requests
        merged["completed"] = stats.completed
        # Zero dropped in-flight: every worker answered all it accepted.
        assert sum(
            s["completed"] for s in fleet.final_worker_stats
        ) == stats.completed
        return answers, merged

    return asyncio.run(main())


RUNNERS = {
    "core": _run_core,
    "service": _run_service,
    "fleet": pytest.param(_run_fleet, marks=pytest.mark.slow),
}


@pytest.mark.parametrize(
    "runner", RUNNERS.values(), ids=RUNNERS.keys()
)
class TestTransportEquivalence:
    def test_same_answers_and_truthful_counters(self, runner, artifact, expected):
        answers, stats = runner(artifact)

        # 1. Identical answers up to row order, per query, per duplicate.
        for sql, multiplicity in WORKLOAD:
            assert len(answers[sql]) == multiplicity
            for answer in answers[sql]:
                assert sorted(answer.result.values) == expected[sql]

        # 2. Truthful accounting: every admitted request completed, and
        #    the two *completion* signatures were joined at most once
        #    each no matter the transport (single-flight + join cache).
        total = sum(n for _sql, n in WORKLOAD)
        assert stats["requests"] == total
        assert stats["completed"] == total
        assert stats["failed"] == 0
        assert 1 <= stats["joins_started"] <= 2
        # 3. Clean shutdown happened inside each runner (context exit with
        #    zero queued work); nothing is left pending here.
        assert stats.get("queued", 0) == 0
        # 4. Queue wait: every serving core (the fleet's are its workers)
        #    has one serving.queue_wait_ms sample per completed request,
        #    and a wait is part of its request's latency.
        cores = stats.get("per_worker", [stats])
        assert sum(core["queue_wait_samples"] for core in cores) == total
        for core in cores:
            assert core["queue_wait_samples"] == core["completed"]
            assert core["p50_queue_wait_ms"] <= core["p50_latency_ms"]
