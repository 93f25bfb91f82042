"""Fleet benchmarks: multi-worker throughput scaling + fleet single-flight.

Two measurements over one housing/H1 artifact, both emitted into the
benchmark JSON (``extra_info``):

* **worker scaling** — a :class:`~repro.serving.FleetRouter` at 1 / 2 / 4
  worker processes is driven by ≥1000 concurrent clients on a *warmed*
  fleet (joins computed, caches hot — steady-state serving); the JSON
  records the throughput curve and router-observed p50/p95 per fleet
  size.  The hard ≥2× acceptance assertion (4 workers vs 1) is gated on
  ≥4 available cores, PR-2 precedent: below that the processes time-slice
  one CPU and the curve is flat by construction.
* **fleet-wide single flight** — N identical concurrent queries against
  a *cold* 2-worker fleet produce exactly **one** incompleteness join,
  on exactly **one** worker: cold signatures route by join signature, so
  the core's single-flight coalescing spans the whole fleet.
"""

import asyncio
import os
import time

from repro import ReStore, ReStoreConfig, parse_query
from repro.core import ModelConfig
from repro.nn import TrainConfig
from repro.serving import FleetConfig, FleetRouter, ServiceConfig, save_artifact
from repro.workloads import ALL_SETUPS, base_database

from conftest import run_once

SEED = 5
SCALE = 0.25
TRAIN = TrainConfig(epochs=8, batch_size=256, lr=5e-3, patience=3)

WORKER_COUNTS = (1, 2, 4)
N_CLIENTS = 1000          #: concurrent clients in the scaling run
QUERY_VARIANTS = 32       #: distinct query texts (spread across the ring)

#: Steady-state workload: one completed-join aggregation per request,
#: with a varied predicate so warm routing spreads over every worker.
VARIANT_SQL = (
    "SELECT AVG(price) FROM neighborhood NATURAL JOIN apartment "
    "WHERE price < {threshold} GROUP BY state;"
)

COALESCE_SQL = (
    "SELECT AVG(price) FROM neighborhood NATURAL JOIN apartment "
    "GROUP BY state;"
)


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _housing_artifact(tmp_path):
    db = base_database("housing", seed=0, scale=SCALE)
    dataset = ALL_SETUPS["H1"].make(
        db, keep_rate=0.5, removal_correlation=0.5, seed=1
    )
    config = ReStoreConfig(model=ModelConfig(train=TRAIN), seed=SEED)
    engine = ReStore.from_dataset(dataset, config).fit()
    engine.scenario_name = "housing/H1"
    path = tmp_path / "artifact"
    save_artifact(engine, path, scenario="housing/H1")
    return path


def _variants():
    return [
        parse_query(VARIANT_SQL.format(threshold=800 + 7 * i))
        for i in range(QUERY_VARIANTS)
    ]


def _drive_fleet(artifact, n_workers: int) -> dict:
    """One scaling point: warm the fleet, then time N_CLIENTS clients."""
    variants = _variants()

    async def main():
        config = FleetConfig(
            n_workers=n_workers,
            max_pending=2 * N_CLIENTS,
            worker=ServiceConfig(max_queue=64, max_batch=32, n_workers=2),
        )
        async with FleetRouter(artifact, config) as fleet:
            # Warm pass 1: cold signatures pin to one worker (single
            # flight); pass 2: warm spreading replicates the join into
            # every worker's cache.  Timing starts at steady state.
            for _ in range(2):
                await asyncio.gather(*(fleet.submit(q) for q in variants))
            started = time.perf_counter()
            await asyncio.gather(
                *(fleet.submit(variants[i % QUERY_VARIANTS])
                  for i in range(N_CLIENTS))
            )
            elapsed = time.perf_counter() - started
            stats = await fleet.stats()
        return elapsed, stats, fleet.final_worker_stats

    elapsed, stats, final = asyncio.run(main())
    assert stats.failed == 0 and stats.shed == 0 and stats.rejected == 0
    # Zero dropped in-flight requests: the workers answered everything.
    assert sum(s["completed"] for s in final) == stats.completed
    return {
        "workers": n_workers,
        "clients": N_CLIENTS,
        "requests": N_CLIENTS,
        "seconds": elapsed,
        "throughput_rps": N_CLIENTS / elapsed,
        "p50_latency_ms": stats.p50_latency_ms,
        "p95_latency_ms": stats.p95_latency_ms,
        "joins_started": stats.joins_started,
        "per_worker_completed": [w.get("completed", 0) for w in final],
    }


def test_fleet_worker_scaling(benchmark, tmp_path):
    """Throughput at 1 / 2 / 4 worker processes, ≥1000 concurrent clients."""
    artifact = _housing_artifact(tmp_path)

    def scaling_curve():
        return [_drive_fleet(artifact, n) for n in WORKER_COUNTS]

    rows = run_once(benchmark, scaling_curve)
    cores = _available_cores()
    benchmark.extra_info["fleet_scaling"] = rows
    benchmark.extra_info["available_cores"] = cores
    print()
    print(f"{'workers':>7s} {'clients':>7s} {'rps':>9s} {'p50 ms':>8s} "
          f"{'p95 ms':>8s} {'joins':>6s}")
    for row in rows:
        print(f"{row['workers']:7d} {row['clients']:7d} "
              f"{row['throughput_rps']:9.1f} {row['p50_latency_ms']:8.2f} "
              f"{row['p95_latency_ms']:8.2f} {row['joins_started']:6d}")

    by_workers = {row["workers"]: row for row in rows}
    # Work spreads: at 4 workers every worker answered a share.
    assert all(c > 0 for c in by_workers[4]["per_worker_completed"])
    # The hard scaling bar needs real parallel hardware (PR-2 precedent:
    # with fewer cores than workers the processes time-slice one CPU).
    if cores >= 4:
        speedup = (by_workers[4]["throughput_rps"]
                   / by_workers[1]["throughput_rps"])
        benchmark.extra_info["speedup_4v1"] = speedup
        assert speedup >= 2.0, (
            f"4-worker fleet reached only {speedup:.2f}x over 1 worker"
        )


def test_fleet_single_flight(benchmark, tmp_path):
    """Cold fleet, N identical concurrent queries ⇒ 1 join on 1 worker."""
    artifact = _housing_artifact(tmp_path)
    n_requests = 64

    def identical_burst():
        async def main():
            config = FleetConfig(
                n_workers=2, max_pending=2 * n_requests,
                worker=ServiceConfig(max_queue=n_requests,
                                     max_batch=n_requests),
            )
            async with FleetRouter(artifact, config) as fleet:
                answers = await asyncio.gather(
                    *(fleet.submit(COALESCE_SQL) for _ in range(n_requests))
                )
                stats = await fleet.stats()
            return answers, stats

        return asyncio.run(main())

    answers, stats = run_once(benchmark, identical_burst)
    distinct = {tuple(sorted(a.result.values.items())) for a in answers}
    per_worker_joins = [w.get("joins_started", 0) for w in stats.per_worker]
    benchmark.extra_info["identical_requests"] = n_requests
    benchmark.extra_info["fleet_joins_started"] = stats.joins_started
    benchmark.extra_info["per_worker_joins"] = per_worker_joins
    benchmark.extra_info["coalesced_requests"] = stats.coalesced_requests
    assert len(distinct) == 1            # everyone saw the same join
    assert stats.joins_started == 1      # ...computed once, fleet-wide
    assert sorted(per_worker_joins)[-1] == 1 and sum(per_worker_joins) == 1
