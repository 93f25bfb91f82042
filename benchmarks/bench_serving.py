"""Serving benchmarks: artifact round-trip parity and service throughput.

Three measurements, all emitted into the benchmark JSON (``extra_info``):

* **artifact parity** — a fitted housing engine is saved, reloaded, and
  must answer the exp-2 housing query workload (Table 1, Q1–Q10)
  identically to the in-memory engine at the same seed;
* **load generation** — a :class:`~repro.serving.CompletionService` over
  the loaded engine is driven by 1 / 8 / 32 concurrent clients; the JSON
  records throughput and p50/p95 latency per client count;
* **single-flight proof** — N identical concurrent queries on a cold
  cache trigger exactly one incompleteness join.
"""

import asyncio
import time

from repro import ReStore, ReStoreConfig
from repro.core import ModelConfig
from repro.nn import TrainConfig
from repro.serving import CompletionService, ServiceConfig, save_artifact
from repro.workloads import ALL_SETUPS, base_database, queries_for

from conftest import run_once

SEED = 5
SCALE = 0.25
TRAIN = TrainConfig(epochs=8, batch_size=256, lr=5e-3, patience=3)
CLIENT_COUNTS = (1, 8, 32)
QUERIES_PER_CLIENT = 6


def _fitted_housing_engine() -> ReStore:
    db = base_database("housing", seed=0, scale=SCALE)
    dataset = ALL_SETUPS["H1"].make(
        db, keep_rate=0.5, removal_correlation=0.5, seed=1
    )
    config = ReStoreConfig(model=ModelConfig(train=TRAIN), seed=SEED)
    engine = ReStore.from_dataset(dataset, config).fit()
    engine.scenario_name = "housing/H1"
    return engine


def _workload():
    """The exp-2 housing workload: name → Query (Table 1, Q1–Q10)."""
    return {name: query for name, (_setup, query) in queries_for("housing").items()}


def _answer_all(engine: ReStore, workload) -> dict:
    answered = {}
    for name, query in workload.items():
        try:
            answered[name] = engine.answer(query).result.values
        except Exception as exc:  # parity includes the failure mode
            answered[name] = f"{type(exc).__name__}: {exc}"
    return answered


def test_artifact_roundtrip_parity(benchmark, tmp_path):
    """save → load → identical exp-2 workload answers (acceptance check)."""
    engine = _fitted_housing_engine()
    workload = _workload()
    expected = _answer_all(engine, workload)
    save_artifact(engine, tmp_path / "artifact")

    loaded = run_once(benchmark, ReStore.load, tmp_path / "artifact")
    actual = _answer_all(loaded, workload)
    matches = {name: actual[name] == expected[name] for name in workload}
    benchmark.extra_info["workload_queries"] = len(workload)
    benchmark.extra_info["parity"] = matches
    assert all(matches.values()), f"loaded-engine mismatches: {matches}"


def _drive_clients(engine: ReStore, num_clients: int) -> dict:
    """One load-generation run; returns the throughput/latency record."""
    workload = list(_workload().values())
    engine.clear_cache()

    async def client(service, client_id):
        for i in range(QUERIES_PER_CLIENT):
            await service.submit(workload[(client_id + i) % len(workload)])

    async def main():
        config = ServiceConfig(
            max_queue=max(2 * num_clients, 16), max_batch=32, n_workers=2,
        )
        async with CompletionService(engine, config) as service:
            started = time.perf_counter()
            await asyncio.gather(
                *(client(service, i) for i in range(num_clients))
            )
            elapsed = time.perf_counter() - started
            return elapsed, service.stats()

    elapsed, stats = asyncio.run(main())
    total = num_clients * QUERIES_PER_CLIENT
    assert stats.completed == total and stats.failed == 0
    return {
        "clients": num_clients,
        "requests": total,
        "seconds": elapsed,
        "throughput_rps": total / elapsed,
        "p50_latency_ms": stats.p50_latency_ms,
        "p95_latency_ms": stats.p95_latency_ms,
        "mean_batch_size": stats.mean_batch_size,
        "joins_started": stats.joins_started,
        "cache_hit_rate": stats.cache["hit_rate"],
    }


def test_serving_throughput(benchmark, tmp_path):
    """Throughput + p50/p95 latency at 1 / 8 / 32 concurrent clients."""
    engine = _fitted_housing_engine()
    save_artifact(engine, tmp_path / "artifact")
    loaded = ReStore.load(tmp_path / "artifact")

    def load_generation():
        return [_drive_clients(loaded, n) for n in CLIENT_COUNTS]

    rows = run_once(benchmark, load_generation)
    benchmark.extra_info["serving_load"] = rows
    print()
    print(f"{'clients':>7s} {'req':>5s} {'rps':>9s} {'p50 ms':>8s} "
          f"{'p95 ms':>8s} {'batch':>6s} {'joins':>6s}")
    for row in rows:
        print(f"{row['clients']:7d} {row['requests']:5d} "
              f"{row['throughput_rps']:9.1f} {row['p50_latency_ms']:8.2f} "
              f"{row['p95_latency_ms']:8.2f} {row['mean_batch_size']:6.2f} "
              f"{row['joins_started']:6d}")
    # The acceptance bar: the service sustains >= 8 concurrent clients.
    by_clients = {row["clients"]: row for row in rows}
    assert by_clients[8]["requests"] == 8 * QUERIES_PER_CLIENT
    assert by_clients[32]["requests"] == 32 * QUERIES_PER_CLIENT


def test_single_flight_coalescing(benchmark, tmp_path):
    """N identical in-flight queries trigger exactly one join (proof)."""
    engine = _fitted_housing_engine()
    save_artifact(engine, tmp_path / "artifact")
    loaded = ReStore.load(tmp_path / "artifact")
    sql = ("SELECT AVG(price) FROM neighborhood NATURAL JOIN apartment "
           "GROUP BY state;")
    n_requests = 16

    def identical_burst():
        loaded.clear_cache()

        async def main():
            config = ServiceConfig(max_queue=n_requests, max_batch=n_requests)
            async with CompletionService(loaded, config) as service:
                answers = await service.submit_many([sql] * n_requests)
                return answers, service.stats()

        return asyncio.run(main())

    answers, stats = run_once(benchmark, identical_burst)
    scalars = {tuple(sorted(a.result.values.items())) for a in answers}
    benchmark.extra_info["identical_requests"] = n_requests
    benchmark.extra_info["joins_started"] = stats.joins_started
    benchmark.extra_info["coalesced_requests"] = stats.coalesced_requests
    assert len(scalars) == 1          # everyone saw the same completed join
    assert stats.joins_started == 1   # ... produced exactly once
    assert stats.cache["misses"] == 1
