"""Serving demo: train once, save an artifact, serve queries at scale.

Walks ReStore's train-once / query-many story end to end:

1. fit a completion engine on a biased housing dataset,
2. ``save_artifact`` — persist the fitted engine (models, codecs, data,
   candidate rankings) to a versioned directory,
3. ``ReStore.load`` — reconstruct a ready-to-answer engine, as a fresh
   serving process would,
4. run a :class:`~repro.serving.CompletionService` over it and hit it
   with concurrent clients: identical in-flight queries coalesce into a
   single incompleteness join, and the stats show batch sizes, latency
   percentiles and the join-cache hit rate.

Run with ``python examples/serving_demo.py``.
"""

import asyncio
import tempfile
from pathlib import Path

from repro import ReStore, ReStoreConfig, parse_query
from repro.core import ModelConfig
from repro.datasets import HousingConfig, generate_housing
from repro.incomplete import RemovalSpec, make_incomplete
from repro.nn import TrainConfig
from repro.serving import CompletionService, ServiceConfig, read_manifest

QUERIES = [
    "SELECT AVG(price) FROM apartment;",
    "SELECT COUNT(*) FROM apartment;",
    "SELECT AVG(price) FROM neighborhood NATURAL JOIN apartment "
    "WHERE room_type = 'Entire home/apt';",
    "SELECT AVG(price) FROM neighborhood NATURAL JOIN apartment GROUP BY state;",
]


def train_and_save(artifact_dir: Path) -> None:
    db = generate_housing(HousingConfig(seed=0))
    dataset = make_incomplete(
        db,
        [RemovalSpec("apartment", "price", keep_rate=0.5,
                     removal_correlation=0.5)],
        tf_keep_rate=0.3, seed=1,
    )
    config = ReStoreConfig(model=ModelConfig(
        train=TrainConfig(epochs=20, batch_size=256, lr=5e-3, patience=4),
    ))
    engine = ReStore.from_dataset(dataset, config).fit()
    engine.save_artifact(artifact_dir)
    manifest = read_manifest(artifact_dir)
    print(f"saved artifact: format v{manifest['format_version']}, "
          f"repro {manifest['repro_version']}, seed {manifest['seed']}, "
          f"{manifest['num_models']} models")


async def serve(artifact_dir: Path) -> None:
    # A serving process starts here: no training, just the artifact.
    engine = ReStore.load(artifact_dir)
    in_memory = engine.answer(parse_query(QUERIES[0])).result.scalar
    print(f"loaded engine answers AVG(price) = {in_memory:.1f}")
    engine.clear_cache()

    async def client(service: CompletionService, client_id: int) -> None:
        for i in range(4):
            sql = QUERIES[(client_id + i) % len(QUERIES)]
            answer = await service.submit(sql)
            if i == 0 and client_id == 0:
                first = next(iter(answer.result.values.values()))
                print(f"  first answer ({sql[:40]}…): {first:.1f}")

    config = ServiceConfig(max_queue=32, max_batch=16)
    async with CompletionService(engine, config) as service:
        await asyncio.gather(*(client(service, i) for i in range(8)))
        stats = service.stats()

    print("\nservice stats after 8 concurrent clients x 4 queries:")
    print(f"  completed        : {stats.completed} "
          f"(failed {stats.failed}, rejected {stats.rejected})")
    print(f"  joins started    : {stats.joins_started} "
          f"(coalesced {stats.coalesced_requests} requests)")
    print(f"  batches          : {stats.batches} "
          f"(mean size {stats.mean_batch_size:.1f}, max {stats.max_batch_size})")
    print(f"  latency          : p50 {stats.p50_latency_ms:.1f} ms, "
          f"p95 {stats.p95_latency_ms:.1f} ms")
    print(f"  join cache       : hit rate {stats.cache['hit_rate']:.1%}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        artifact_dir = Path(tmp) / "housing-artifact"
        train_and_save(artifact_dir)
        asyncio.run(serve(artifact_dir))


if __name__ == "__main__":
    main()
