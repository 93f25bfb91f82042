"""Incremental completion demo: a live database, refreshed in place.

Walks the mutation → recompletion → fine-tune → hot-swap story end to end:

1. fit a completion engine on a biased housing dataset and save the
   fitted state as a **v1 artifact**,
2. apply live mutations (``apply_mutations``: inserts, in-place updates,
   cascading deletes) — the engine checks the resulting
   :class:`~repro.incremental.MutationDelta` against each model's
   relationship closure and marks stale, in the chunks that hold them,
   just the root rows the batch reaches: the updated landlords and the
   landlord the inserted apartment hangs from,
3. ``recomplete(delta)`` — re-walk just those rows and splice them into
   their cached chunks; the rest of the completed join reassembles from
   the partial cache, bitwise-identical to a from-scratch run at the
   same seed,
4. ``check_drift`` / ``fine_tune`` — compare today's encoded
   distributions against the fit baseline and warm-start re-train only
   when the digest actually moved,
5. save a **v2 artifact with lineage** (parent digest + delta metadata),
   verify it against its parent, and hot-swap a running
   :class:`~repro.serving.ServingCore` from v1 to v2 without dropping
   the old engine until the new one is validated.

Run with ``python examples/incremental_demo.py``.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import ReStore, ReStoreConfig, parse_query
from repro.core import ModelConfig
from repro.datasets import HousingConfig, generate_housing
from repro.incomplete import RemovalSpec, make_incomplete
from repro.nn import TrainConfig
from repro.serving import ServingCore, artifact_lineage, verify_lineage

QUERY = "SELECT AVG(price) FROM apartment;"


def train_and_save(artifact_dir: Path) -> ReStore:
    db = generate_housing(HousingConfig(seed=0))
    dataset = make_incomplete(
        db,
        [RemovalSpec("apartment", "price", keep_rate=0.5,
                     removal_correlation=0.5)],
        tf_keep_rate=0.3, seed=1,
    )
    config = ReStoreConfig(
        model=ModelConfig(
            train=TrainConfig(epochs=12, batch_size=256, lr=5e-3, patience=4),
        ),
        chunk_size=4,
    )
    engine = ReStore.from_dataset(dataset, config).fit()
    engine.save_artifact(artifact_dir, scenario="housing/demo")
    print(f"v1 saved: AVG(price) = "
          f"{engine.answer(parse_query(QUERY)).result.scalar:.1f}")
    return engine


def mutate_and_recomplete(engine: ReStore):
    # warm the caches, then mutate the live database in place
    cold = engine.recomplete()
    total = cold.recompletion["chunks_total"]

    # in-place root updates keep the chunk grid stable, and a new
    # apartment only changes the walk of the landlord it hangs from, so
    # invalidation stays local: those root rows are marked stale and their
    # chunks stay cached, to be re-walked row by row and spliced
    landlord = engine.db.table("landlord")
    flat = engine.db.table("apartment")
    new_flat = {c: flat[c][3] for c in flat.column_names}
    new_flat["id"] = int(flat["id"].max()) + 1
    delta = engine.apply_mutations(
        updates={"landlord": [
            {"id": int(landlord["id"][0]),
             "landlord_response_rate":
                 float(landlord["landlord_response_rate"][0]) * 0.5},
            {"id": int(landlord["id"][9]),
             "landlord_since":
                 float(landlord["landlord_since"][9]) + 1.0},
        ]},
        inserts={"apartment": [new_flat]},
    )
    print("\nmutation delta:")
    for table in delta.affected_tables():
        td = delta.for_table(table)
        print(f"  {table}: +{len(td.inserted)} rows, "
              f"~{len(td.updated)} updated, -{len(td.deleted)} deleted "
              f"(grid stable: {td.grid_stable})")
    parents = delta.for_table("apartment").parent_keys["landlord_id"]
    hung_from = np.flatnonzero(np.isin(landlord["id"], parents)).tolist()
    print(f"landlord rows marked stale: updated "
          f"{list(delta.for_table('landlord').updated_positions)}, "
          f"the new apartment's landlord {hung_from}")

    warm = engine.recomplete(delta)
    prov = warm.recompletion
    print(f"recomplete walked {prov['chunks_walked']}/{total} chunks "
          f"({prov['chunks_cached']} served from the partial cache)")
    return delta


def refresh_models(engine: ReStore) -> None:
    report = engine.check_drift()
    print(f"\ndrift: max TV distance {report.max_drift:.4f} "
          f"→ recommendation '{report.recommendation}'")
    outcome = engine.fine_tune()
    if outcome["skipped"]:
        print("fine-tune skipped: database digest unchanged (exact no-op)")
    else:
        print(f"fine-tuned {outcome['models_tuned']} models "
              f"(warm start from the fitted weights)")


def save_upgrade(engine: ReStore, parent: Path, child: Path, delta) -> None:
    engine.save_artifact(child, scenario="housing/demo",
                         parent=parent, delta=delta)
    lineage = artifact_lineage(child)
    print(f"\nv2 saved with lineage: parent digest "
          f"{lineage['parent_digest'][:12]}…, "
          f"delta over {sorted(lineage['delta'])}")
    verify_lineage(child, parent_path=parent)
    print("lineage verified against the v1 artifact")


def hot_swap(v1: Path, v2: Path) -> None:
    core = ServingCore(ReStore.load(v1))
    before = core.submit(QUERY).result.scalar
    info = core.hot_swap(v2)
    after = core.submit(QUERY).result.scalar
    print(f"\nhot swap v1 → v2 ({info['scenario']}): "
          f"AVG(price) {before:.1f} → {after:.1f}, "
          f"swaps counted: {core.stats().swaps}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        v1 = Path(tmp) / "housing-v1"
        v2 = Path(tmp) / "housing-v2"
        engine = train_and_save(v1)
        delta = mutate_and_recomplete(engine)
        refresh_models(engine)
        save_upgrade(engine, v1, v2, delta)
        hot_swap(v1, v2)


if __name__ == "__main__":
    main()
