"""Invariants of incremental completion (mutations → recompletion).

Pinned properties, exercised over randomized cascade-aware mutation
sequences at the harness seed:

* **recompletion identity** — ``recomplete(delta)`` is bitwise-identical
  (up to row order) to from-scratch completion of the mutated database at
  the same seed, for every execution backend and several chunk sizes, on
  all three dataset families (housing/movies nightly-gated via ``slow``);
* **minimal, sound invalidation** — an update-only root delta re-walks
  *exactly* the chunks covering the updated rows; every untouched chunk is
  served from the partial cache (hit counters asserted, not just
  provenance), and the warm result still matches a cold twin.

Twin engines are built by loading the same saved artifact twice — engines
hold locks and cannot be pickled, and an artifact round-trip is exactly
the "same fitted state, fresh caches" starting point the identity claim
quantifies over.
"""

import numpy as np
import pytest

from repro.core import ModelConfig, ReStore, ReStoreConfig
from repro.experiments import joins_bitwise_identical
from repro.incomplete import registry
from repro.nn import TrainConfig
from repro.relational import ColumnKind, Database

from harness_utils import HARNESS_SEED

#: Mutation batches per randomized sequence.  Each batch mixes inserts,
#: updates and deletes over every mutable table, so sequences cover grid
#: changes, closure-table mutations and cascade deletes.
SEQUENCE_STEPS = 3


def _config() -> ReStoreConfig:
    return ReStoreConfig(
        model=ModelConfig(
            hidden=(24, 24),
            train=TrainConfig(epochs=5, batch_size=128, lr=1e-2, patience=3,
                              seed=HARNESS_SEED),
        ),
        seed=HARNESS_SEED,
        chunk_size=16,
    )


def _artifact_for(scenario: str, complete_databases, tmp_path_factory):
    entry = registry.get(scenario)
    dataset = registry.make_scenario_dataset(
        scenario, db=complete_databases(entry.dataset), seed=HARNESS_SEED
    )
    engine = ReStore.from_dataset(dataset, _config()).fit()
    path = tmp_path_factory.mktemp("incremental") / scenario.replace("/", "_")
    engine.save_artifact(path, scenario=scenario)
    return path


@pytest.fixture(scope="module")
def synthetic_artifact(complete_databases, tmp_path_factory):
    return _artifact_for("synthetic/biased", complete_databases,
                         tmp_path_factory)


# ----------------------------------------------------------------------
# Randomized cascade-aware mutation batches
# ----------------------------------------------------------------------


def _donor_row(table, rng) -> dict:
    pos = int(rng.integers(table.num_rows))
    return {c: table[c][pos] for c in table.column_names}


def random_batch(db: Database, rng, max_ops: int = 4) -> dict:
    """A seeded insert/update/delete batch over every mutable table.

    Inserts clone a random donor row under a fresh primary key (so FK
    references stay plausible), updates overwrite one non-key column of a
    random row with a donor value, deletes pick random primary keys —
    cascades through FK children are the mutation API's job.
    """
    tables = [
        n for n in db.table_names()
        if db.table(n).primary_key is not None and db.table(n).num_rows > 3
    ]
    inserts: dict = {}
    updates: dict = {}
    deletes: dict = {}
    for _ in range(int(rng.integers(1, max_ops + 1))):
        name = tables[int(rng.integers(len(tables)))]
        table = db.table(name)
        pk = table.primary_key
        op = ("insert", "update", "delete")[int(rng.integers(3))]
        if op == "insert":
            row = _donor_row(table, rng)
            row[pk] = int(table[pk].max()) + 1 + len(inserts.get(name, []))
            inserts.setdefault(name, []).append(row)
        elif op == "update":
            columns = [
                c for c in table.column_names
                if c != pk and table.meta(c).kind != ColumnKind.KEY
            ]
            if not columns:
                continue
            column = columns[int(rng.integers(len(columns)))]
            target = int(table[pk][int(rng.integers(table.num_rows))])
            updates.setdefault(name, []).append(
                {pk: target, column: _donor_row(table, rng)[column]}
            )
        else:
            victim = int(table[pk][int(rng.integers(table.num_rows))])
            deletes.setdefault(name, set()).add(victim)
    batch = {}
    if inserts:
        batch["inserts"] = inserts
    if updates:
        batch["updates"] = updates
    if deletes:
        batch["deletes"] = {t: sorted(ks) for t, ks in deletes.items()}
    if not batch:
        return random_batch(db, rng, max_ops)
    return batch


def _run_sequence(artifact, seed: int, overrides=None, steps=SEQUENCE_STEPS):
    """Mutate twin engines in lockstep; assert warm == cold at every step."""
    incremental = ReStore.load(artifact, config_overrides=overrides)
    scratch = ReStore.load(artifact, config_overrides=overrides)
    rng = np.random.default_rng(seed)
    incremental.recomplete()  # warm the caches so reuse is actually at stake
    for _ in range(steps):
        batch = random_batch(incremental.db, rng)
        delta = incremental.apply_mutations(**batch)
        scratch.apply_mutations(**batch)
        scratch.clear_cache()
        warm = incremental.recomplete(delta)
        cold = scratch.recomplete()
        assert cold.recompletion["chunks_walked"] == \
            cold.recompletion["chunks_total"]
        assert joins_bitwise_identical(warm, cold), (
            f"recomplete diverged from from-scratch for batch {batch!r}"
        )


# ----------------------------------------------------------------------
# Recompletion identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("chunk_size", [7, 16])
def test_recomplete_matches_from_scratch_across_chunk_sizes(
    synthetic_artifact, chunk_size
):
    _run_sequence(synthetic_artifact, HARNESS_SEED,
                  overrides={"chunk_size": chunk_size})


@pytest.mark.parametrize(
    "backend,workers",
    [
        ("serial", 1),
        ("thread", 2),
        pytest.param("process", 2, marks=pytest.mark.slow),
    ],
)
def test_recomplete_matches_from_scratch_across_backends(
    synthetic_artifact, backend, workers
):
    _run_sequence(
        synthetic_artifact, HARNESS_SEED + 1,
        overrides={"parallel_backend": backend, "n_workers": workers},
    )


@pytest.mark.slow
@pytest.mark.parametrize("scenario", ["housing/mcar", "movies/mcar"])
def test_recomplete_matches_from_scratch_real_datasets(
    scenario, complete_databases, tmp_path_factory
):
    artifact = _artifact_for(scenario, complete_databases, tmp_path_factory)
    _run_sequence(artifact, HARNESS_SEED + 2, steps=2)


def test_recomplete_without_mutations_serves_whole_join_from_cache(
    synthetic_artifact,
):
    engine = ReStore.load(synthetic_artifact)
    cold = engine.recomplete()
    assert cold.recompletion["chunks_walked"] == \
        cold.recompletion["chunks_total"]
    warm = engine.recomplete()
    assert warm.recompletion["chunks_walked"] == 0
    assert warm.recompletion["chunks_cached"] == \
        warm.recompletion["chunks_total"]


# ----------------------------------------------------------------------
# Minimal, sound invalidation
# ----------------------------------------------------------------------


def test_update_only_root_delta_rewalks_exactly_covering_chunks(
    synthetic_artifact,
):
    chunk_size = 7
    engine = ReStore.load(
        synthetic_artifact, config_overrides={"chunk_size": chunk_size}
    )
    scratch = ReStore.load(
        synthetic_artifact, config_overrides={"chunk_size": chunk_size}
    )
    root = engine._default_model().layout.path.tables[0]
    table = engine.db.table(root)
    pk = table.primary_key
    columns = [
        c for c in table.column_names
        if c != pk and table.meta(c).kind != ColumnKind.KEY
    ]
    cold = engine.recomplete()
    total = cold.recompletion["chunks_total"]
    assert total >= 3, "grid too coarse to observe partial invalidation"
    grid = engine._grid(engine._default_model())
    rng = np.random.default_rng(HARNESS_SEED)
    for _ in range(4):
        positions = rng.choice(table.num_rows, size=2, replace=False)
        rows = [
            {pk: int(table[pk][pos]),
             columns[0]: _donor_row(table, rng)[columns[0]]}
            for pos in positions
        ]
        expected = [
            (start, stop) for start, stop in grid
            if any(start <= pos < stop for pos in positions)
        ]
        delta = engine.apply_mutations(updates={root: rows})
        scratch.apply_mutations(updates={root: rows})
        hits_before = engine.partial_cache_stats.hits
        warm = engine.recomplete(delta)
        # minimality: only the covering chunks were re-walked …
        assert warm.recompletion["chunks_walked"] == len(expected)
        # … every untouched chunk was *served from the partial cache* —
        # the counters prove reuse, not just the provenance dict
        assert warm.recompletion["chunks_cached"] == total - len(expected)
        assert engine.partial_cache_stats.hits - hits_before == \
            total - len(expected)
        # soundness: the reused chunks are exactly what a cold walk yields
        scratch.clear_cache()
        assert joins_bitwise_identical(warm, scratch.recomplete())


def test_eviction_is_counted_not_reset(synthetic_artifact):
    engine = ReStore.load(synthetic_artifact, config_overrides={"chunk_size": 7})
    engine.recomplete()
    stats_before = engine.partial_cache_stats
    hits, misses = stats_before.hits, stats_before.misses
    root = engine._default_model().layout.path.tables[0]
    table = engine.db.table(root)
    pk = table.primary_key
    column = next(
        c for c in table.column_names
        if c != pk and table.meta(c).kind != ColumnKind.KEY
    )
    engine.apply_mutations(updates={root: [
        {pk: int(table[pk][0]), column: table[column][1]}
    ]})
    stats = engine.partial_cache_stats
    assert stats.evictions >= 1
    assert stats.invalidations >= 1
    assert stats.hits == hits and stats.misses == misses
