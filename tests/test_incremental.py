"""Units for the incremental-completion layer (:mod:`repro.incremental`).

Four rings, cheapest first:

* **mutations** — tuple-granular inserts/updates/deletes on hand-built
  databases: delta bookkeeping, cascade closure, annotation realignment,
  and the full negative path (every violation is a
  :class:`~repro.errors.MutationError`, never a raw ``KeyError``);
* **invalidation planning** — the delta → affected-chunk calculus, pure
  (no engine, no caches);
* **cache truthfulness** — ``mark_stale`` and ``invalidate_delta`` on a
  real :class:`PartialJoinCache` must *count* their evictions (partial
  invalidation must never silently reset counters);
* **engine + artifacts** (``slow``) — ``apply_mutations`` /
  ``recomplete`` / ``check_drift`` / ``fine_tune`` on a fitted engine,
  and artifact lineage (parent digest + delta metadata, taxonomy errors
  on mismatch).
"""

import numpy as np
import pytest

from repro import ReStore, ReStoreConfig
from repro.core import ModelConfig
from repro.errors import ArtifactLineageError, MutationError, wire_code
from repro.incomplete.registry import make_scenario_dataset
from repro.incremental import (
    MutationDelta,
    TableDelta,
    affected_tasks,
    apply_mutations,
    detect_drift,
    distribution_summary,
    plan_invalidation,
    total_variation,
)
from repro.incremental.drift import DriftThresholds
from repro.nn import TrainConfig
from repro.relational import ColumnKind, Database, ForeignKey, Table
from repro.runtime.cache import PartialJoinCache
from repro.serving import artifact_lineage, save_artifact, verify_lineage

K = ColumnKind.KEY
C = ColumnKind.CATEGORICAL
N = ColumnKind.CONTINUOUS

FAST = TrainConfig(epochs=3, batch_size=128, lr=1e-2, patience=2)


def _mini_db() -> Database:
    parent = Table(
        "pa",
        {"id": [1, 2, 3], "x": [10.0, 20.0, 30.0], "c": ["u", "v", "u"]},
        {"id": K, "x": N, "c": C},
    )
    child = Table(
        "cb",
        {"id": [1, 2, 3, 4], "pa_id": [1, 1, 2, 3], "y": [1.0, 2.0, 3.0, 4.0]},
        {"id": K, "pa_id": K, "y": N},
    )
    grand = Table(
        "gc",
        {"id": [1, 2], "cb_id": [1, 4], "z": ["a", "b"]},
        {"id": K, "cb_id": K, "z": C},
    )
    return Database(
        [parent, child, grand],
        [ForeignKey("cb", "pa_id", "pa"), ForeignKey("gc", "cb_id", "cb")],
    )


# ----------------------------------------------------------------------
# Mutations
# ----------------------------------------------------------------------


class TestApplyMutations:
    def test_update_is_copy_on_write_and_position_stable(self):
        db = _mini_db()
        new_db, _, delta = apply_mutations(
            db, updates={"pa": [{"id": 2, "x": 99.0}]}
        )
        # original untouched, positions stable, only the named cell changed
        assert db.table("pa")["x"][1] == 20.0
        np.testing.assert_array_equal(new_db.table("pa")["id"], [1, 2, 3])
        assert new_db.table("pa")["x"][1] == 99.0
        td = delta.for_table("pa")
        assert td.updated == (2,) and td.updated_positions == (1,)
        assert td.grid_stable
        assert delta.affected_tables() == ("pa",)

    def test_insert_appends_rows_in_order(self):
        db = _mini_db()
        new_db, _, delta = apply_mutations(
            db,
            inserts={"pa": [
                {"id": 4, "x": 40.0, "c": "v"},
                {"id": 5, "x": 50.0, "c": "w"},
            ]},
        )
        np.testing.assert_array_equal(new_db.table("pa")["id"], [1, 2, 3, 4, 5])
        assert new_db.table("pa")["x"][4] == 50.0
        td = delta.for_table("pa")
        assert td.inserted == (4, 5) and not td.grid_stable
        assert delta.num_changes == 2

    def test_delete_cascades_through_fk_closure(self):
        db = _mini_db()
        new_db, _, delta = apply_mutations(db, deletes={"pa": [1]})
        # pa=1 owns cb rows 1,2; cb=1 owns gc row 1: all gone transitively
        np.testing.assert_array_equal(new_db.table("pa")["id"], [2, 3])
        np.testing.assert_array_equal(new_db.table("cb")["id"], [3, 4])
        np.testing.assert_array_equal(new_db.table("gc")["id"], [2])
        assert delta.for_table("pa").deleted == (1,)
        assert delta.for_table("cb").deleted == (1, 2)
        assert delta.for_table("gc").deleted == (1,)

    def test_delete_without_cascade_leaves_children(self):
        db = _mini_db()
        new_db, _, delta = apply_mutations(
            db, deletes={"pa": [1]}, cascade=False
        )
        assert len(new_db.table("cb")) == 4  # dangling refs tolerated
        assert delta.affected_tables() == ("pa",)

    def test_batch_order_updates_then_inserts_then_deletes(self):
        db = _mini_db()
        new_db, _, delta = apply_mutations(
            db,
            updates={"pa": [{"id": 3, "x": 33.0}]},
            inserts={"pa": [{"id": 4, "x": 40.0, "c": "u"}]},
            deletes={"pa": [1]},
        )
        np.testing.assert_array_equal(new_db.table("pa")["id"], [2, 3, 4])
        assert new_db.table("pa")["x"][1] == 33.0
        td = delta.for_table("pa")
        assert td.updated == (3,) and td.inserted == (4,) and td.deleted == (1,)
        counts = delta.counts()["pa"]
        assert counts == {"inserted": 1, "updated": 1, "deleted": 1}

    def test_annotation_tuple_factors_realigned(self):
        ds = make_scenario_dataset(
            "synthetic/biased", keep_rate=0.5, seed=1, scale=0.1
        )
        db, annotation = ds.incomplete, ds.annotation
        key = "tb.ta_id -> ta.id"
        before = np.asarray(annotation.known_tuple_factors[key])
        assert len(before) == len(db.table("ta"))
        ta = db.table("ta")
        new_pk = int(ta["id"].max()) + 1
        doomed = int(ta["id"][0])
        new_db, new_annotation, _ = apply_mutations(
            db, annotation,
            inserts={"ta": [{"id": new_pk, "a": str(ta["a"][0])}]},
            deletes={"ta": [doomed]},
        )
        after = np.asarray(new_annotation.known_tuple_factors[key])
        # still parent-row aligned: one deleted, one appended (TF_UNKNOWN)
        assert len(after) == len(new_db.table("ta"))
        from repro.relational.tuple_factors import TF_UNKNOWN

        assert after[-1] == TF_UNKNOWN
        np.testing.assert_array_equal(after[:-1], before[1:])


class TestMutationNegativePaths:
    """Every violation is a MutationError (stable wire code), never KeyError."""

    def test_unknown_table(self):
        with pytest.raises(MutationError, match="unknown table"):
            apply_mutations(_mini_db(), updates={"nope": [{"id": 1, "x": 0.0}]})

    def test_unknown_row(self):
        # The error names the first unknown key in input order.
        for ids in ([77], [1, 77, 2, 78]):
            rows = [{"id": i, "x": 0.0} for i in ids]
            with pytest.raises(MutationError, match="no row with id=77$"):
                apply_mutations(_mini_db(), updates={"pa": rows})

    def test_unknown_delete_row(self):
        for ids in ([77], [3, 77, 1, 78], np.array([77, 78])):
            with pytest.raises(MutationError, match="no row with id=77$"):
                apply_mutations(_mini_db(), deletes={"pa": ids})

    def test_unknown_column(self):
        with pytest.raises(MutationError, match="unknown column"):
            apply_mutations(_mini_db(), updates={"pa": [{"id": 1, "nope": 1}]})

    def test_update_without_pk(self):
        with pytest.raises(MutationError, match="must carry the primary key"):
            apply_mutations(_mini_db(), updates={"pa": [{"x": 1.0}]})

    def test_update_changing_nothing(self):
        with pytest.raises(MutationError, match="changes no columns"):
            apply_mutations(_mini_db(), updates={"pa": [{"id": 1}]})

    def test_insert_missing_columns(self):
        with pytest.raises(MutationError, match="missing"):
            apply_mutations(_mini_db(), inserts={"pa": [{"id": 9}]})

    def test_insert_duplicate_pk(self):
        for ids, first in (
            ([1], 1),            # an existing key
            ([9, 2, 1], 2),      # the first of several existing keys
            ([9, 10, 9, 2], 9),  # an earlier key of the same batch
            ([9, 3, 9], 3),      # an existing key before a repeat
        ):
            rows = [{"id": i, "x": 0.0, "c": "u"} for i in ids]
            with pytest.raises(MutationError, match=f"duplicate id={first}$"):
                apply_mutations(_mini_db(), inserts={"pa": rows})

    def test_empty_batch(self):
        with pytest.raises(MutationError, match="empty"):
            apply_mutations(_mini_db())

    def test_wire_code_is_stable(self):
        assert wire_code(MutationError("x")) == "mutation_invalid"
        assert wire_code(ArtifactLineageError("x")) == "artifact_lineage"


# ----------------------------------------------------------------------
# Invalidation planning (pure calculus)
# ----------------------------------------------------------------------


class TestInvalidationPlanning:
    ROOT = "pa"
    CLOSURE = {"pa", "cb"}

    def _plan(self, delta, num_roots=100, chunk_size=10):
        return plan_invalidation(
            delta, root_table=self.ROOT, closure_tables=self.CLOSURE,
            num_roots=num_roots, chunk_size=chunk_size,
        )

    def test_root_update_evicts_only_covering_chunks(self):
        delta = MutationDelta(tables={"pa": TableDelta(
            updated=(5, 42), updated_positions=(4, 41))})
        plan = self._plan(delta)
        assert plan.kind == "chunks"
        assert plan.tasks == frozenset({(0, 10), (40, 50)})
        assert plan.rows == (4, 41)  # only the updated rows are stale
        assert plan.touches_cache

    def test_root_insert_or_delete_invalidate_all(self):
        for delta in (
            MutationDelta(tables={"pa": TableDelta(inserted=(101,))}),
            MutationDelta(tables={"pa": TableDelta(deleted=(3,))}),
        ):
            plan = self._plan(delta)
            assert plan.kind == "all" and plan.touches_cache

    def test_closure_table_mutation_invalidates_all(self):
        delta = MutationDelta(tables={"cb": TableDelta(
            updated=(1,), updated_positions=(0,))})
        plan = self._plan(delta)
        assert plan.kind == "all"

    def test_outside_closure_is_a_no_op(self):
        delta = MutationDelta(tables={"gc": TableDelta(deleted=(1,))})
        plan = self._plan(delta)
        assert plan.kind == "none" and not plan.touches_cache
        assert plan.tasks == frozenset()

    def test_affected_tasks_cover_every_position(self):
        tasks = affected_tasks((0, 9, 10, 99), num_roots=100, chunk_size=10)
        assert tasks == frozenset({(0, 10), (10, 20), (90, 100)})
        # ragged final chunk
        tasks = affected_tasks((10,), num_roots=11, chunk_size=10)
        assert tasks == frozenset({(10, 11)})


# ----------------------------------------------------------------------
# Cache-stats truthfulness under partial invalidation
# ----------------------------------------------------------------------


class TestPartialCacheInvalidation:
    SIG = ("ar", ("pa", "cb"), 0, True, "compiled")
    OTHER = ("ar", ("qq", "rr"), 0, True, "compiled")
    GRID = ((0, 10), (10, 20), (20, 30))

    def _seeded(self) -> PartialJoinCache:
        cache = PartialJoinCache(capacity=32)
        for sig in (self.SIG, self.OTHER):
            for task in self.GRID:
                cache.put(sig, self.GRID, task, frozenset(), f"{sig}:{task}")
        return cache

    def test_task_scoped_eviction_counts_and_spares_others(self):
        """A root update marks its rows stale in the covering chunk only.
        The unfiltered entry stays for a splice but serves nobody: every
        lookup of it counts a miss, as a subset candidate too, and it
        counts as evicted, like the chunk's pushed entries that go."""
        cache = self._seeded()
        cache.put(self.SIG, self.GRID, (10, 20), frozenset({"f"}), "pushed")
        assert len(cache) == 7
        marked = cache.mark_stale(self.SIG, [15, 12, 15])
        assert marked == 2  # the unfiltered entry marked, the pushed one gone
        assert len(cache) == 6
        # Counters reflect the eviction — not a silent reset (the PR 4
        # regression class).
        assert cache.stats.evictions == 2
        assert cache.stats.invalidations == 1
        output, roots = cache.stale_entry(self.SIG, self.GRID, (10, 20))
        assert output == f"{self.SIG}:{(10, 20)}"
        assert roots.tolist() == [12, 15]
        misses = cache.stats.misses
        assert cache.lookup(self.SIG, self.GRID, (10, 20), frozenset()) is None
        assert cache.lookup(
            self.SIG, self.GRID, (10, 20), frozenset({"f"})) is None
        assert cache.stats.misses == misses + 2
        # untouched chunks of the same signature still serve
        assert cache.lookup(self.SIG, self.GRID, (0, 10), frozenset()) is not None
        assert cache.stale_entry(self.SIG, self.GRID, (0, 10)) is None
        # the other signature is entirely unaffected
        for task in self.GRID:
            assert cache.lookup(self.OTHER, self.GRID, task, frozenset()) is not None
            assert cache.stale_entry(self.OTHER, self.GRID, task) is None
        # more stale rows accumulate, counted once; a splice makes it clean
        assert cache.mark_stale(self.SIG, [11]) == 0
        assert cache.stats.evictions == 2
        assert cache.stale_entry(
            self.SIG, self.GRID, (10, 20))[1].tolist() == [11, 12, 15]
        cache.put(self.SIG, self.GRID, (10, 20), frozenset(), "spliced")
        assert cache.stale_entry(self.SIG, self.GRID, (10, 20)) is None
        assert cache.lookup(self.SIG, self.GRID, (10, 20), frozenset()) == (
            "spliced", frozenset())

    def test_delta_drops_the_signature_memo(self):
        """Any delta that touches a model makes its assembled join stale,
        even when the delta's chunks are cached elsewhere or not at all."""
        cache = self._seeded()
        for sig in (self.SIG, self.OTHER):
            cache.put_join(sig, f"{sig}:full")
        marked = cache.mark_stale(self.SIG, [15])
        assert marked == 1  # chunk entries only
        assert not cache.has_join(self.SIG)
        assert cache.join_stats.evictions == 1
        assert cache.join_stats.invalidations == 1
        assert cache.has_join(self.OTHER)
        for task in ((0, 10), (20, 30)):
            assert cache.lookup(self.SIG, self.GRID, task, frozenset()) is not None
        # a delta on no cached chunk still drops the memo
        cache.put_join(self.SIG, f"{self.SIG}:full")
        assert cache.mark_stale(self.SIG, [999]) == 0
        assert not cache.has_join(self.SIG)
        assert cache.join_stats.invalidations == 2

    def test_signature_scoped_eviction(self):
        cache = self._seeded()
        evicted = cache.invalidate_delta(self.SIG)
        assert evicted == 3
        assert cache.stats.evictions == 3
        for task in self.GRID:
            assert cache.lookup(self.SIG, self.GRID, task, frozenset()) is None
            assert cache.lookup(self.OTHER, self.GRID, task, frozenset()) is not None

    def test_miss_counters_survive_invalidation(self):
        cache = self._seeded()
        cache.lookup(self.SIG, self.GRID, (0, 10), frozenset())   # hit
        before = cache.stats.hits
        cache.mark_stale(self.SIG, [3])
        assert cache.stats.hits == before  # marking never rewrites history
        cache.invalidate_delta(self.SIG)
        assert cache.stats.hits == before  # eviction never rewrites history

    def test_unknown_signature_or_task_is_a_counted_no_op(self):
        cache = self._seeded()
        assert cache.invalidate_delta(("missing",)) == 0
        assert cache.mark_stale(("missing",), [3]) == 0
        assert cache.mark_stale(self.SIG, [999]) == 0
        assert cache.stats.evictions == 0
        assert cache.stats.invalidations == 0
        assert len(cache) == 6

    def test_stale_marks_go_with_their_entries_counted_once(self):
        """A stale entry counts as evicted when marked, and not again when
        an eviction or an invalidation removes it and its mark."""
        cache = self._seeded()
        cache.mark_stale(self.SIG, [15])
        assert cache.stats.evictions == 1
        assert cache.invalidate_delta(self.SIG) == 2
        assert cache.stats.evictions == 3
        assert cache.stats.invalidations == 2
        for task in self.GRID:
            assert cache.stale_entry(self.SIG, self.GRID, task) is None
        cache = PartialJoinCache(capacity=2)
        cache.put(self.SIG, self.GRID, (0, 10), frozenset(), "a")
        cache.mark_stale(self.SIG, [4])
        cache.put(self.SIG, self.GRID, (10, 20), frozenset(), "b")
        cache.put(self.SIG, self.GRID, (20, 30), frozenset(), "c")
        assert cache.stats.evictions == 1  # the marked entry left the LRU
        assert cache.stale_entry(self.SIG, self.GRID, (0, 10)) is None
        cache.put(self.SIG, self.GRID, (0, 10), frozenset(), "a")
        assert cache.stats.evictions == 2  # "b" left, counted
        assert cache.lookup(self.SIG, self.GRID, (0, 10), frozenset()) == (
            "a", frozenset())


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------


class TestDrift:
    def test_total_variation_bounds(self):
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([0.0, 1.0, 0.0])
        assert total_variation(p, p) == 0.0
        assert total_variation(p, q) == 1.0

    def test_identical_database_reports_zero_drift(self):
        from repro.core.path_data import build_encoders

        db = _mini_db()
        encoders = build_encoders(db, num_bins=8)
        summary = distribution_summary(db, encoders)
        report = detect_drift(summary, summary)
        assert report.max_drift == 0.0
        assert report.recommendation == "skip"
        assert report.drifted_tables() == {}

    def test_thresholds_grade_recommendations(self):
        thresholds = DriftThresholds(fine_tune=0.1, refit=0.5)
        assert thresholds.recommend(0.05) == "skip"
        assert thresholds.recommend(0.3) == "fine_tune"
        assert thresholds.recommend(0.8) == "refit"

    def test_mutated_column_registers_drift(self):
        from repro.core.path_data import build_encoders

        db = _mini_db()
        encoders = build_encoders(db, num_bins=8)
        baseline = distribution_summary(db, encoders)
        mutated, _, _ = apply_mutations(
            db, updates={"pa": [{"id": i, "c": "v"} for i in (1, 3)]}
        )
        report = detect_drift(baseline, distribution_summary(mutated, encoders))
        assert report.max_drift > 0.0
        assert "pa" in report.per_table and report.per_table["pa"] > 0.0

    def test_missing_table_counts_as_total_drift(self):
        report = detect_drift({"pa": {"x": np.array([1.0])}}, {})
        assert report.per_table["pa"] == 1.0
        assert report.recommendation == "refit"


# ----------------------------------------------------------------------
# Fitted engine + lineage (slow: trains models)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fitted_engine():
    dataset = make_scenario_dataset(
        "synthetic/biased", keep_rate=0.5, seed=1, scale=0.2
    )
    config = ReStoreConfig(model=ModelConfig(train=FAST), seed=3)
    return ReStore.from_dataset(dataset, config).fit()


@pytest.mark.slow
class TestEngineIncremental:
    def test_recomplete_reuses_untouched_chunks(self, fitted_engine, tmp_path,
                                                monkeypatch):
        engine = ReStore.load(self._artifact(fitted_engine, tmp_path))
        cold = engine.recomplete()
        assert cold.recompletion["chunks_walked"] == cold.recompletion["chunks_total"]
        root = engine._default_model().layout.path.tables[0]
        tbl = engine.db.table(root)
        delta = engine.apply_mutations(updates={root: [
            {"id": int(tbl["id"][0]), "a": str(tbl["a"][1])}
        ]})
        model = engine._default_model()
        encoder = model.layout.encoders[root]
        encoded = []
        encode = encoder.encode_columns

        def counting(columns):
            encoded.append(len(next(iter(columns.values()))))
            return encode(columns)

        monkeypatch.setattr(encoder, "encode_columns", counting)
        again = engine.recomplete(delta)
        assert again.recompletion["chunks_walked"] == 1
        assert again.recompletion["chunks_total"] == 16
        assert (again.recompletion["chunks_walked"]
                + again.recompletion["chunks_cached"]
                == again.recompletion["chunks_total"])
        # Only the updated root row is gathered and encoded, not its chunk.
        start, stop = engine._grid(model)[0]
        assert encoded == [1] and 1 < stop - start < len(tbl)

    def test_fine_tune_is_digest_gated(self, fitted_engine, tmp_path):
        engine = ReStore.load(self._artifact(fitted_engine, tmp_path))
        noop = engine.fine_tune()
        assert noop["skipped"] is True and noop["models_tuned"] == 0
        root = engine._default_model().layout.path.tables[0]
        tbl = engine.db.table(root)
        engine.apply_mutations(updates={root: [
            {"id": int(tbl["id"][0]), "a": str(tbl["a"][1])}
        ]})
        tuned = engine.fine_tune()
        assert tuned["skipped"] is False and tuned["models_tuned"] >= 1
        for model in engine.fitted_models().values():
            assert model.train_result.warm_start is True
        # and the digest gate closes again
        assert engine.fine_tune()["skipped"] is True

    def test_check_drift_on_fitted_engine(self, fitted_engine, tmp_path):
        engine = ReStore.load(self._artifact(fitted_engine, tmp_path))
        assert engine.check_drift().recommendation == "skip"
        root = engine._default_model().layout.path.tables[0]
        tbl = engine.db.table(root)
        flip = str(tbl["a"][int(np.argmax(tbl["a"] != tbl["a"][0]))])
        engine.apply_mutations(updates={root: [
            {"id": int(k), "a": flip} for k in tbl["id"][: len(tbl) // 2]
        ]})
        report = engine.check_drift()
        assert report.max_drift > 0.0

    @staticmethod
    def _artifact(engine, tmp_path):
        path = tmp_path / "base"
        if not path.exists():
            save_artifact(engine, path, scenario="synthetic/biased")
        return path


@pytest.mark.slow
class TestArtifactLineage:
    def test_lineage_round_trip_and_verify(self, fitted_engine, tmp_path):
        parent = tmp_path / "parent"
        save_artifact(fitted_engine, parent, scenario="synthetic/biased")
        child_engine = ReStore.load(parent)
        root = child_engine._default_model().layout.path.tables[0]
        tbl = child_engine.db.table(root)
        delta = child_engine.apply_mutations(updates={root: [
            {"id": int(tbl["id"][0]), "a": str(tbl["a"][1])}
        ]})
        child_engine.fine_tune()
        child = tmp_path / "child"
        save_artifact(child_engine, child, scenario="synthetic/biased",
                      parent=parent, delta=delta)
        lineage = artifact_lineage(child)
        assert lineage["parent_path"] == str(parent)
        assert lineage["delta"][root]["updated"] == 1
        assert verify_lineage(child)["parent_digest"] == lineage["parent_digest"]
        # warm-start flag survives the artifact round trip
        reloaded = ReStore.load(child)
        assert any(
            m.train_result.warm_start for m in reloaded.fitted_models().values()
        )

    def test_lineage_negative_paths(self, fitted_engine, tmp_path):
        plain = tmp_path / "plain"
        save_artifact(fitted_engine, plain, scenario="synthetic/biased")
        assert artifact_lineage(plain) is None
        with pytest.raises(ArtifactLineageError, match="no lineage"):
            verify_lineage(plain)
        # delta without a parent is refused outright
        delta = MutationDelta(tables={"ta": TableDelta(updated=(1,))})
        with pytest.raises(ArtifactLineageError, match="requires a parent"):
            save_artifact(fitted_engine, tmp_path / "x",
                          scenario="synthetic/biased", delta=delta)
        # lineage naming the wrong parent fails digest verification
        child = tmp_path / "child2"
        save_artifact(fitted_engine, child, scenario="synthetic/biased",
                      parent=plain)
        imposter = tmp_path / "imposter"
        engine2 = ReStore.load(plain)
        root = engine2._default_model().layout.path.tables[0]
        tbl = engine2.db.table(root)
        engine2.apply_mutations(updates={root: [
            {"id": int(tbl["id"][0]), "a": str(tbl["a"][1])}
        ]})
        save_artifact(engine2, imposter, scenario="synthetic/biased")
        with pytest.raises(ArtifactLineageError, match="digest"):
            verify_lineage(child, parent_path=imposter)
