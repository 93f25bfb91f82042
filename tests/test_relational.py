"""Tests for tables, schemas, key structures, tuple factors and schema-graph
walks."""

import gc
import weakref

import numpy as np
import pytest

from repro.incomplete import registry
from repro.incremental import apply_mutations
from repro.relational import keys
from repro.relational.keys import build_child_index, child_index, lookup, match_keys
from repro.relational import (
    ColumnKind,
    CompletionPath,
    Database,
    ForeignKey,
    SchemaAnnotation,
    Table,
    TF_UNKNOWN,
    annotated_tuple_factors,
    cap_tuple_factors,
    enumerate_completion_paths,
    fan_out_relations,
    join_order,
    observed_tuple_factors,
)

K = ColumnKind.KEY
C = ColumnKind.CATEGORICAL
N = ColumnKind.CONTINUOUS


class TestTable:
    def test_basic_construction(self):
        t = Table("t", {"id": [1, 2], "x": [0.5, 1.5]}, {"id": K, "x": N})
        assert t.num_rows == 2
        assert t.column_names == ["id", "x"]
        np.testing.assert_allclose(t["x"], [0.5, 1.5])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Table("t", {"id": [1, 2], "x": [1.0]}, {"id": K, "x": N})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError):
            Table("t", {"id": [1], "x": [1.0]}, {"id": K})

    def test_extra_kind_rejected(self):
        with pytest.raises(ValueError):
            Table("t", {"id": [1]}, {"id": K, "ghost": N})

    def test_missing_pk_rejected(self):
        with pytest.raises(ValueError):
            Table("t", {"x": [1.0]}, {"x": N}, primary_key="id")

    def test_no_pk_allowed(self):
        t = Table("link", {"a_id": [1], "b_id": [2]}, {"a_id": K, "b_id": K},
                  primary_key=None)
        assert t.primary_key is None

    def test_take_and_select(self):
        t = Table("t", {"id": [1, 2, 3], "x": [1.0, 2.0, 3.0]}, {"id": K, "x": N})
        taken = t.take(np.array([2, 0, 2]))
        np.testing.assert_allclose(taken["x"], [3.0, 1.0, 3.0])
        selected = t.select(np.array([True, False, True]))
        np.testing.assert_allclose(selected["x"], [1.0, 3.0])

    def test_select_bad_mask(self):
        t = Table("t", {"id": [1, 2]}, {"id": K})
        with pytest.raises(ValueError):
            t.select(np.array([True]))

    def test_project_drops_pk(self):
        t = Table("t", {"id": [1], "x": [1.0]}, {"id": K, "x": N})
        proj = t.project(["x"])
        assert proj.primary_key is None
        assert proj.column_names == ["x"]

    def test_with_column_replaces(self):
        t = Table("t", {"id": [1, 2]}, {"id": K})
        t2 = t.with_column("y", [5.0, 6.0], N)
        assert "y" in t2
        assert "y" not in t

    def test_concat_rows(self):
        a = Table("t", {"id": [1], "x": [1.0]}, {"id": K, "x": N})
        b = Table("t", {"id": [2], "x": [9.0]}, {"id": K, "x": N})
        both = a.concat_rows(b)
        assert both.num_rows == 2
        np.testing.assert_allclose(both["x"], [1.0, 9.0])

    def test_concat_mismatch(self):
        a = Table("t", {"id": [1]}, {"id": K})
        b = Table("t", {"id": [1], "x": [0.0]}, {"id": K, "x": N})
        with pytest.raises(ValueError):
            a.concat_rows(b)

    def test_modelable_columns(self):
        t = Table("t", {"id": [1], "x": [1.0], "c": ["a"]}, {"id": K, "x": N, "c": C})
        assert t.modelable_columns() == ["x", "c"]

    def test_unknown_column_raises(self):
        t = Table("t", {"id": [1]}, {"id": K})
        with pytest.raises(KeyError):
            t.column("nope")
        with pytest.raises(KeyError):
            t.meta("nope")


class TestDatabase:
    def test_fk_validation(self):
        t = Table("t", {"id": [1]}, {"id": K})
        with pytest.raises(ValueError):
            Database([t], [ForeignKey("t", "id", "ghost")])
        with pytest.raises(ValueError):
            Database([t], [ForeignKey("t", "ghost_col", "t")])
        # A foreign key must target its parent's primary key: key
        # resolution relies on unique parent keys.
        p = Table("p", {"id": [1, 2], "code": [5, 5]}, {"id": K, "code": K})
        c = Table("c", {"id": [1], "p_code": [5]}, {"id": K, "p_code": K})
        with pytest.raises(ValueError, match="primary key"):
            Database([p, c], [ForeignKey("c", "p_code", "p", "code")])
        link = Table("link", {"p_id": [1]}, {"p_id": K}, primary_key=None)
        with pytest.raises(ValueError, match="primary key"):
            Database([link, c], [ForeignKey("c", "p_code", "link", "p_id")])
        Database([p, c], [ForeignKey("c", "p_code", "p", "id")])

    def test_duplicate_table_rejected(self):
        t = Table("t", {"id": [1]}, {"id": K})
        with pytest.raises(ValueError):
            Database([t, t], [])

    def test_neighbors_and_fk_between(self, housing_mini):
        assert set(housing_mini.neighbors("apartment")) == {"neighborhood", "landlord"}
        fk = housing_mini.fk_between("apartment", "neighborhood")
        assert fk.child_table == "apartment"
        with pytest.raises(ValueError):
            housing_mini.fk_between("neighborhood", "landlord")

    def test_fan_out_direction(self, housing_mini):
        assert housing_mini.is_fan_out_step("neighborhood", "apartment")
        assert not housing_mini.is_fan_out_step("apartment", "neighborhood")

    def test_replace_table(self, housing_mini):
        smaller = housing_mini.table("apartment").head(2)
        db2 = housing_mini.replace_table(smaller)
        assert len(db2.table("apartment")) == 2
        assert len(housing_mini.table("apartment")) == 5

    def test_validate_references(self, housing_mini):
        assert housing_mini.validate_references() == []
        bad_apartment = housing_mini.table("apartment").with_column(
            "neighborhood_id", [1, 1, 2, 2, 99], ColumnKind.KEY
        )
        db2 = housing_mini.replace_table(bad_apartment)
        problems = db2.validate_references()
        assert len(problems) == 1 and "1 dangling" in problems[0]

    def test_sentinel_keys_not_dangling(self, housing_mini):
        apt = housing_mini.table("apartment").with_column(
            "landlord_id", [1, 2, -1, -1, 3], ColumnKind.KEY
        )
        db2 = housing_mini.replace_table(apt)
        assert db2.validate_references() == []


def _key_structure_dbs(name):
    """The complete and incomplete databases of a scenario, plus the
    incomplete one with every fifth reference of each FK set to the
    missing-key sentinel."""
    dataset = registry.make_scenario_dataset(name, keep_rate=0.5, seed=1,
                                             scale=0.1)
    sentinel = dataset.incomplete
    for fk in sentinel.foreign_keys:
        child = sentinel.table(fk.child_table)
        refs = child[fk.child_column].copy()
        refs[::5] = -1
        sentinel = sentinel.replace_table(
            child.with_column(fk.child_column, refs, ColumnKind.KEY))
    return [dataset.complete, dataset.incomplete, sentinel]


class TestKeyStructures:
    """The memoized structures of :mod:`repro.relational.keys` equal the
    builders and the full-column matches they replace, per database."""

    @pytest.mark.parametrize(
        "name", ["housing/multi_table", "movies/M4", "synthetic/biased"])
    def test_memo_matches_full_builds(self, name):
        for db in _key_structure_dbs(name):
            for fk in db.foreign_keys:
                memo = child_index(db, fk)
                assert child_index(db, fk) is memo
                built = build_child_index(db, fk)
                assert memo.fk == built.fk
                for field in ("child_rows", "offsets", "parent_of"):
                    got, want = getattr(memo, field), getattr(built, field)
                    assert got.dtype == want.dtype == np.int64
                    assert not got.flags.writeable  # shared by every caller
                    np.testing.assert_array_equal(got, want)
                parent = db.table(fk.parent_table)
                refs = db.table(fk.child_table)[fk.child_column]
                matched = match_keys(parent[fk.parent_column], refs)
                np.testing.assert_array_equal(memo.parent_of, matched)
                np.testing.assert_array_equal(
                    lookup(db, fk.parent_table, fk.parent_column, refs),
                    matched)
                tfs = observed_tuple_factors(db, fk)
                want_tfs = np.bincount(matched[matched >= 0],
                                       minlength=len(parent))
                assert tfs.dtype == want_tfs.dtype
                np.testing.assert_array_equal(tfs, want_tfs)

    def test_mutated_database_gets_its_own_index(self, housing_mini):
        db = housing_mini.copy()  # the fixture's own object outlives the test
        fk = db.fk_between("apartment", "neighborhood")
        old = child_index(db, fk)
        old_arrays = [a.copy() for a in (old.child_rows, old.offsets,
                                         old.parent_of)]
        new_db, _, _ = apply_mutations(db, deletes={"apartment": [1]})
        new = child_index(new_db, fk)
        assert new is not old
        for field in ("child_rows", "offsets", "parent_of"):
            np.testing.assert_array_equal(
                getattr(new, field), getattr(build_child_index(new_db, fk), field))
        assert new.counts().sum() == old.counts().sum() - 1
        assert child_index(db, fk) is old
        for before, after in zip(old_arrays, (old.child_rows, old.offsets,
                                              old.parent_of)):
            np.testing.assert_array_equal(before, after)

        entries = len(keys._MEMO)
        ref = weakref.ref(db)
        del db, new_db
        gc.collect()
        assert ref() is None
        assert len(keys._MEMO) <= entries - 1


class TestAnnotation:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            SchemaAnnotation(complete_tables={"a"}, incomplete_tables={"a"})

    def test_is_complete(self, housing_mini_annotation):
        assert housing_mini_annotation.is_complete("neighborhood")
        assert not housing_mini_annotation.is_complete("apartment")
        with pytest.raises(KeyError):
            housing_mini_annotation.is_complete("ghost")

    def test_check_covers(self, housing_mini, housing_mini_annotation):
        housing_mini_annotation.check_covers(housing_mini)
        partial = SchemaAnnotation(complete_tables={"landlord"},
                                   incomplete_tables={"apartment"})
        with pytest.raises(ValueError):
            partial.check_covers(housing_mini)

    def test_tuple_factors_for(self, housing_mini):
        fk = housing_mini.fk_between("apartment", "neighborhood")
        ann = SchemaAnnotation(complete_tables={"neighborhood"},
                               incomplete_tables={"apartment"})
        assert ann.tuple_factors_for(fk, 2) is None
        ann.known_tuple_factors[str(fk)] = np.array([2, TF_UNKNOWN])
        np.testing.assert_array_equal(ann.tuple_factors_for(fk, 2), [2, TF_UNKNOWN])
        with pytest.raises(ValueError):
            ann.tuple_factors_for(fk, 3)


class TestTupleFactors:
    def test_observed_counts(self, housing_mini):
        fk = housing_mini.fk_between("apartment", "neighborhood")
        tfs = observed_tuple_factors(housing_mini, fk)
        np.testing.assert_array_equal(tfs, [2, 3])

    def test_zero_for_childless_parent(self, housing_mini):
        fk = housing_mini.fk_between("apartment", "landlord")
        apt = housing_mini.table("apartment").select(
            housing_mini.table("apartment")["landlord_id"] != 1
        )
        db = housing_mini.replace_table(apt)
        tfs = observed_tuple_factors(db, fk)
        np.testing.assert_array_equal(tfs, [0, 2, 2])

    def test_sentinel_children_ignored(self, housing_mini):
        apt = housing_mini.table("apartment").with_column(
            "neighborhood_id", [1, -1, 2, -1, 2], ColumnKind.KEY
        )
        db = housing_mini.replace_table(apt)
        fk = db.fk_between("apartment", "neighborhood")
        np.testing.assert_array_equal(observed_tuple_factors(db, fk), [1, 2])

    def test_annotated_unknowns(self, housing_mini):
        fk = housing_mini.fk_between("apartment", "neighborhood")
        tfs = annotated_tuple_factors(housing_mini, fk, np.array([True, False]))
        np.testing.assert_array_equal(tfs, [2, TF_UNKNOWN])

    def test_cap(self):
        tfs = np.array([0, 5, 12, TF_UNKNOWN])
        capped = cap_tuple_factors(tfs, cap=10)
        np.testing.assert_array_equal(capped, [0, 5, 10, TF_UNKNOWN])
        with pytest.raises(ValueError):
            cap_tuple_factors(tfs, cap=0)


class TestCompletionPaths:
    def test_direct_paths(self, housing_mini, housing_mini_annotation):
        paths = enumerate_completion_paths(housing_mini, housing_mini_annotation,
                                           "apartment")
        path_strs = {str(p) for p in paths}
        assert "landlord -> apartment" in path_strs
        assert "neighborhood -> apartment" in path_strs
        # landlord and neighborhood cannot chain through apartment (it is the
        # target), so only the two direct paths exist.
        assert len(paths) == 2

    def test_chain_path_through_state(self, star_db):
        ann = SchemaAnnotation(
            complete_tables={"state", "neighborhood", "school"},
            incomplete_tables={"apartment"},
        )
        paths = enumerate_completion_paths(star_db, ann, "apartment")
        path_strs = {str(p) for p in paths}
        assert "neighborhood -> apartment" in path_strs
        assert "state -> neighborhood -> apartment" in path_strs
        # Walking outward neighborhood -> school is 1:n (fan-out evidence):
        # schools may only enter through SSAR trees, not the evidence join.
        assert "school -> neighborhood -> apartment" not in path_strs

    def test_interior_fanout_excluded(self, star_db):
        # Every outward step (from the table adjacent to the target toward
        # the path root) must be n:1, i.e. never fan-out.
        ann = SchemaAnnotation(
            complete_tables={"state", "neighborhood", "school"},
            incomplete_tables={"apartment"},
        )
        for path in enumerate_completion_paths(star_db, ann, "apartment"):
            evidence = path.tables[:-1]
            for inner, outer in zip(evidence[::-1][:-1], evidence[::-1][1:]):
                assert not star_db.is_fan_out_step(inner, outer), str(path)

    def test_complete_target_rejected(self, housing_mini, housing_mini_annotation):
        with pytest.raises(ValueError):
            enumerate_completion_paths(housing_mini, housing_mini_annotation,
                                       "neighborhood")

    def test_path_validation(self):
        with pytest.raises(ValueError):
            CompletionPath(("a",))
        with pytest.raises(ValueError):
            CompletionPath(("a", "b", "a"))

    def test_sorted_shortest_first(self, star_db):
        ann = SchemaAnnotation(
            complete_tables={"state", "neighborhood", "school"},
            incomplete_tables={"apartment"},
        )
        paths = enumerate_completion_paths(star_db, ann, "apartment")
        lengths = [p.length for p in paths]
        assert lengths == sorted(lengths)


class TestFanOutRelations:
    def test_school_fanout_for_neighborhood_path(self, star_db):
        ann = SchemaAnnotation(
            complete_tables={"state", "neighborhood", "school"},
            incomplete_tables={"apartment"},
        )
        path = CompletionPath(("neighborhood", "apartment"))
        walks = fan_out_relations(star_db, ann, path)
        assert ("neighborhood", "school") in walks
        # Self-evidence: available apartments of the neighborhood.
        assert ("neighborhood", "apartment") in walks

    def test_self_evidence_toggle(self, star_db):
        ann = SchemaAnnotation(
            complete_tables={"state", "neighborhood", "school"},
            incomplete_tables={"apartment"},
        )
        path = CompletionPath(("neighborhood", "apartment"))
        walks = fan_out_relations(star_db, ann, path, include_self_evidence=False)
        assert ("neighborhood", "apartment") not in walks

    def test_path_tables_excluded(self, star_db):
        ann = SchemaAnnotation(
            complete_tables={"state", "neighborhood", "school"},
            incomplete_tables={"apartment"},
        )
        path = CompletionPath(("state", "neighborhood", "apartment"))
        walks = fan_out_relations(star_db, ann, path)
        # Walks start at state; neighborhood is on the path so its subtree is
        # excluded.
        assert all("neighborhood" not in walk[1:] for walk in walks)


class TestJoinOrder:
    def test_chain(self, star_db):
        order = join_order(star_db, ["state", "neighborhood", "apartment"])
        assert order == [("state", "neighborhood"), ("neighborhood", "apartment")]

    def test_disconnected_raises(self, star_db):
        with pytest.raises(ValueError):
            join_order(star_db, ["state", "apartment"])

    def test_single_table(self, star_db):
        assert join_order(star_db, ["state"]) == []
