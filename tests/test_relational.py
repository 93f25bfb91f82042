"""Tests for tables, schemas, tuple factors and schema-graph walks."""

import numpy as np
import pytest

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
        with pytest.raises(ValueError):
            t.key_index()

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

    def test_key_index(self):
        t = Table("t", {"id": [7, 3]}, {"id": K})
        assert t.key_index() == {7: 0, 3: 1}

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
