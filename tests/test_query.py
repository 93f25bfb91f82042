"""Tests for the SPJA query engine: joins, filters, aggregation, SQL parsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryValidationError
from repro.query import (
    Aggregate,
    AggregateKind,
    Filter,
    FilterOp,
    JoinResult,
    Query,
    SQLSyntaxError,
    available_columns,
    execute,
    execute_on_join,
    join_tables,
    parse_query,
    resolve_query_columns,
    validate_query_columns,
)
from repro.workloads.queries import HOUSING_QUERIES, MOVIES_QUERIES


class TestJoin:
    def test_n_to_1_join(self, housing_mini):
        joined = join_tables(housing_mini, ["apartment", "neighborhood"])
        assert joined.num_rows == 5
        # Every apartment row pairs with its neighborhood's state.
        states = joined.resolve("neighborhood.state")
        assert list(states) == ["NYC", "NYC", "CA", "CA", "CA"]

    def test_1_to_n_join(self, housing_mini):
        joined = join_tables(housing_mini, ["neighborhood", "apartment"])
        assert joined.num_rows == 5

    def test_three_way_join(self, housing_mini):
        joined = join_tables(housing_mini, ["neighborhood", "apartment", "landlord"])
        assert joined.num_rows == 5
        ages = joined.resolve("landlord.age")
        np.testing.assert_allclose(sorted(ages), [50.0, 59.0, 59.0, 60.0, 60.0])

    def test_chain_join(self, star_db):
        joined = join_tables(star_db, ["state", "neighborhood", "apartment"])
        assert joined.num_rows == 2
        regions = set(joined.resolve("state.region"))
        assert regions == {"east", "west"}

    def test_missing_key_sentinel_drops_rows(self, housing_mini):
        apt = housing_mini.table("apartment").with_column(
            "landlord_id", [1, -1, 2, -1, 3],
            housing_mini.table("apartment").meta("landlord_id").kind,
        )
        db = housing_mini.replace_table(apt)
        joined = join_tables(db, ["apartment", "landlord"])
        assert joined.num_rows == 3

    def test_dangling_child_dropped(self, housing_mini):
        apt = housing_mini.table("apartment").with_column(
            "neighborhood_id", [1, 1, 2, 2, 42],
            housing_mini.table("apartment").meta("neighborhood_id").kind,
        )
        db = housing_mini.replace_table(apt)
        joined = join_tables(db, ["apartment", "neighborhood"])
        assert joined.num_rows == 4


class TestJoinResult:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            JoinResult({"a.x": np.zeros(2), "a.y": np.zeros(3)})

    def test_weight_alignment(self):
        with pytest.raises(ValueError):
            JoinResult({"a.x": np.zeros(2)}, weights=np.ones(3))

    def test_resolve_qualified_and_bare(self):
        jr = JoinResult({"t.x": np.array([1.0]), "u.y": np.array([2.0])})
        np.testing.assert_allclose(jr.resolve("t.x"), [1.0])
        np.testing.assert_allclose(jr.resolve("y"), [2.0])

    def test_resolve_ambiguous(self):
        jr = JoinResult({"t.x": np.array([1.0]), "u.x": np.array([2.0])})
        with pytest.raises(KeyError):
            jr.resolve("x")

    def test_resolve_missing(self):
        jr = JoinResult({"t.x": np.array([1.0])})
        with pytest.raises(KeyError):
            jr.resolve("nope")

    def test_select_carries_weights(self):
        jr = JoinResult({"t.x": np.arange(3.0)}, weights=np.array([1.0, 2.0, 3.0]))
        sub = jr.select(np.array([True, False, True]))
        np.testing.assert_allclose(sub.weights, [1.0, 3.0])

    def test_no_columns_counts_rows_from_weights(self):
        """A join holding no column (what COUNT(*) reads) keeps its rows."""
        jr = JoinResult({}, weights=np.array([1.0, 2.0, 3.0]))
        assert jr.num_rows == 3
        q = Query(("t",), Aggregate(AggregateKind.COUNT))
        assert execute_on_join(jr, q).scalar == 6.0
        assert jr.select(np.array([True, False, True])).num_rows == 2
        assert JoinResult({}).num_rows == 0


class TestAggregation:
    def test_count_avg_sum(self, housing_mini):
        q_count = Query(("apartment",), Aggregate(AggregateKind.COUNT))
        q_sum = Query(("apartment",), Aggregate(AggregateKind.SUM, "rent"))
        q_avg = Query(("apartment",), Aggregate(AggregateKind.AVG, "rent"))
        assert execute(housing_mini, q_count).scalar == 5
        assert execute(housing_mini, q_sum).scalar == pytest.approx(11200.0)
        assert execute(housing_mini, q_avg).scalar == pytest.approx(2240.0)

    def test_group_by(self, housing_mini):
        q = Query(("neighborhood", "apartment"),
                  Aggregate(AggregateKind.AVG, "rent"), group_by=("state",))
        result = execute(housing_mini, q)
        assert result[("NYC",)] == pytest.approx(2500.0)
        assert result[("CA",)] == pytest.approx(6200.0 / 3)

    def test_multi_group_by(self, housing_mini):
        q = Query(("neighborhood", "apartment"),
                  Aggregate(AggregateKind.COUNT),
                  group_by=("state", "room_type"))
        result = execute(housing_mini, q)
        assert result[("NYC", "entire")] == 1
        assert result[("CA", "private")] == 2

    def test_filters(self, housing_mini):
        q = Query(("apartment",), Aggregate(AggregateKind.COUNT),
                  filters=(Filter("room_type", FilterOp.EQ, "private"),))
        assert execute(housing_mini, q).scalar == 3

    def test_numeric_filters(self, housing_mini):
        q = Query(("apartment",), Aggregate(AggregateKind.COUNT),
                  filters=(Filter("rent", FilterOp.GE, 2000.0),
                           Filter("rent", FilterOp.LT, 3200.0)))
        assert execute(housing_mini, q).scalar == 3

    def test_in_filter(self, housing_mini):
        q = Query(("neighborhood",), Aggregate(AggregateKind.COUNT),
                  filters=(Filter("state", FilterOp.IN, ("NYC", "TX")),))
        assert execute(housing_mini, q).scalar == 1

    def test_ne_filter(self, housing_mini):
        q = Query(("apartment",), Aggregate(AggregateKind.COUNT),
                  filters=(Filter("room_type", FilterOp.NE, "private"),))
        assert execute(housing_mini, q).scalar == 2

    def test_weighted_aggregation(self):
        jr = JoinResult({"t.x": np.array([10.0, 20.0])}, weights=np.array([3.0, 1.0]))
        q_count = Query(("t",), Aggregate(AggregateKind.COUNT))
        q_avg = Query(("t",), Aggregate(AggregateKind.AVG, "x"))
        q_sum = Query(("t",), Aggregate(AggregateKind.SUM, "x"))
        assert execute_on_join(jr, q_count).scalar == 4.0
        assert execute_on_join(jr, q_avg).scalar == pytest.approx(12.5)
        assert execute_on_join(jr, q_sum).scalar == pytest.approx(50.0)

    def test_empty_group_dropped(self):
        jr = JoinResult({"t.g": np.array(["a", "b"]), "t.x": np.array([1.0, 2.0])},
                        weights=np.array([1.0, 0.0]))
        q = Query(("t",), Aggregate(AggregateKind.COUNT), group_by=("g",))
        result = execute_on_join(jr, q)
        assert ("b",) not in result.values

    def test_scalar_on_grouped_raises(self, housing_mini):
        q = Query(("neighborhood",), Aggregate(AggregateKind.COUNT),
                  group_by=("state",))
        result = execute(housing_mini, q)
        with pytest.raises(ValueError):
            _ = result.scalar

    def test_avg_empty_is_nan(self):
        jr = JoinResult({"t.x": np.array([], dtype=float)})
        q = Query(("t",), Aggregate(AggregateKind.AVG, "x"))
        assert np.isnan(execute_on_join(jr, q).scalar)


class TestQueryAST:
    def test_needs_tables(self):
        with pytest.raises(ValueError):
            Query((), Aggregate(AggregateKind.COUNT))

    def test_rejects_self_join(self):
        with pytest.raises(ValueError):
            Query(("t", "t"), Aggregate(AggregateKind.COUNT))

    def test_sum_needs_column(self):
        with pytest.raises(ValueError):
            Aggregate(AggregateKind.SUM)

    def test_in_needs_tuple(self):
        with pytest.raises(ValueError):
            Filter("x", FilterOp.IN, "single")

    def test_str_roundtrips_through_parser(self, housing_mini):
        q = Query(("neighborhood", "apartment"),
                  Aggregate(AggregateKind.AVG, "rent"),
                  filters=(Filter("room_type", FilterOp.EQ, "entire"),),
                  group_by=("state",))
        reparsed = parse_query(str(q))
        assert reparsed == q


class TestSQLParser:
    def test_count_star(self):
        q = parse_query("SELECT COUNT(*) FROM apartment;")
        assert q.aggregate.kind is AggregateKind.COUNT
        assert q.aggregate.column is None
        assert q.tables == ("apartment",)

    def test_full_query(self):
        q = parse_query(
            "SELECT AVG(price) FROM landlord NATURAL JOIN apartment "
            "WHERE room_type = 'Entire home/apt' AND landlord_since >= 2011 "
            "GROUP BY state, room_type;"
        )
        assert q.tables == ("landlord", "apartment")
        assert q.filters == (
            Filter("room_type", FilterOp.EQ, "Entire home/apt"),
            Filter("landlord_since", FilterOp.GE, 2011),
        )
        assert q.group_by == ("state", "room_type")

    def test_in_list(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE g IN ('a', 'b');")
        assert q.filters[0].op is FilterOp.IN
        assert q.filters[0].value == ("a", "b")

    def test_float_literal(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE x < 2.5;")
        assert q.filters[0].value == 2.5

    def test_negative_literal(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE x >= -3;")
        assert q.filters[0].value == -3

    def test_syntax_errors(self):
        for bad in [
            "SELECT FROM t",
            "SELECT MEDIAN(x) FROM t",
            "SELECT COUNT(*) FROM t WHERE x LIKE 'a'",
            "SELECT COUNT(*) FROM t GROUP x",
            "SELECT COUNT(*)",
            "SELECT COUNT(*) FROM t extra tokens",
        ]:
            with pytest.raises(SQLSyntaxError):
                parse_query(bad)

    def test_syntax_errors_are_query_validation_errors(self):
        """A malformed query is a taxonomy error (wire code
        ``query_invalid``) and still a ``ValueError``."""
        for bad in [
            "SELECT AVG(price FROM t",
            "SELECT SUM(*) FROM t",
            "SELECT COUNT(*) FROM t NATURAL JOIN t",
        ]:
            with pytest.raises(QueryValidationError) as err:
                parse_query(bad)
            assert isinstance(err.value, ValueError)
            assert err.value.code == "query_invalid"

    def test_executes_end_to_end(self, housing_mini):
        q = parse_query(
            "SELECT AVG(rent) FROM neighborhood NATURAL JOIN apartment "
            "GROUP BY state;"
        )
        result = execute(housing_mini, q)
        assert result[("NYC",)] == pytest.approx(2500.0)


class TestSQLParserFuzz:
    """Seeded mutations of the Table 1 SQL never escape the taxonomy."""

    MUTATIONS = 2000
    TOKENS = ("SELECT", "FROM", "WHERE", "AND", "GROUP", "BY", "NATURAL",
              "JOIN", "IN", "COUNT", "SUM", "AVG", "(", ")", "*", ",", ";",
              "'", ">=", "!=", "-7", "2.5", "id", "apartment")
    CHARS = "()*,;'=<>!-. _09azAZ\t\n\"%"

    def _mutate(self, rng, corpus):
        sql = corpus[int(rng.integers(len(corpus)))]
        at = int(rng.integers(len(sql) + 1))
        kind = int(rng.integers(4))
        if kind == 0:  # truncation
            return sql[:at]
        if kind == 1:  # insertion of a character or a token
            pieces = self.CHARS if rng.random() < 0.5 else self.TOKENS
            piece = pieces[int(rng.integers(len(pieces)))]
            return sql[:at] + piece + sql[at:]
        if kind == 2:  # deletion of a short span
            return sql[:at] + sql[at + int(rng.integers(1, 12)):]
        other = corpus[int(rng.integers(len(corpus)))]  # splice
        return sql[:at] + other[int(rng.integers(len(other) + 1)):]

    def test_mutated_table1_sql_parses_or_raises_query_validation_error(self):
        corpus = [sql for _setup, sql in
                  (*HOUSING_QUERIES.values(), *MOVIES_QUERIES.values())]
        assert len(corpus) == 20
        rng = np.random.default_rng(19)
        rejected = 0
        for _ in range(self.MUTATIONS):
            sql = self._mutate(rng, corpus)
            try:
                parse_query(sql)
            except QueryValidationError:
                rejected += 1
            except Exception as exc:
                pytest.fail(f"{sql!r} raised {type(exc).__name__}: {exc}")
        # The mutations reach the error paths, and not only them.
        assert 0 < rejected < self.MUTATIONS


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
           st.lists(st.floats(0.01, 5), min_size=1, max_size=30))
    def test_weighted_avg_between_min_max(self, values, weights):
        n = min(len(values), len(weights))
        jr = JoinResult({"t.x": np.array(values[:n])}, weights=np.array(weights[:n]))
        q = Query(("t",), Aggregate(AggregateKind.AVG, "x"))
        avg = execute_on_join(jr, q).scalar
        assert min(values[:n]) - 1e-9 <= avg <= max(values[:n]) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=40))
    def test_groupby_counts_total(self, groups):
        jr = JoinResult({"t.g": np.array(groups, dtype=object)})
        q = Query(("t",), Aggregate(AggregateKind.COUNT), group_by=("g",))
        result = execute_on_join(jr, q)
        assert sum(result.values.values()) == len(groups)


class TestColumnValidation:
    """validate_query_columns: admission-time checks with clear errors."""

    def test_valid_queries_pass(self, housing_mini):
        validate_query_columns(housing_mini, parse_query(
            "SELECT AVG(rent) FROM apartment NATURAL JOIN neighborhood "
            "WHERE state = 'CA' GROUP BY room_type;"
        ))
        validate_query_columns(housing_mini, parse_query(
            "SELECT AVG(apartment.rent) FROM apartment;"
        ))

    def test_unknown_column_lists_candidates(self, housing_mini):
        query = parse_query("SELECT AVG(price) FROM apartment;")
        with pytest.raises(ValueError) as err:
            validate_query_columns(housing_mini, query)
        message = str(err.value)
        assert "price" in message and "apartment.rent" in message
        assert not isinstance(err.value, KeyError)

    def test_unknown_table_lists_tables(self, housing_mini):
        query = parse_query("SELECT COUNT(*) FROM nowhere;")
        with pytest.raises(ValueError, match="nowhere"):
            validate_query_columns(housing_mini, query)
        with pytest.raises(ValueError, match="apartment"):
            validate_query_columns(housing_mini, query)

    def test_ambiguous_column_requires_qualification(self, housing_mini):
        query = parse_query(
            "SELECT COUNT(*) FROM apartment NATURAL JOIN neighborhood "
            "WHERE id = 1;"
        )
        with pytest.raises(ValueError, match="ambiguous"):
            validate_query_columns(housing_mini, query)

    def test_resolve_returns_each_qualified_column_once(self, housing_mini):
        query = parse_query(
            "SELECT AVG(rent) FROM apartment NATURAL JOIN neighborhood "
            "WHERE apartment.rent > 1 AND state = 'CA' GROUP BY state;"
        )
        assert resolve_query_columns(housing_mini, query) == [
            "apartment.rent", "neighborhood.state",
        ]
        count = parse_query("SELECT COUNT(*) FROM apartment;")
        assert resolve_query_columns(housing_mini, count) == []

    def test_available_columns_are_qualified(self, housing_mini):
        columns = available_columns(housing_mini, ["neighborhood"])
        assert columns == [
            "neighborhood.id", "neighborhood.state", "neighborhood.pop_density",
        ]
