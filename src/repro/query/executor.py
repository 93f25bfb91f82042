"""SPJA execution: FK hash joins, predicate evaluation, grouped aggregation.

The executor operates on :class:`JoinResult` — a flat, column-oriented view
of a (possibly completed) join with qualified column names and optional
per-row weights.  ReStore's incompleteness join produces the same structure,
so the downstream filter/aggregate pipeline is shared between ground-truth
execution, incomplete-data execution and completed-data execution, exactly
as in the paper ("once data is completed for a join, we use normal query
operators").

Row weights generalize plain execution: synthesized rows may carry
fractional multiplicities when completion paths introduce fan-out
reweighting (§4.4); COUNT sums weights, SUM sums ``weight * value`` and AVG
is the weighted mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import QueryValidationError
from ..relational import Database, DictColumn, StoreColumns, join_order
from ..relational.keys import child_index, gather_children
from .ast import Aggregate, AggregateKind, Filter, FilterOp, GroupKey, Query, QueryResult


def _column_matches(names: Collection[str], column: str) -> List[str]:
    """The qualified names among ``names`` that ``column`` refers to.

    The one resolution rule of the package: an exact qualified name matches
    itself alone; otherwise every name whose column part equals ``column``
    matches.  One match resolves; no match or several is the caller's
    error to raise.
    """
    if column in names:
        return [column]
    return [name for name in names if name.split(".", 1)[-1] == column]


@dataclass
class JoinResult:
    """A materialized join: qualified columns plus optional row weights.

    A join may hold only the columns a query reads, or none at all (a
    ``COUNT(*)``); its row count then comes from the weights.  Columns
    over a store (:class:`~repro.relational.StoreColumns`) count their
    rows from it, reading none.
    """

    columns: Dict[str, np.ndarray]
    weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if isinstance(self.columns, StoreColumns):
            lengths = {self.columns.store.num_rows} if self.columns else set()
        else:
            lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged join result: lengths {sorted(lengths)}")
        if lengths:
            self._num_rows = lengths.pop()
        else:
            self._num_rows = len(self.weights) if self.weights is not None else 0
        if self.weights is not None and len(self.weights) != self._num_rows:
            raise ValueError("weights must align with join rows")

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def effective_weights(self) -> np.ndarray:
        if self.weights is None:
            return np.ones(self._num_rows)
        return np.asarray(self.weights, dtype=float)

    def resolve(self, column: str) -> np.ndarray:
        """Find a column by qualified or unambiguous unqualified name."""
        matches = _column_matches(self.columns, column)
        if not matches:
            raise KeyError(f"no column {column!r} in join ({sorted(self.columns)})")
        if len(matches) > 1:
            raise KeyError(f"ambiguous column {column!r}: {matches}")
        return self.columns[matches[0]]

    def select(self, mask: np.ndarray) -> "JoinResult":
        mask = np.asarray(mask, dtype=bool)
        cols = {name: arr[mask] for name, arr in self.columns.items()}
        weights = self.weights[mask] if self.weights is not None else None
        return JoinResult(cols, weights)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

def available_columns(db: Database, tables: Sequence[str]) -> List[str]:
    """Qualified column names a query over ``tables`` may reference.

    Unknown table names raise ``ValueError`` listing the database's tables.
    """
    known = set(db.table_names())
    unknown = [t for t in tables if t not in known]
    if unknown:
        raise QueryValidationError(
            f"query references unknown table(s) {sorted(unknown)}; "
            f"available tables: {sorted(known)}"
        )
    return [
        f"{table}.{column}"
        for table in tables
        for column in db.table(table).column_names
    ]


def resolve_query_columns(db: Database, query: Query) -> List[str]:
    """The qualified name of every column ``query`` reads, each once.

    Names resolve by :func:`_column_matches` against the query's tables, the
    rule :meth:`JoinResult.resolve` applies to a materialized join, so a
    join holding just these columns answers the query.  Raises
    :class:`~repro.errors.QueryValidationError` — never a raw ``KeyError``
    from deep inside the executor — naming the offending table or column
    and listing the candidates.
    """
    candidates = available_columns(db, query.tables)
    resolved: Dict[str, None] = {}
    for column in query.columns_referenced():
        matches = _column_matches(candidates, column)
        if len(matches) > 1:
            raise QueryValidationError(
                f"column {column!r} is ambiguous across {sorted(matches)}; "
                f"qualify it as one of them"
            )
        if not matches:
            raise QueryValidationError(
                f"query references unknown column {column!r}; "
                f"candidate columns: {sorted(candidates)}"
            )
        resolved[matches[0]] = None
    return list(resolved)


def validate_query_columns(db: Database, query: Query) -> None:
    """Check every column the query references resolves in its tables.

    Raises like :func:`resolve_query_columns`, so admission layers (the
    completion service) can reject bad queries before any completion work
    is spent.
    """
    resolve_query_columns(db, query)


# ----------------------------------------------------------------------
# Join
# ----------------------------------------------------------------------

def join_tables(db: Database, tables: Sequence[str]) -> JoinResult:
    """Inner equi-join of ``tables`` along their foreign keys.

    Negative key values (the missing-key sentinel of synthesized tuples)
    never match, so partially synthesized data joins conservatively.  Rows
    keep the first table's order; each row's children follow in ascending
    row position (:mod:`repro.relational.keys`).
    """
    tables = list(tables)
    first = tables[0]
    row_idx: Dict[str, np.ndarray] = {
        first: np.arange(len(db.table(first)), dtype=np.int64)
    }

    for anchor, new in join_order(db, tables):
        fk = db.fk_between(anchor, new)
        if fk.child_table == anchor:
            row_idx = _join_to_parent(db, row_idx, anchor, new, fk)
        else:
            row_idx = _join_to_children(db, row_idx, anchor, new, fk)

    columns: Dict[str, np.ndarray] = {}
    for table_name in tables:
        table = db.table(table_name)
        idx = row_idx[table_name]
        for col in table.column_names:
            columns[f"{table_name}.{col}"] = table[col][idx]
    return JoinResult(columns)


def _join_to_parent(db, row_idx, anchor, new, fk):
    """n:1 hop — each current row keeps at most one partner."""
    positions = child_index(db, fk).parent_of[row_idx[anchor]]
    keep = positions >= 0
    out = {name: idx[keep] for name, idx in row_idx.items()}
    out[new] = positions[keep]
    return out


def _join_to_children(db, row_idx, anchor, new, fk):
    """1:n hop — each current row expands to all of its children, listed
    in ascending row position."""
    child_rows, owners = gather_children(child_index(db, fk), row_idx[anchor])
    out = {name: idx[owners] for name, idx in row_idx.items()}
    out[new] = child_rows
    return out


# ----------------------------------------------------------------------
# Filters
# ----------------------------------------------------------------------

_OPS = {
    FilterOp.EQ: lambda col, v: col == v,
    FilterOp.NE: lambda col, v: col != v,
    FilterOp.LT: lambda col, v: col < v,
    FilterOp.LE: lambda col, v: col <= v,
    FilterOp.GT: lambda col, v: col > v,
    FilterOp.GE: lambda col, v: col >= v,
}


def predicate_mask(col, predicate: Filter) -> np.ndarray:
    """Boolean mask of one predicate over a column array.

    The single evaluation rule shared by post-hoc filtering and the
    pushdown planner (:mod:`repro.query.pushdown`) — pruning a walk row
    mid-join and filtering the materialized join must agree bitwise.  A
    :class:`~repro.relational.DictColumn` is evaluated once per vocabulary
    value and gathered by codes: the comparisons are elementwise, so that
    gives the bits evaluating the decoded values would.
    """
    if isinstance(col, DictColumn):
        on_vocab = predicate_mask(col.vocab, predicate)
        return np.broadcast_to(on_vocab, col.vocab.shape)[col.codes]
    if predicate.op is FilterOp.IN:
        sub = np.zeros(len(col), dtype=bool)
        for value in predicate.value:  # type: ignore[union-attr]
            sub |= col == value
        return sub
    return np.asarray(_OPS[predicate.op](col, predicate.value), dtype=bool)


def filter_mask(joined: JoinResult, filters: Sequence[Filter]) -> np.ndarray:
    """Conjunction of all predicates as a boolean row mask."""
    mask = np.ones(joined.num_rows, dtype=bool)
    for predicate in filters:
        mask &= predicate_mask(joined.resolve(predicate.column), predicate)
    return mask


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def aggregate(
    joined: JoinResult,
    agg: Aggregate,
    group_by: Sequence[str] = (),
) -> QueryResult:
    """Weighted grouped aggregation over a (filtered) join."""
    weights = joined.effective_weights()
    if agg.column is not None:
        values = np.asarray(joined.resolve(agg.column), dtype=float)
    else:
        values = np.ones(joined.num_rows)

    if not group_by:
        return QueryResult({(): _reduce(agg.kind, values, weights)})

    group_cols = [joined.resolve(col) for col in group_by]
    codes, uniques = _group_codes(group_cols)
    num_groups = len(uniques)
    result: Dict[GroupKey, float] = {}
    w_sum = np.bincount(codes, weights=weights, minlength=num_groups)
    wx_sum = np.bincount(codes, weights=weights * values, minlength=num_groups)
    for g, key in enumerate(uniques):
        if w_sum[g] == 0:
            continue
        if agg.kind is AggregateKind.COUNT:
            result[key] = float(w_sum[g])
        elif agg.kind is AggregateKind.SUM:
            result[key] = float(wx_sum[g])
        else:
            result[key] = float(wx_sum[g] / w_sum[g])
    return QueryResult(result)


def _reduce(kind: AggregateKind, values: np.ndarray, weights: np.ndarray) -> float:
    total_weight = float(weights.sum())
    if kind is AggregateKind.COUNT:
        return total_weight
    weighted = float((values * weights).sum())
    if kind is AggregateKind.SUM:
        return weighted
    if total_weight == 0:
        return float("nan")
    return weighted / total_weight


def _group_codes(group_cols: List[np.ndarray]) -> Tuple[np.ndarray, List[GroupKey]]:
    """Encode multi-column group keys as dense integer codes."""
    per_col_codes = []
    per_col_values = []
    for col in group_cols:
        uniq, inverse = np.unique(col, return_inverse=True)
        per_col_codes.append(inverse)
        per_col_values.append(uniq)
    combined = per_col_codes[0].astype(np.int64)
    for codes, uniq in zip(per_col_codes[1:], per_col_values[1:]):
        combined = combined * len(uniq) + codes
    final_uniq, final_codes = np.unique(combined, return_inverse=True)
    keys: List[GroupKey] = []
    for combo in final_uniq:
        parts = []
        remainder = int(combo)
        for uniq in reversed(per_col_values[1:]):
            remainder, part = divmod(remainder, len(uniq))
            parts.append(uniq[part])
        parts.append(per_col_values[0][remainder])
        keys.append(tuple(_to_python(v) for v in reversed(parts)))
    return final_codes, keys


def _to_python(value):
    """Convert numpy scalars to plain python for stable dict keys."""
    if isinstance(value, np.generic):
        return value.item()
    return value


# ----------------------------------------------------------------------
# End-to-end helpers
# ----------------------------------------------------------------------

def execute(db: Database, query: Query) -> QueryResult:
    """Join, filter and aggregate ``query`` directly against ``db``."""
    joined = join_tables(db, query.tables)
    return execute_on_join(joined, query)


def execute_on_join(joined: JoinResult, query: Query) -> QueryResult:
    """Filter and aggregate a pre-computed (possibly completed) join."""
    mask = filter_mask(joined, query.filters)
    return aggregate(joined.select(mask), query.aggregate, query.group_by)
