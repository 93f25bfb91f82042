"""Query AST for the SPJA workload class supported by ReStore.

Paper §2.2: acyclic select-project-join-aggregate queries with equi-joins
along foreign keys, arbitrary filter predicates, COUNT/SUM/AVG aggregates and
any number of group-by attributes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

Value = Union[str, int, float]


class AggregateKind(enum.Enum):
    COUNT = "count"
    SUM = "sum"
    AVG = "avg"


class FilterOp(enum.Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    IN = "in"


@dataclass(frozen=True)
class Aggregate:
    """One aggregate expression, e.g. ``AVG(price)`` or ``COUNT(*)``."""

    kind: AggregateKind
    column: Optional[str] = None  # None only valid for COUNT(*)

    def __post_init__(self) -> None:
        if self.kind is not AggregateKind.COUNT and self.column is None:
            raise ValueError(f"{self.kind.value.upper()} requires a column")

    def __str__(self) -> str:
        return f"{self.kind.value.upper()}({self.column or '*'})"


@dataclass(frozen=True)
class Filter:
    """One predicate ``column op value`` (value is a tuple for IN)."""

    column: str
    op: FilterOp
    value: Union[Value, Tuple[Value, ...]]

    def __post_init__(self) -> None:
        if self.op is FilterOp.IN and not isinstance(self.value, tuple):
            raise ValueError("IN filters take a tuple of values")

    def fingerprint(self, column: Optional[str] = None) -> Tuple:
        """Canonical hashable identity of this predicate.

        ``column`` substitutes the fully qualified column name when the
        caller has resolved it (two spellings of the same predicate —
        ``price`` vs ``apartment.price`` — then share one fingerprint).
        The partial-completion cache keys chunk reuse on sets of these.
        """
        value = self.value if isinstance(self.value, tuple) else (self.value,)
        return (column or self.column, self.op.value, tuple(sorted(map(repr, value))))

    def __str__(self) -> str:
        return f"{self.column} {self.op.value} {self.value!r}"


@dataclass(frozen=True)
class Query:
    """A complete SPJA query.

    Attributes
    ----------
    tables:
        Tables joined along foreign keys (order irrelevant; the executor
        derives a join order).  A single entry means no join.
    aggregate:
        The aggregate to compute.
    filters:
        Conjunctive predicates applied after the join.
    group_by:
        Grouping attributes (possibly empty).
    """

    tables: Tuple[str, ...]
    aggregate: Aggregate
    filters: Tuple[Filter, ...] = ()
    group_by: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError("a query needs at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise ValueError("duplicate tables in query (self-joins unsupported)")

    def columns_referenced(self) -> List[str]:
        cols = [f.column for f in self.filters]
        cols.extend(self.group_by)
        if self.aggregate.column:
            cols.append(self.aggregate.column)
        return cols

    def __str__(self) -> str:
        sql = f"SELECT {self.aggregate} FROM {' NATURAL JOIN '.join(self.tables)}"
        if self.filters:
            sql += " WHERE " + " AND ".join(str(f) for f in self.filters)
        if self.group_by:
            sql += " GROUP BY " + ", ".join(self.group_by)
        return sql


GroupKey = Tuple[Value, ...]


@dataclass
class QueryResult:
    """Aggregate values per group; the empty tuple keys ungrouped results."""

    values: Dict[GroupKey, float] = field(default_factory=dict)

    @property
    def scalar(self) -> float:
        """The single value of an ungrouped query."""
        if list(self.values.keys()) != [()]:
            raise ValueError("result is grouped; no scalar value")
        return self.values[()]

    def groups(self) -> List[GroupKey]:
        return list(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, key: GroupKey) -> float:
        return self.values[key]
