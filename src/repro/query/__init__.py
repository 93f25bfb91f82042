"""SPJA query engine: AST, SQL front-end, hash-join executor."""

from .ast import (
    Aggregate,
    AggregateKind,
    Filter,
    FilterOp,
    GroupKey,
    Query,
    QueryResult,
)
from .executor import (
    JoinResult,
    aggregate,
    available_columns,
    execute,
    execute_on_join,
    filter_mask,
    join_tables,
    predicate_mask,
    resolve_query_columns,
    validate_query_columns,
)
from .pushdown import (
    PushdownPlan,
    PushedFilter,
    dangling_hop_slots,
    plan_pushdown,
)
from .sql import SQLSyntaxError, parse_query

__all__ = [
    "Aggregate",
    "AggregateKind",
    "Filter",
    "FilterOp",
    "GroupKey",
    "Query",
    "QueryResult",
    "JoinResult",
    "join_tables",
    "filter_mask",
    "predicate_mask",
    "aggregate",
    "PushdownPlan",
    "PushedFilter",
    "plan_pushdown",
    "dangling_hop_slots",
    "execute",
    "execute_on_join",
    "available_columns",
    "resolve_query_columns",
    "validate_query_columns",
    "parse_query",
    "SQLSyntaxError",
]
