"""A small SQL front-end for the restricted SPJA grammar of the paper.

Supports exactly the query shape used throughout ReStore's evaluation
(Table 1):

.. code-block:: sql

    SELECT AVG(price) FROM neighborhood NATURAL JOIN apartment
    WHERE room_type = 'Entire home/apt' AND landlord_since >= 2011
    GROUP BY state;

Joins are NATURAL JOINs along declared foreign keys (the executor resolves
the join order), predicates are conjunctive comparisons or IN-lists, and the
single select item is COUNT(*)/COUNT(col)/SUM(col)/AVG(col).
"""

from __future__ import annotations

import re
from typing import List, Union

from ..errors import QueryValidationError
from .ast import Aggregate, AggregateKind, Filter, FilterOp, Query

_TOKEN_RE = re.compile(
    r"""
    \s*(
        '(?:[^']*)'            # single-quoted string
      | >=|<=|!=|=|>|<|\(|\)|,|;|\*
      | [A-Za-z_][A-Za-z0-9_.]*
      | -?\d+\.\d+|-?\d+
    )
    """,
    re.VERBOSE,
)


class SQLSyntaxError(QueryValidationError):
    """Raised when a query string does not match the supported grammar.

    A :class:`~repro.errors.QueryValidationError` (so still a
    ``ValueError``): a malformed query crosses the serving wire as
    ``query_invalid``, like a query naming an unknown column.
    """


def _tokenize(sql: str) -> List[str]:
    tokens = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            if sql[pos:].strip() == "":
                break
            raise SQLSyntaxError(f"cannot tokenize at: {sql[pos:pos + 20]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def next(self) -> str:
        token = self.peek()
        if not token:
            raise SQLSyntaxError("unexpected end of query")
        self.pos += 1
        return token

    def expect_keyword(self, keyword: str) -> None:
        token = self.next()
        if token.upper() != keyword.upper():
            raise SQLSyntaxError(f"expected {keyword!r}, got {token!r}")

    def at_keyword(self, keyword: str) -> bool:
        return self.peek().upper() == keyword.upper()


def _parse_value(token: str) -> Union[str, int, float]:
    if token.startswith("'"):
        return token[1:-1]
    if re.fullmatch(r"-?\d+", token):
        return int(token)
    if re.fullmatch(r"-?\d+\.\d+", token):
        return float(token)
    raise SQLSyntaxError(f"expected a literal, got {token!r}")


_OPS = {
    "=": FilterOp.EQ,
    "!=": FilterOp.NE,
    "<": FilterOp.LT,
    "<=": FilterOp.LE,
    ">": FilterOp.GT,
    ">=": FilterOp.GE,
}


def parse_query(sql: str) -> Query:
    """Parse one SPJA statement into a :class:`~repro.query.ast.Query`."""
    parser = _Parser(_tokenize(sql))
    parser.expect_keyword("SELECT")

    agg_name = parser.next().upper()
    try:
        kind = AggregateKind[agg_name]
    except KeyError as exc:
        raise SQLSyntaxError(f"unsupported aggregate {agg_name!r}") from exc
    parser.expect_keyword("(")
    target = parser.next()
    column = None if target == "*" else target
    parser.expect_keyword(")")

    parser.expect_keyword("FROM")
    tables = [parser.next()]
    while parser.at_keyword("NATURAL"):
        parser.expect_keyword("NATURAL")
        parser.expect_keyword("JOIN")
        tables.append(parser.next())

    filters: List[Filter] = []
    if parser.at_keyword("WHERE"):
        parser.expect_keyword("WHERE")
        while True:
            filters.append(_parse_predicate(parser))
            if parser.at_keyword("AND"):
                parser.expect_keyword("AND")
                continue
            break

    group_by: List[str] = []
    if parser.at_keyword("GROUP"):
        parser.expect_keyword("GROUP")
        parser.expect_keyword("BY")
        group_by.append(parser.next())
        while parser.peek() == ",":
            parser.next()
            group_by.append(parser.next())

    if parser.peek() == ";":
        parser.next()
    if parser.peek():
        raise SQLSyntaxError(f"trailing tokens: {parser.tokens[parser.pos:]}")

    try:
        return Query(
            tables=tuple(tables),
            aggregate=Aggregate(kind, column),
            filters=tuple(filters),
            group_by=tuple(group_by),
        )
    except ValueError as exc:  # SUM(*), a table joined to itself
        raise SQLSyntaxError(str(exc)) from exc


def _parse_predicate(parser: _Parser) -> Filter:
    column = parser.next()
    op_token = parser.next()
    if op_token.upper() == "IN":
        parser.expect_keyword("(")
        values: List[Union[str, int, float]] = [_parse_value(parser.next())]
        while parser.peek() == ",":
            parser.next()
            values.append(_parse_value(parser.next()))
        parser.expect_keyword(")")
        return Filter(column, FilterOp.IN, tuple(values))
    if op_token not in _OPS:
        raise SQLSyntaxError(f"unsupported operator {op_token!r}")
    return Filter(column, _OPS[op_token], _parse_value(parser.next()))
