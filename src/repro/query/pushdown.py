"""Predicate pushdown planning for query-driven partial completion.

The incompleteness join materializes one row per evidence combination along
a completion path; an AQP query then filters most of them away.  This
module classifies each conjunctive :class:`~repro.query.ast.Filter` of a
query against the path the selected model completes:

* **pre-walk** (``prune_slot == 0``) — decidable on observed base-table
  columns of the *root* evidence table.  Qualifying root rows are known
  before any model sampling, so non-qualifying rows (and whole chunks) are
  never walked at all.
* **mid-walk** (``0 < prune_slot < last``) — decidable once the hop that
  materializes the filter's table completes.  Non-qualifying walk rows are
  dropped there, skipping all downstream hops' sampling.
* **post-hoc** (``prune_slot == last``) — decidable only on the final
  table; rows are still dropped before concatenation/projection, but no
  sampling is saved.

Pruning is exact, not approximate: every walk row's sampled values are a
pure function of the seed and its lineage stream (:mod:`repro.runtime.rng`),
so removing a row never changes any other row.  Rows that survive pruning
are therefore bitwise identical to the corresponding rows of a full run at
the same seed, and the filtered aggregate equals post-hoc filtering of the
fully materialized join.

The one structural exception is the *dangling foreign key* machinery: rows
whose real FK references a removed parent are parked mid-walk and resolved
globally, conditioning the shared parent on a canonical representative
child.  Pruning rows *before* such a hop could remove the representative
and change the shared parent's tuple for rows that survive.  The planner
therefore bumps every filter's prune point past the last dangling-capable
hop on the path (:func:`dangling_hop_slots`), trading speedup for exactness
on those paths — parked sets become plan-independent, which is also what
lets the partial-completion cache reuse chunk outputs across plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..relational import Database
from ..relational.keys import child_index
from .ast import Filter, Query
from .executor import predicate_mask

#: Classification labels (reported in answer provenance and benchmarks).
KIND_PRE = "pre"
KIND_MID = "mid"
KIND_POST = "post"


@dataclass(frozen=True)
class PushedFilter:
    """One pushable predicate bound to its position on a completion path."""

    filter: Filter
    column: str        #: fully qualified ``table.col``
    table: str
    slot: int          #: path slot whose hop materializes the column
    prune_slot: int    #: slot after which rows may actually be dropped
    kind: str          #: ``pre`` / ``mid`` / ``post``

    def fingerprint(self) -> Tuple:
        return self.filter.fingerprint(self.column)


@dataclass(frozen=True)
class PushdownPlan:
    """A query's predicates classified against one completion path.

    ``pushed`` predicates are applied *during* the incompleteness join (at
    their ``prune_slot``); ``residual`` predicates could not be resolved to
    a unique path column and are left to post-hoc filtering.  The plan's
    :meth:`fingerprint` identifies exactly the row subset a chunk walked
    with this plan contains — the partial-completion cache keys on it.
    """

    path_tables: Tuple[str, ...]
    pushed: Tuple[PushedFilter, ...]
    residual: Tuple[Filter, ...]
    dangling_slots: Tuple[int, ...]

    @property
    def has_pushdown(self) -> bool:
        return bool(self.pushed)

    @property
    def has_root_filters(self) -> bool:
        return any(p.prune_slot == 0 for p in self.pushed)

    def fingerprint(self) -> Tuple:
        """Canonical, order-independent identity of the pushed predicates."""
        return tuple(sorted(p.fingerprint() for p in self.pushed))

    def fingerprint_set(self) -> FrozenSet[Tuple]:
        return frozenset(p.fingerprint() for p in self.pushed)

    def filters_at(self, slot: int) -> List[PushedFilter]:
        return [p for p in self.pushed if p.prune_slot == slot]

    def filters_not_in(self, fingerprints: FrozenSet[Tuple]) -> List[PushedFilter]:
        """Pushed filters a cached chunk (walked under ``fingerprints``) has
        not applied yet — the residual a subset-reuse must still enforce."""
        return [p for p in self.pushed if p.fingerprint() not in fingerprints]

    def mask_at(
        self, slot: int, columns: Dict[str, np.ndarray], num_rows: int
    ) -> Optional[np.ndarray]:
        """Conjunction of the slot's filters over a walk state's columns.

        ``None`` when no filter prunes at this slot (the caller skips the
        row copy entirely).
        """
        filters = self.filters_at(slot)
        if not filters:
            return None
        return conjunction_mask(columns, filters, num_rows)

    def counts_by_kind(self) -> Dict[str, int]:
        counts = {KIND_PRE: 0, KIND_MID: 0, KIND_POST: 0}
        for p in self.pushed:
            counts[p.kind] += 1
        return counts

    def describe(self) -> str:
        parts = [f"{p.filter} @slot{p.prune_slot}[{p.kind}]" for p in self.pushed]
        parts.extend(f"{f} [residual]" for f in self.residual)
        return "; ".join(parts) if parts else "(no predicates)"


def conjunction_mask(
    columns: Dict[str, np.ndarray],
    filters: Sequence[PushedFilter],
    num_rows: int,
) -> np.ndarray:
    """AND of pushed predicates over qualified column arrays."""
    mask = np.ones(num_rows, dtype=bool)
    for pushed in filters:
        mask &= predicate_mask(np.asarray(columns[pushed.column]), pushed.filter)
    return mask


def dangling_hop_slots(db: Database, path_tables: Sequence[str]) -> Tuple[int, ...]:
    """Slots of n:1 hops whose child table carries dangling real FKs.

    A real FK value with no matching parent row makes the hop park rows for
    globally resolved shared parents; pruning upstream of such a hop would
    perturb the canonical-representative choice (see module docstring).
    """
    slots: List[int] = []
    for slot in range(1, len(path_tables)):
        prev, new = path_tables[slot - 1], path_tables[slot]
        if db.is_fan_out_step(prev, new):
            continue
        fk = db.fk_between(prev, new)
        refs = np.asarray(db.table(fk.child_table)[fk.child_column])
        if ((child_index(db, fk).parent_of < 0) & (refs >= 0)).any():
            slots.append(slot)
    return tuple(slots)


def _resolve_filter_column(
    db: Database, query: Query, column: str
) -> Optional[Tuple[str, str]]:
    """``(table, qualified)`` for a filter column, mirroring
    :meth:`JoinResult.resolve` over the query's tables; ``None`` when the
    name is unknown or ambiguous (left residual — post-hoc filtering will
    raise the executor's own error)."""
    if "." in column:
        table, _col = column.split(".", 1)
        if table in query.tables and _col in db.table(table).column_names:
            return table, column
        return None
    matches = [
        table for table in query.tables
        if column in db.table(table).column_names
    ]
    if len(matches) != 1:
        return None
    return matches[0], f"{matches[0]}.{column}"


def plan_pushdown(
    db: Database, path_tables: Sequence[str], query: Query
) -> PushdownPlan:
    """Classify the query's predicates against a completion path.

    Every query table must lie on the path (the engine enforces coverage
    before planning).  Filters that do not resolve to a unique query-table
    column stay residual; everything else is pushed at
    ``max(its slot, last dangling-capable slot)``.
    """
    path = tuple(path_tables)
    missing = set(query.tables) - set(path)
    if missing:
        raise ValueError(
            f"completion path {path} does not cover query tables "
            f"{sorted(missing)}"
        )
    dangling = dangling_hop_slots(db, path)
    prune_floor = max(dangling) if dangling else 0
    last_slot = len(path) - 1

    pushed: List[PushedFilter] = []
    residual: List[Filter] = []
    for predicate in query.filters:
        resolved = _resolve_filter_column(db, query, predicate.column)
        if resolved is None:
            residual.append(predicate)
            continue
        table, qualified = resolved
        slot = path.index(table)
        prune_slot = max(slot, prune_floor)
        if prune_slot == 0:
            kind = KIND_PRE
        elif prune_slot == last_slot:
            kind = KIND_POST
        else:
            kind = KIND_MID
        pushed.append(
            PushedFilter(
                filter=predicate,
                column=qualified,
                table=table,
                slot=slot,
                prune_slot=prune_slot,
                kind=kind,
            )
        )
    return PushdownPlan(
        path_tables=path,
        pushed=tuple(pushed),
        residual=tuple(residual),
        dangling_slots=dangling,
    )
