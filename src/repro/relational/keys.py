"""Foreign-key resolution: the one place an FK value finds its row.

Every join of the package rests on two primitives over a
:class:`~repro.relational.schema.ForeignKey`:

* :func:`match_keys` — the n:1 direction: the parent row each reference
  points at;
* :func:`build_child_index` + :func:`gather_children` — the 1:n direction:
  the children of each parent row, as a CSR adjacency, plus each child's
  parent row (:attr:`ChildIndex.parent_of`).

Consumers do not call the builders themselves: :func:`child_index` and
:func:`lookup` memoize, per :class:`~repro.relational.schema.Database`,
one :class:`ChildIndex` per foreign key and one stable sort order per key
column, so each is built at most once per database.

Semantics shared by all of them: negative references (the missing-key
sentinel of synthesized tuples) never match, and parent keys are unique
(every foreign key targets its parent's primary key, which
:class:`~repro.relational.schema.Database` checks).
:func:`gather_children` lists each parent's children in ascending row
position, which fixes the row order of
:func:`~repro.query.executor.join_tables` and so of every training matrix.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Hashable, Optional, Tuple, TypeVar

import numpy as np

if TYPE_CHECKING:  # schema imports this module (validate_references)
    from .schema import Database, ForeignKey

_T = TypeVar("_T")


@dataclass
class ChildIndex:
    """CSR adjacency from parent rows to child rows along one foreign key."""

    fk: "ForeignKey"
    child_rows: np.ndarray   # child row positions, grouped by parent
    offsets: np.ndarray      # (num_parents + 1,) start offsets into child_rows
    parent_of: np.ndarray    # parent row of each child row, -1 if negative/dangling

    def __post_init__(self) -> None:
        # A memoized index is shared by every caller: a write would corrupt it.
        for array in (self.child_rows, self.offsets, self.parent_of):
            array.flags.writeable = False

    def children_of(self, parent_row: int) -> np.ndarray:
        return self.child_rows[self.offsets[parent_row]:self.offsets[parent_row + 1]]

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)


def match_keys(
    parent_keys: np.ndarray,
    refs: np.ndarray,
    key_order: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Row position in ``parent_keys`` for each ref, ``-1`` where unmatched.

    Negative refs (sentinels) never match.  ``key_order`` optionally supplies
    a precomputed stable argsort of ``parent_keys`` so repeated lookups
    against the same table (e.g. chunked joins) skip the sort.
    """
    parent_keys = np.asarray(parent_keys)
    refs = np.asarray(refs)
    if key_order is None:
        key_order = np.argsort(parent_keys, kind="stable")
    if len(parent_keys) == 0:
        return np.full(len(refs), -1, dtype=np.int64)
    sorted_keys = parent_keys[key_order]
    pos = np.clip(np.searchsorted(sorted_keys, refs), 0, len(sorted_keys) - 1)
    matched = (sorted_keys[pos] == refs) & (refs >= 0)
    return np.where(matched, key_order[pos], -1).astype(np.int64)


def build_child_index(db: "Database", fk: "ForeignKey") -> ChildIndex:
    """Index child rows by parent row position for one relationship."""
    parent = db.table(fk.parent_table)
    child = db.table(fk.child_table)
    parent_rows = match_keys(parent[fk.parent_column], child[fk.child_column])

    valid_children = np.flatnonzero(parent_rows >= 0)
    owner = parent_rows[valid_children]
    order = np.argsort(owner, kind="stable")
    grouped_children = valid_children[order]
    counts = np.bincount(owner, minlength=len(parent))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return ChildIndex(
        fk, grouped_children.astype(np.int64), offsets.astype(np.int64),
        parent_rows,
    )


def gather_children(
    index: ChildIndex, parent_rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Children of each listed parent, plus batch-position parent ids.

    Parents may repeat and come in any order.  One CSR gather: output slot
    ``j`` of parent ``i`` reads ``child_rows[starts[i] + j - out_start[i]]``,
    so the positions are an ``arange`` shifted per parent.
    """
    starts = index.offsets[parent_rows]
    counts = index.offsets[parent_rows + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    positions = np.arange(total, dtype=np.int64) + np.repeat(
        starts - (ends - counts), counts
    )
    child_rows = index.child_rows[positions]
    parent_ids = np.repeat(np.arange(len(parent_rows), dtype=np.int64), counts)
    return child_rows, parent_ids


# A Database is never written in place: every change (Database.replace_table,
# repro.incremental.apply_mutations) builds a new one, and no caller writes
# into a column array.  So an entry keyed by the database object never goes
# stale and nothing invalidates it; it dies with its database.  Nothing is
# stored on the database itself, which therefore pickles unchanged.
#
# Each entry also names the key columns it was built from, with a weak
# reference to each column's array as the build read it.  A database that
# Database.copy or Database.replace_table derives from another one inherits
# every entry whose columns are the very same array objects there: since no
# array is written in place, the same array holds the same keys.  A mapped
# column's read_full returns a fresh map on every call (its reference is
# dead once the build drops it), so an entry over mapped columns never
# carries over.
_MEMO: "weakref.WeakKeyDictionary[Database, Dict[Hashable, _Entry]]" = (
    weakref.WeakKeyDictionary()
)
_MEMO_LOCK = threading.Lock()


@dataclass(frozen=True)
class _Entry:
    value: object
    #: (table, column, weak reference to the array the build read)
    sources: Tuple[Tuple[str, str, "weakref.ref"], ...]


def _memoized(
    db: "Database",
    key: Hashable,
    columns: Tuple[Tuple[str, str], ...],
    build: Callable[[], _T],
) -> _T:
    """``build()`` once per ``(db, key)``; ``build`` reads ``columns``.

    The value is built outside the lock, so concurrent first callers may
    each build one; they compute equal arrays, and the first one stored wins.
    """
    with _MEMO_LOCK:
        entries = _MEMO.get(db)
        if entries is not None and key in entries:
            return entries[key].value
    sources = tuple(
        (table, column, weakref.ref(db.table(table).column(column)))
        for table, column in columns
    )
    entry = _Entry(build(), sources)
    with _MEMO_LOCK:
        return _MEMO.setdefault(db, {}).setdefault(key, entry).value


def carry_over(old: "Database", new: "Database") -> None:
    """Hand ``old``'s memo entries to ``new`` where every key column an
    entry was built from is the same array object in ``new``."""
    with _MEMO_LOCK:
        entries = dict(_MEMO.get(old, {}))
    kept = {
        key: entry for key, entry in entries.items()
        if all(_same_array(new, table, column, ref)
               for table, column, ref in entry.sources)
    }
    if kept:
        with _MEMO_LOCK:
            current = _MEMO.setdefault(new, {})
            for key, entry in kept.items():
                current.setdefault(key, entry)


def _same_array(db: "Database", table: str, column: str, ref) -> bool:
    array = ref()
    if array is None or table not in db.tables or column not in db.tables[table]:
        return False
    return db.tables[table].column(column) is array


def child_index(db: "Database", fk: "ForeignKey") -> ChildIndex:
    """The database's :class:`ChildIndex` for ``fk``, built on first use."""
    columns = (
        (fk.parent_table, fk.parent_column), (fk.child_table, fk.child_column),
    )
    return _memoized(
        db, ("child", fk), columns, lambda: build_child_index(db, fk)
    )


def lookup(db: "Database", table: str, column: str, refs: np.ndarray) -> np.ndarray:
    """:func:`match_keys` of ``refs`` against ``table.column``, with the
    column's stable sort order built once per database."""
    keys = db.table(table)[column]
    order = _memoized(
        db, ("order", table, column), ((table, column),),
        lambda: np.argsort(keys, kind="stable"),
    )
    return match_keys(keys, refs, key_order=order)


__all__ = [
    "ChildIndex",
    "build_child_index",
    "carry_over",
    "child_index",
    "gather_children",
    "lookup",
    "match_keys",
]
