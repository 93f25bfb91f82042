"""Foreign-key resolution: the one place an FK value finds its row.

Every join of the package rests on two primitives over a
:class:`~repro.relational.schema.ForeignKey`:

* :func:`match_keys` — the n:1 direction: the parent row each reference
  points at;
* :func:`build_child_index` + :func:`gather_children` — the 1:n direction:
  the children of each parent row, as a CSR adjacency.

Semantics shared by all of them: negative references (the missing-key
sentinel of synthesized tuples) never match, and parent keys are unique
(every foreign key targets a primary key).  :func:`gather_children` lists
each parent's children in ascending row position, which fixes the row
order of :func:`~repro.query.executor.join_tables` and so of every
training matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # schema imports this module (validate_references)
    from .schema import Database, ForeignKey


@dataclass
class ChildIndex:
    """CSR adjacency from parent rows to child rows along one foreign key."""

    fk: "ForeignKey"
    child_rows: np.ndarray   # child row positions, grouped by parent
    offsets: np.ndarray      # (num_parents + 1,) start offsets into child_rows

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
    return ChildIndex(fk, grouped_children.astype(np.int64), offsets.astype(np.int64))


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


__all__ = ["ChildIndex", "build_child_index", "gather_children", "match_keys"]
