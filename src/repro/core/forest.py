"""Fan-out evidence forests for SSAR models.

SSAR completion models (paper §3.3) condition on a *tree* of tuples hanging
off each evidence tuple: 1:n related rows discovered by an acyclic schema
walk, and — for the incomplete target table itself — the already-available
sibling tuples (*self-evidence*).

This module pre-indexes the children of every row (a CSR-style adjacency)
so that per-batch evidence trees can be materialized quickly during both
training and completion.  Self-evidence uses leave-one-out during training:
the tuple being predicted is removed from its own evidence set, otherwise
the model could trivially copy it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..encoding import TableEncoder
from ..nn import TreeNodeBatch, TreeNodeSpec
from ..relational import Database, ForeignKey


@dataclass
class ChildIndex:
    """CSR adjacency from parent rows to child rows along one foreign key."""

    fk: ForeignKey
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


def build_child_index(db: Database, fk: ForeignKey) -> ChildIndex:
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


class EvidenceForest:
    """Walk specs plus child indexes rooted at one evidence table.

    Parameters
    ----------
    db:
        The (incomplete) database the evidence comes from.
    root_table:
        The evidence table the walks start at.
    walks:
        Chains ``(root, child[, grandchild])`` from
        :func:`repro.relational.fan_out_relations`.
    encoders:
        Shared table encoders (the forest reuses the same code space as the
        completion models).
    self_evidence_table:
        Name of the incomplete target table; its walk gets leave-one-out
        handling during training.
    """

    def __init__(
        self,
        db: Database,
        root_table: str,
        walks: Sequence[Tuple[str, ...]],
        encoders: Dict[str, TableEncoder],
        self_evidence_table: Optional[str] = None,
    ):
        self.db = db
        self.root_table = root_table
        self.encoders = encoders
        self.self_evidence_table = self_evidence_table

        # Only keep top-level walks plus their extensions; organize as a tree.
        self.level1: List[Tuple[str, ...]] = [w for w in walks if len(w) == 2]
        self.level2: Dict[str, List[Tuple[str, ...]]] = {}
        for walk in walks:
            if len(walk) == 3:
                self.level2.setdefault(walk[1], []).append(walk)

        self._indexes: Dict[Tuple[str, str], ChildIndex] = {}
        self._encoded: Dict[str, np.ndarray] = {}
        for walk in self.level1:
            self._prepare_edge(walk[0], walk[1])
            for ext in self.level2.get(walk[1], []):
                self._prepare_edge(ext[1], ext[2])

    def _prepare_edge(self, parent: str, child: str) -> None:
        key = (parent, child)
        if key in self._indexes:
            return
        fk = self.db.fk_between(child, parent)
        self._indexes[key] = build_child_index(self.db, fk)
        if child not in self._encoded:
            self._encoded[child] = self.encoders[child].encode_table(self.db.table(child))

    # ------------------------------------------------------------------
    # Specs
    # ------------------------------------------------------------------
    def specs(self) -> List[TreeNodeSpec]:
        """One TreeNodeSpec per top-level fan-out relation."""
        specs = []
        for walk in self.level1:
            child = walk[1]
            children_specs = [
                TreeNodeSpec(
                    name=f"{ext[1]}/{ext[2]}",
                    vocab_sizes=self.encoders[ext[2]].vocab_sizes(),
                )
                for ext in self.level2.get(child, [])
            ]
            specs.append(
                TreeNodeSpec(
                    name=f"{walk[0]}/{child}",
                    vocab_sizes=self.encoders[child].vocab_sizes(),
                    children=children_specs,
                )
            )
        return specs

    @property
    def has_walks(self) -> bool:
        return bool(self.level1)

    def walk_tables(self) -> List[str]:
        """Every table any walk touches (root first, deduplicated)."""
        seen: List[str] = [self.root_table]
        for walk in self.level1 + [w for exts in self.level2.values() for w in exts]:
            for table in walk:
                if table not in seen:
                    seen.append(table)
        return seen

    def rebind(self, db: Database, encoders: Dict[str, TableEncoder]) -> None:
        """Re-anchor the forest on a (possibly mutated) database.

        Child indexes and encoded evidence are precomputed from the
        database at construction, so a plain attribute swap would leave
        them stale; this rebuilds them against the new rows while keeping
        the walk structure (and therefore the model's input layout).
        """
        self.db = db
        self.encoders = encoders
        self._indexes = {}
        self._encoded = {}
        for walk in self.level1:
            self._prepare_edge(walk[0], walk[1])
            for ext in self.level2.get(walk[1], []):
                self._prepare_edge(ext[1], ext[2])

    # ------------------------------------------------------------------
    # Batch materialization
    # ------------------------------------------------------------------
    def batch_for_roots(
        self,
        root_rows: np.ndarray,
        exclude_target_rows: Optional[np.ndarray] = None,
    ) -> Dict[str, TreeNodeBatch]:
        """Evidence trees for a batch of root rows.

        ``exclude_target_rows[i]``, when given, removes that row of the
        self-evidence table from the tree of batch position ``i``
        (leave-one-out for training).
        """
        root_rows = np.asarray(root_rows, dtype=np.int64)
        batches: Dict[str, TreeNodeBatch] = {}
        for walk in self.level1:
            child = walk[1]
            index = self._indexes[(walk[0], child)]
            child_rows, parent_ids = _gather_children(index, root_rows)
            if (
                exclude_target_rows is not None
                and child == self.self_evidence_table
                and len(child_rows)
            ):
                keep = child_rows != np.asarray(exclude_target_rows)[parent_ids]
                child_rows, parent_ids = child_rows[keep], parent_ids[keep]
            node = TreeNodeBatch(
                values=self._encoded[child][child_rows],
                parent_ids=parent_ids,
            )
            for ext in self.level2.get(child, []):
                sub_index = self._indexes[(ext[1], ext[2])]
                sub_rows, sub_parents = _gather_children(sub_index, child_rows)
                node.children[f"{ext[1]}/{ext[2]}"] = TreeNodeBatch(
                    values=self._encoded[ext[2]][sub_rows],
                    parent_ids=sub_parents,
                )
            batches[f"{walk[0]}/{child}"] = node
        return batches


def _gather_children(
    index: ChildIndex, parent_rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Children of each listed parent, plus batch-position parent ids.

    One CSR gather: output slot ``j`` of parent ``i`` reads
    ``child_rows[starts[i] + j - out_start[i]]``, so the positions are an
    ``arange`` shifted per parent.
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
