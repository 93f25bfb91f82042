"""Fan-out evidence forests for SSAR models.

SSAR completion models (paper §3.3) condition on a *tree* of tuples hanging
off each evidence tuple: 1:n related rows discovered by an acyclic schema
walk, and — for the incomplete target table itself — the already-available
sibling tuples (*self-evidence*).

A forest keeps no key structure of its own: each batch gathers children
through the database's memoized child indexes
(:func:`repro.relational.keys.child_index`, built once per database and
shared with the incompleteness join), and each evidence table is encoded
on first use.  Re-anchoring on a mutated database (:meth:`EvidenceForest.rebind`)
therefore only swaps references and drops the encodings.  Self-evidence
uses leave-one-out during training: the tuple being predicted is removed
from its own evidence set, otherwise the model could trivially copy it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..encoding import TableEncoder
from ..nn import TreeNodeBatch, TreeNodeSpec
from ..relational import Database
from ..relational.keys import child_index, gather_children
# perfbench/layers.py traces the key primitives by their names in this module.
from ..relational.keys import build_child_index, match_keys  # noqa: F401


class EvidenceForest:
    """Walk specs rooted at one evidence table.

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

        self._encoded: Dict[str, np.ndarray] = {}

    def _children(
        self, parent: str, child: str, parent_rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        index = child_index(self.db, self.db.fk_between(child, parent))
        return gather_children(index, parent_rows)

    def _encoded_rows(self, table: str, rows: np.ndarray) -> np.ndarray:
        # Concurrent thread walks may each encode a table once; the copies
        # are equal, so whichever is kept yields the same trees.
        if table not in self._encoded:
            self._encoded[table] = self.encoders[table].encode_table(
                self.db.table(table)
            )
        return self._encoded[table][rows]

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

        Keeps the walk structure (and therefore the model's input layout)
        and drops the encoded evidence, which is re-encoded from the new
        rows on first use; child indexes come from the new database's memo.
        """
        self.db = db
        self.encoders = encoders
        self._encoded = {}

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
            child_rows, parent_ids = self._children(walk[0], child, root_rows)
            if (
                exclude_target_rows is not None
                and child == self.self_evidence_table
                and len(child_rows)
            ):
                keep = child_rows != np.asarray(exclude_target_rows)[parent_ids]
                child_rows, parent_ids = child_rows[keep], parent_ids[keep]
            node = TreeNodeBatch(
                values=self._encoded_rows(child, child_rows),
                parent_ids=parent_ids,
            )
            for ext in self.level2.get(child, []):
                sub_rows, sub_parents = self._children(ext[1], ext[2], child_rows)
                node.children[f"{ext[1]}/{ext[2]}"] = TreeNodeBatch(
                    values=self._encoded_rows(ext[2], sub_rows),
                    parent_ids=sub_parents,
                )
            batches[f"{walk[0]}/{child}"] = node
        return batches
