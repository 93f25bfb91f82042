"""Deep-sets tree encoder for schema-structured (SSAR) completion models.

Paper §3.3: SSAR models incorporate *fan-out evidence* — for each evidence
tuple, a tree of related tuples gathered by an acyclic walk over the schema
graph (e.g. all schools of a neighborhood, or the already-available
apartments used as *self-evidence*).  The tree is encoded with sum-pooling
over child embeddings followed by a feed-forward network, which Zaheer et
al. [42] show is a universal approximator for permutation-invariant
functions.  Weights are shared between tuples of the same table.

The encoding is fully batched: every table in the tree contributes one
integer matrix of discretized rows plus a ``parent_ids`` vector aligning each
row with its parent, and pooling is a segment sum.  This module defines the
encoder's parameters and the batch format; the forward and backward passes
are :class:`repro.runtime.training.FusedTreeEncoder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from .layers import Embedding, Linear, Module


@dataclass
class TreeNodeSpec:
    """Static description of one table appearing in an evidence tree.

    Attributes
    ----------
    name:
        Unique node label (normally the table name, possibly suffixed when a
        table appears several times in one walk).
    vocab_sizes:
        Cardinalities of the discretized columns fed into the encoder.
    children:
        Nested fan-out relations reached by continuing the acyclic walk.
    """

    name: str
    vocab_sizes: List[int]
    children: List["TreeNodeSpec"] = field(default_factory=list)

    def all_names(self) -> List[str]:
        names = [self.name]
        for child in self.children:
            names.extend(child.all_names())
        return names


@dataclass
class TreeNodeBatch:
    """Batched rows of one tree node plus their alignment to parent rows.

    ``values`` is an ``(n_rows, n_cols)`` integer matrix of discretized
    attribute values; ``parent_ids[i]`` is the row index of the parent this
    tuple hangs off (for the children of the evidence tuples themselves the
    parent index is the evidence-batch position).
    """

    values: np.ndarray
    parent_ids: np.ndarray
    children: Dict[str, "TreeNodeBatch"] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.int64)
        if self.values.ndim != 2:
            raise ValueError("TreeNodeBatch.values must be 2-D (rows x columns)")
        self.parent_ids = np.asarray(self.parent_ids, dtype=np.int64)
        if self.parent_ids.shape != (len(self.values),):
            raise ValueError("parent_ids must align with value rows")

    @property
    def num_rows(self) -> int:
        return len(self.values)


class _NodeEncoder(Module):
    """Per-table phi/rho pair with shared column embeddings."""

    def __init__(self, spec: TreeNodeSpec, embed_dim: int, out_dim: int,
                 rng: np.random.Generator):
        self.spec = spec
        self.embeddings = [Embedding(k, embed_dim, rng) for k in spec.vocab_sizes]
        self.child_encoders = [
            _NodeEncoder(child, embed_dim, out_dim, rng) for child in spec.children
        ]
        feature_dim = embed_dim * len(spec.vocab_sizes) + out_dim * len(spec.children)
        self.phi = Linear(max(feature_dim, 1), out_dim, rng)
        self.rho = Linear(out_dim, out_dim, rng)


class EvidenceTreeEncoder(Module):
    """Encode a forest of fan-out evidence into one context vector per tuple.

    The SSAR model concatenates the contexts of all top-level fan-out
    relations and feeds the result into the MADE backbone as an unmasked
    (degree-0) conditioning input.

    Parameters
    ----------
    specs:
        One :class:`TreeNodeSpec` per top-level fan-out relation of the
        evidence tuple.
    embed_dim:
        Embedding width shared with the completion model's value embeddings.
    node_dim:
        Output width of each per-relation context.
    """

    def __init__(self, specs: Sequence[TreeNodeSpec], embed_dim: int, node_dim: int,
                 rng: np.random.Generator):
        if not specs:
            raise ValueError("EvidenceTreeEncoder needs at least one tree spec")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tree spec names: {names}")
        self.specs = list(specs)
        self.node_dim = node_dim
        self.encoders = [_NodeEncoder(spec, embed_dim, node_dim, rng) for spec in specs]

    @property
    def context_dim(self) -> int:
        return self.node_dim * len(self.specs)
