"""Euclidean nearest-neighbour replacement of synthesized tuples.

Paper §4.2 (Fig. 3): completion models never synthesize keys, so when a
completed intermediate result must join onward with a *complete* table, the
synthesized partner tuples are replaced by the most similar *existing*
tuples (lowest euclidean distance), restoring real primary keys and
guaranteeing that no invented tuples appear for tables annotated complete.

Exact replacement is a KD-tree query; the paper notes that approximate
search with batching is "crucial" for competitive performance, so an
approximate mode (random-projection dimensionality reduction before the
KD-tree) is provided and ablated in ``benchmarks/bench_ablations.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from ..relational import ColumnKind, DictColumn, Table


class TupleSpace:
    """Embed tuples of one table into a euclidean feature space.

    Continuous columns are z-scored; categorical columns are one-hot encoded
    (so one category mismatch costs a constant distance).  Key columns are
    ignored — similarity is defined over attribute values only.
    """

    def __init__(self, table: Table):
        self.columns: List[str] = table.modelable_columns()
        self._kinds: Dict[str, ColumnKind] = {
            c: table.meta(c).kind for c in self.columns
        }
        self._means: Dict[str, float] = {}
        self._stds: Dict[str, float] = {}
        self._categories: Dict[str, np.ndarray] = {}
        for column in self.columns:
            values = table[column]
            if self._kinds[column] is ColumnKind.CONTINUOUS:
                arr = np.asarray(values, dtype=float)
                self._means[column] = float(arr.mean())
                self._stds[column] = float(arr.std()) or 1.0
            else:
                self._categories[column] = np.unique(values)

    @property
    def dim(self) -> int:
        total = 0
        for column in self.columns:
            if self._kinds[column] is ColumnKind.CONTINUOUS:
                total += 1
            else:
                total += len(self._categories[column])
        return total

    def transform(self, columns: Dict[str, Sequence]) -> np.ndarray:
        """Feature matrix ``(rows, dim)`` for a dict of column arrays.

        A :class:`~repro.relational.DictColumn` is one-hot encoded per
        distinct code it holds, then gathered back by row: the rows of the
        decoded values' one-hot matrix, bit for bit.
        """
        parts: List[np.ndarray] = []
        num_rows = None
        for column in self.columns:
            values = columns[column]
            num_rows = len(values)
            if self._kinds[column] is ColumnKind.CONTINUOUS:
                arr = np.asarray(values).astype(float)
                arr = (arr - self._means[column]) / self._stds[column]
                parts.append(arr[:, None])
            elif isinstance(values, DictColumn):
                used, rows = np.unique(values.codes, return_inverse=True)
                parts.append(self._onehot(column, values.vocab[used])[rows])
            else:
                parts.append(self._onehot(column, np.asarray(values)))
        if num_rows is None:
            return np.zeros((0, 0))
        return np.concatenate(parts, axis=1)

    def _onehot(self, column: str, values: np.ndarray) -> np.ndarray:
        cats = self._categories[column]
        return (values[:, None] == cats[None, :]).astype(float)

    def transform_table(self, table: Table) -> np.ndarray:
        return self.transform({c: table[c] for c in self.columns})


class EuclideanReplacer:
    """Replace synthesized tuples with their nearest existing tuples.

    Parameters
    ----------
    table:
        The complete table providing the replacement candidates.
    approximate:
        When true, features are first projected to ``projection_dim``
        dimensions with a seeded Gaussian random projection — trading a
        little accuracy for much cheaper queries in wide spaces.
    batch_size:
        Queries are answered in batches (the paper's batching).
    """

    def __init__(
        self,
        table: Table,
        approximate: bool = False,
        projection_dim: int = 8,
        batch_size: int = 4096,
        seed: int = 0,
    ):
        self.table = table
        self.space = TupleSpace(table)
        self.approximate = approximate
        self.batch_size = batch_size
        features = self.space.transform_table(table)
        if approximate and features.shape[1] > projection_dim:
            rng = np.random.default_rng(seed)
            self._projection: Optional[np.ndarray] = rng.normal(
                0.0, 1.0 / np.sqrt(projection_dim),
                size=(features.shape[1], projection_dim),
            )
            features = features @ self._projection
        else:
            self._projection = None
        self._tree = cKDTree(features)

    def replace(self, synthesized_columns: Dict[str, Sequence]) -> np.ndarray:
        """Row indices (into the real table) nearest to each synthesized tuple."""
        features = self.space.transform(synthesized_columns)
        if self._projection is not None:
            features = features @ self._projection
        indices = np.empty(len(features), dtype=np.int64)
        for start in range(0, len(features), self.batch_size):
            stop = min(start + self.batch_size, len(features))
            _, idx = self._tree.query(features[start:stop])
            indices[start:stop] = idx
        return indices

    def replacement_values(
        self, synthesized_columns: Dict[str, Sequence]
    ) -> Dict[str, np.ndarray]:
        """Full replacement rows (all columns, incl. keys) for synthesized tuples."""
        rows = self.replace(synthesized_columns)
        return {c: self.table[c][rows] for c in self.table.column_names}
