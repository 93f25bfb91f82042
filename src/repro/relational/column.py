"""Column kinds and per-column metadata for the relational substrate.

ReStore distinguishes three kinds of attributes:

* ``KEY`` — primary/foreign keys.  Never modeled by the completion networks
  (the paper notes AR/SSAR models do not synthesize keys; joins with complete
  tables instead go through nearest-neighbour replacement).
* ``CATEGORICAL`` — discrete values (strings or ints); modeled directly.
* ``CONTINUOUS`` — numeric values; quantile-binned by :mod:`repro.encoding`
  before being fed to a model and dequantized when synthesized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ColumnKind(enum.Enum):
    """Semantic role of a column within a table."""

    KEY = "key"
    CATEGORICAL = "categorical"
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class ColumnMeta:
    """Name and kind of one column."""

    name: str
    kind: ColumnKind

    @property
    def is_modelable(self) -> bool:
        """Whether completion models learn a distribution over this column."""
        return self.kind in (ColumnKind.CATEGORICAL, ColumnKind.CONTINUOUS)


def coerce_values(kind: ColumnKind, values) -> np.ndarray:
    """Normalize raw column values to the canonical dtype for their kind.

    Keys become ``int64`` (with -1 reserved as the missing-key sentinel),
    continuous columns ``float64``, and categoricals keep their natural dtype
    (object arrays for strings, integers stay integral).
    """
    arr = np.asarray(values)
    if kind is ColumnKind.KEY:
        return arr.astype(np.int64)
    if kind is ColumnKind.CONTINUOUS:
        return arr.astype(np.float64)
    return arr


MISSING_KEY = np.int64(-1)
"""Sentinel used for foreign keys of synthesized tuples (paper §4.2: the
models do not generate keys, so completed rows carry this marker until —
and unless — nearest-neighbour replacement assigns a real partner)."""
