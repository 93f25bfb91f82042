"""Tuple factors: per-parent child counts along a foreign key.

Tuple factors (TFs, following DeepDB [17]) capture *how many* child tuples a
parent tuple joins with.  ReStore learns them as an additional discrete
column of the completion model so that, at completion time, it can estimate
how many tuples are missing for each evidence tuple (paper Fig. 1a and
§4.2).  When the user knows a relationship is complete for a subset of
parents, those observed TFs are ground truth; for the rest the model
predicts them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .keys import child_index
from .schema import Database, ForeignKey

TF_UNKNOWN = -1
"""Marker for parents whose tuple factor is not annotated as known."""


def observed_tuple_factors(db: Database, fk: ForeignKey) -> np.ndarray:
    """Count children per parent row, aligned with the parent table's rows.

    Synthesized children carrying the missing-key sentinel (negative FK
    values) are ignored.  These are the counts of the database's memoized
    child index (:func:`repro.relational.keys.child_index`).
    """
    return child_index(db, fk).counts()


def annotated_tuple_factors(
    db: Database,
    fk: ForeignKey,
    tf_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Tuple factors with unknown entries marked :data:`TF_UNKNOWN`.

    ``tf_mask`` is the per-parent availability mask from the schema
    annotation; where it is ``False`` the observed count is *not* trusted
    (the relationship may be incomplete there) and the model must predict it.
    """
    counts = observed_tuple_factors(db, fk)
    if tf_mask is None:
        return counts
    mask = np.asarray(tf_mask, dtype=bool)
    if mask.shape != counts.shape:
        raise ValueError("tuple-factor mask has wrong length")
    out = counts.copy()
    out[~mask] = TF_UNKNOWN
    return out


def cap_tuple_factors(tfs: np.ndarray, cap: int) -> np.ndarray:
    """Clip tuple factors into ``[0, cap]`` for categorical modeling.

    The completion models treat TFs as a categorical variable with vocabulary
    ``0 .. cap`` (plus the unknown marker handled by the codec); extremely
    heavy tails are clipped, which matches naru-style practice and bounds the
    output head size.
    """
    if cap < 1:
        raise ValueError("tuple-factor cap must be >= 1")
    capped = np.asarray(tfs).copy()
    known = capped != TF_UNKNOWN
    capped[known] = np.clip(capped[known], 0, cap)
    return capped
