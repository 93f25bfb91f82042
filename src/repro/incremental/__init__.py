"""Incremental completion: live mutations, delta invalidation, drift.

The fit-once/complete-once engine becomes a *live* one in three layers:

* **mutations** (:mod:`~repro.incremental.mutations`) — a tuple-granular
  mutation API over the base database.  :func:`apply_mutations` applies
  inserts/updates/deletes (cascade-aware) and returns the mutated
  database plus a :class:`MutationDelta` naming every changed row.
* **invalidation** (:mod:`~repro.incremental.invalidation`) — maps a
  delta through a model's table closure onto the canonical chunk grid,
  deciding per join signature whether nothing, the updated root rows
  (re-walked and spliced into their chunks), or everything must be
  re-walked (:func:`plan_invalidation`).
* **drift** (:mod:`~repro.incremental.drift`) — per-table encoded
  distribution summaries and a total-variation drift report that
  recommends ``skip`` / ``fine_tune`` / ``refit``.

The engine-facing entry points are :meth:`repro.ReStore.apply_mutations`,
:meth:`~repro.ReStore.recomplete`, :meth:`~repro.ReStore.check_drift` and
:meth:`~repro.ReStore.fine_tune`.
"""

from .drift import (
    DriftReport,
    DriftThresholds,
    detect_drift,
    distribution_summary,
    total_variation,
)
from .invalidation import Invalidation, affected_tasks, plan_invalidation
from .mutations import MutationDelta, TableDelta, apply_mutations

__all__ = [
    "MutationDelta",
    "TableDelta",
    "apply_mutations",
    "Invalidation",
    "plan_invalidation",
    "affected_tasks",
    "DriftReport",
    "DriftThresholds",
    "detect_drift",
    "distribution_summary",
    "total_variation",
]
