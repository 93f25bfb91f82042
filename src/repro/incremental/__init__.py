"""Incremental completion: live mutations and drift.

The fit-once/complete-once engine becomes a *live* one in two layers:

* **mutations** (:mod:`~repro.incremental.mutations`) — a tuple-granular
  mutation API over the base database.  :func:`apply_mutations` applies
  inserts/updates/deletes (cascade-aware) and returns the mutated
  database plus a :class:`MutationDelta` naming every changed row.
* **drift** (:mod:`~repro.incremental.drift`) — per-table encoded
  distribution summaries and a total-variation drift report that
  recommends ``skip`` / ``fine_tune`` / ``refit``.

Invalidation lives in the engine: :meth:`repro.ReStore.apply_mutations`
decides, per model, whether a delta leaves its cached joins alone, marks
the updated root rows stale (re-walked and spliced into their chunks by
the next completion), or drops them all.

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
from .mutations import MutationDelta, TableDelta, apply_mutations

__all__ = [
    "MutationDelta",
    "TableDelta",
    "apply_mutations",
    "DriftReport",
    "DriftThresholds",
    "detect_drift",
    "distribution_summary",
    "total_variation",
]
