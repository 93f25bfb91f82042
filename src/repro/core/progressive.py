"""Sampling budgets and progressive refinement records.

Budgeted query answering (the AQP mode the paper's use case calls for)
completes only a prefix of the root-row chunk grid, answers from those
rows, and attaches a §6 :class:`~repro.core.confidence.ConfidenceBand`.
As more chunks complete, the estimate is *refined*: each refinement covers
a superset of the previous one's chunks, chunk outputs are pure, and the
final refinement covers the full grid — so the sequence converges to
exactly the answer a budgetless pushdown run produces.

This module holds the plain-data pieces: :class:`SamplingBudget` describes
how many chunks each refinement may add, :class:`Refinement` one emitted
estimate.  The driving loop lives in
:meth:`repro.core.engine.ReStore.answer_progressive`; streaming to
concurrent callers in :class:`repro.serving.CompletionService`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import ConfigurationError
from ..query import Query, QueryResult
from .confidence import ConfidenceBand


@dataclass(frozen=True)
class SamplingBudget:
    """How a progressive run spends chunks across refinements.

    The first refinement answers after ``initial_chunks`` chunks; each
    subsequent one multiplies the cumulative chunk count by ``growth``
    (geometric schedules keep the number of refinements logarithmic in the
    grid size, so early answers come fast and late ones don't re-aggregate
    per chunk).  ``max_chunks`` truncates the run — ``None`` always
    finishes with the full grid, which is what makes the final refinement
    exact.
    """

    initial_chunks: int = 1
    growth: float = 2.0
    max_chunks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.initial_chunks < 1:
            raise ConfigurationError(
                f"SamplingBudget.initial_chunks must be >= 1, "
                f"got {self.initial_chunks}"
            )
        if self.growth < 1.0:
            raise ConfigurationError(
                f"SamplingBudget.growth must be >= 1.0, got {self.growth}"
            )
        if self.max_chunks is not None and self.max_chunks < 1:
            raise ConfigurationError(
                f"SamplingBudget.max_chunks must be >= 1 or None, "
                f"got {self.max_chunks}"
            )

    def schedule(self, total_chunks: int) -> List[int]:
        """Cumulative chunk counts of each refinement for a grid of
        ``total_chunks`` chunks (strictly increasing, last entry capped at
        ``min(total_chunks, max_chunks)``)."""
        cap = total_chunks
        if self.max_chunks is not None:
            cap = min(cap, self.max_chunks)
        if cap <= 0:
            return []
        counts: List[int] = []
        current = float(min(self.initial_chunks, cap))
        while True:
            count = min(int(current), cap)
            if not counts or count > counts[-1]:
                counts.append(count)
            if count >= cap:
                return counts
            grown = current * self.growth
            # growth == 1.0 (or rounding) must still advance the schedule
            current = max(grown, count + 1)


@dataclass
class Refinement:
    """One progressively refined answer.

    ``band`` is ``None`` when the query's aggregate has no §6 band (grouped
    queries, COUNT, categorical columns).  Band widths are non-increasing
    across a run's refinements; the ``final`` refinement's result is the
    exact pushdown answer.
    """

    result: QueryResult
    query: Query
    band: Optional[ConfidenceBand]
    chunks_completed: int
    chunks_total: int
    index: int
    final: bool

    @property
    def budget_utilization(self) -> float:
        """Fraction of the (possibly truncated) grid completed so far."""
        if self.chunks_total == 0:
            return 1.0
        return self.chunks_completed / self.chunks_total
