"""Model merging (paper §3.4): share one AR model across completion tasks.

Training one model per (evidence → target) pair is wasteful: a model over
``T3 -> T2 -> T1`` in a fixed order provides both ``p(T1 | T2, T3)`` and
``p(T2 | T3)``.  Two completion tasks can share a model when

* one task's table set is a subset of the other's, and
* a single variable ordering satisfies both: build a directed graph with an
  arc from every evidence table to its completed table; only a cycle-free
  graph admits a consistent (topological) order.

ReStore merges greedily until no non-conflicting merges remain, then trains
one model per merged group.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..relational import CompletionPath


@dataclass
class MergedGroup:
    """A set of completion paths served by one trained model.

    ``table_order`` is the topological order all merged paths agree on;
    the model's variable layout follows this order, and each member path
    reads its conditionals from the appropriate suffix.
    """

    paths: List[CompletionPath] = field(default_factory=list)
    table_order: Tuple[str, ...] = ()

    @property
    def tables(self) -> Set[str]:
        return set(self.table_order)

    def __len__(self) -> int:
        return len(self.paths)


def compatible_order(paths: Sequence[CompletionPath]) -> Optional[Tuple[str, ...]]:
    """A table order serving all paths, or ``None`` if orders conflict.

    Along a path every table is completed using all tables before it, so
    each earlier table must precede each later one.  Of the orders obeying
    every path, this is the lexicographically smallest (Kahn's algorithm
    with a heap); a cycle among the constraints leaves tables unplaced.
    """
    later: Dict[str, Set[str]] = {}
    for path in paths:
        for i, table in enumerate(path.tables):
            later.setdefault(table, set())
            for earlier in path.tables[:i]:
                later[earlier].add(table)
    waiting = dict.fromkeys(later, 0)
    for successors in later.values():
        for table in successors:
            waiting[table] += 1
    ready = [table for table, count in waiting.items() if count == 0]
    heapq.heapify(ready)
    order: List[str] = []
    while ready:
        table = heapq.heappop(ready)
        order.append(table)
        for successor in later[table]:
            waiting[successor] -= 1
            if waiting[successor] == 0:
                heapq.heappush(ready, successor)
    return tuple(order) if len(order) == len(later) else None


def _mergeable(group: MergedGroup, path: CompletionPath) -> bool:
    """Paper's merge condition: subset relationship on the table sets."""
    tables = set(path.tables)
    return tables <= group.tables or group.tables <= tables


def merge_paths(paths: Sequence[CompletionPath]) -> List[MergedGroup]:
    """Greedily merge completion paths into shared-model groups.

    Longer paths are seeded first (they subsume the most sub-paths); each
    remaining path joins the first group whose table set is a super/subset
    and whose combined order graph stays acyclic.  The result covers every
    input path exactly once.
    """
    groups: List[MergedGroup] = []
    for path in sorted(paths, key=lambda p: (-p.length, p.tables)):
        placed = False
        for group in groups:
            if not _mergeable(group, path):
                continue
            order = compatible_order([*group.paths, path])
            if order is None:
                continue
            group.paths.append(path)
            group.table_order = order
            placed = True
            break
        if not placed:
            order = compatible_order([path])
            if order is None:  # pragma: no cover - single path is always a DAG
                raise RuntimeError(f"path {path} has no consistent order")
            groups.append(MergedGroup(paths=[path], table_order=order))
    return groups


def training_savings(paths: Sequence[CompletionPath]) -> Dict[str, int]:
    """How many trainings merging avoids — reported by the Fig. 11 bench."""
    groups = merge_paths(paths)
    return {
        "models_without_merging": len(paths),
        "models_with_merging": len(groups),
        "saved": len(paths) - len(groups),
    }
