"""Map a :class:`~repro.incremental.mutations.MutationDelta` onto caches.

Soundness argument (why row-granular invalidation is safe at all): a walk
in :class:`~repro.core.IncompletenessJoin` reads only its own row of the
root table — its codes, raw columns and RNG streams are functions of the
root row index and that row's values — while every whole-table
structure a walk consults — the database's child indexes and key orders
(:mod:`repro.relational.keys`), nearest-neighbour replacers, orphan
weights, the SSAR forests' encoded evidence — derives from *non-root*
path tables and the root's primary key only.  Updates never change a
primary key, and every mutation builds a new database whose structures
are built afresh, so no walk reads a stale one.  Each root row's walked
rows, their order within the chunk (the join's walk order) and its
synthesized tuples depend on that row alone, so a row is as safe a unit
as a chunk.  Dangling-FK resolution happens at assembly time over all
parked states.  Hence:

* root-table **updates** make exactly the updated rows stale, in the
  chunks whose ``[start, stop)`` covers them: those rows are re-walked
  and spliced into the cached chunk output;
* root-table **inserts/deletes** change the canonical chunk grid itself
  (and shift row→stream assignments), so every entry under the signature
  is stale;
* a mutation to any **non-root table inside the model's closure** (path
  tables plus SSAR evidence walks) changes whole-table state every chunk
  consults, so every entry under the signature is stale;
* tables **outside the closure** require no eviction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple

from .mutations import MutationDelta

__all__ = ["Invalidation", "affected_tasks", "plan_invalidation"]


@dataclass(frozen=True)
class Invalidation:
    """What one delta means for one join signature's cached state.

    ``kind`` is ``"none"`` (no eviction), ``"chunks"`` (root ``rows``
    are stale; ``tasks`` are the chunks that hold them, and any full join
    built from them is stale too), or ``"all"`` (every entry under the
    signature is stale).
    """

    kind: str
    tasks: FrozenSet[Tuple[int, int]] = frozenset()
    rows: Tuple[int, ...] = ()

    @property
    def touches_cache(self) -> bool:
        return self.kind != "none"


def affected_tasks(
    positions: Iterable[int], num_roots: int, chunk_size: int
) -> FrozenSet[Tuple[int, int]]:
    """Chunk-grid tasks whose row range covers any of ``positions``."""
    if chunk_size is None or chunk_size <= 0 or chunk_size >= num_roots:
        chunk_size = max(num_roots, 1)  # as in chunk_slices: one chunk
    hit = set()
    for pos in positions:
        if 0 <= pos < num_roots:
            start = pos - pos % chunk_size
            hit.add((start, min(start + chunk_size, num_roots)))
    return frozenset(hit)


def plan_invalidation(
    delta: MutationDelta,
    *,
    root_table: str,
    closure_tables: Iterable[str],
    num_roots: int,
    chunk_size: int,
) -> Invalidation:
    """Decide the minimal sound eviction for one model's cached joins.

    ``num_roots``/``chunk_size`` describe the canonical grid of the
    *mutated* database (for update-only deltas it equals the old grid,
    which is the only case where chunk granularity applies).
    """
    closure = set(closure_tables) | {root_table}
    touched = [t for t in delta.affected_tables() if t in closure]
    if not touched:
        return Invalidation("none")
    non_root = [t for t in touched if t != root_table]
    if non_root:
        return Invalidation("all")
    root_delta = delta.for_table(root_table)
    if not root_delta.grid_stable:
        return Invalidation("all")
    rows = tuple(sorted(set(root_delta.updated_positions)))
    tasks = affected_tasks(rows, num_roots, chunk_size)
    if not tasks:
        return Invalidation("none")
    return Invalidation("chunks", tasks, rows)
