"""Bounded LRU caches for completed and partial incompleteness joins (§4.5).

Every completed join the engine builds is assembled from *chunk outputs*
of the incompleteness join over a canonical chunk grid.
:class:`PartialJoinCache` caches those chunk outputs keyed by ``(join
signature, predicate fingerprint, chunk bounds)``.  Chunk outputs are pure
functions of those keys, so overlapping queries, budgeted runs, full joins
and recompletions reuse each other's completed chunks, and a chunk walked
under a *looser* predicate set serves a stricter query after post-hoc
filtering (subset-fingerprint reuse).

:class:`JoinCache` memoizes the unfiltered assembly of a model's chunks —
the full completed join every query on that model reuses.  Completed joins
can dwarf the database itself (one row per evidence combination), so it
bounds the footprint with least-recently-used eviction, supports explicit
invalidation on re-``fit`` (the models behind a cached join changed), and
surfaces hit/miss/eviction counters so operators can size the cache
against their workload.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Set, Tuple


@dataclass
class CacheStats:
    """Monotonic counters describing cache behaviour since construction."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class JoinCache:
    """LRU cache keyed by the full identity of a completed join.

    Keys are ``(kind, path_tables, seed, approximate_replacement)`` — every
    input that changes the bitwise content of a completed join.  ``get``
    refreshes recency and counts hits/misses; ``contains`` is a pure probe
    (no stats, no reordering) for provenance reporting.

    All operations are thread-safe: the completion service
    (:mod:`repro.serving`) answers concurrent micro-batches on worker
    threads that share one engine, so bookkeeping and eviction are guarded
    by a lock.  The lock serializes cache *accounting*, not join
    computation — callers that must avoid duplicate joins for one key
    coalesce at a higher level (single-flight in the service).
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("JoinCache capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def contains(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Tuple[Hashable, ...]:
        """Keys from least- to most-recently used (for introspection)."""
        with self._lock:
            return tuple(self._entries.keys())

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
            return None

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(self) -> None:
        """Drop every entry (models were re-fitted; cached joins are stale)."""
        with self._lock:
            if self._entries:
                self.stats.invalidations += 1
            self._entries.clear()

    def evict(self, key: Hashable) -> bool:
        """Drop one entry by key, counting the eviction truthfully.

        Returns whether the key was present.  Counters are monotonic —
        partial invalidation must never look like a stats reset.
        """
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self.stats.evictions += 1
            self.stats.invalidations += 1
            return True

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = CacheStats()

    def register_metrics(self, reg, name: str = "join_cache") -> None:
        """Expose the live counters as a collector on a ``MetricsRegistry``.

        The collector closes over ``self`` (not the stats object), so it
        keeps reporting truthfully after ``reset_stats`` swaps the stats.
        """
        reg.register_collector(name, lambda: self.stats.as_dict())


@dataclass
class PartialCacheStats(CacheStats):
    """Partial-cache counters; ``subset_hits`` are hits served from a chunk
    walked under a looser predicate set (caller re-filters the rows)."""

    subset_hits: int = 0

    def as_dict(self) -> dict:
        out = super().as_dict()
        out["subset_hits"] = self.subset_hits
        return out


class PartialJoinCache:
    """Chunk-granular LRU cache of partial incompleteness-join results.

    One entry is one chunk output (the walked rows of a root-row range plus
    its parked dangling-FK side state), keyed by::

        (join signature, chunk grid, chunk bounds, predicate fingerprints)

    * The *join signature* pins everything that changes bitwise content
      (model identity, path, seed, replacement mode) — same key the
      engine's :class:`JoinCache` uses.
    * The *chunk grid* (the full task list the bounds came from) guards
      against mixing chunkings: bounds are only comparable within one grid.
    * The *predicate fingerprints* (a frozenset of canonical filter
      identities, see :meth:`repro.query.ast.Filter.fingerprint`) identify
      which pushed filters pruned the chunk's rows.

    :meth:`lookup` serves an exact fingerprint match first, then falls back
    to any cached entry whose fingerprints are a **subset** of the request:
    a chunk walked under fewer filters contains a superset of the rows, and
    pruning is pure row selection, so the caller obtains the exact stricter
    chunk by applying the leftover filters post-hoc.  The returned
    fingerprints tell the caller which filters are still outstanding.
    Parked side state is plan-independent by planner construction, so it is
    reusable as-is in both cases.

    Capacity is counted in chunks.  Thread-safe like :class:`JoinCache`;
    invalidation drops everything (models were re-fitted).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("PartialJoinCache capacity must be >= 1")
        self.capacity = capacity
        self.stats = PartialCacheStats()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        # base key (signature, grid, bounds) -> fingerprint sets present
        self._by_base: Dict[Hashable, Set[FrozenSet]] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(
        self,
        signature: Hashable,
        grid: Tuple,
        task: Tuple,
        fingerprints: FrozenSet,
    ) -> Optional[Tuple[Any, FrozenSet]]:
        """The cached chunk for ``task`` under ``fingerprints``, if any.

        Returns ``(chunk output, cached fingerprints)``; the second element
        equals ``fingerprints`` on an exact hit and is a proper subset on a
        looser-plan hit (the caller must apply the missing filters).  Among
        several subset candidates the largest wins — fewest rows left to
        re-filter.
        """
        base = (signature, grid, task)
        with self._lock:
            candidates = self._by_base.get(base)
            if candidates:
                if fingerprints in candidates:
                    key = (base, fingerprints)
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return self._entries[key], fingerprints
                subsets: List[FrozenSet] = [
                    fps for fps in candidates if fps < fingerprints
                ]
                if subsets:
                    best = max(subsets, key=len)
                    key = (base, best)
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    self.stats.subset_hits += 1
                    return self._entries[key], best
            self.stats.misses += 1
            return None

    def put(
        self,
        signature: Hashable,
        grid: Tuple,
        task: Tuple,
        fingerprints: FrozenSet,
        output: Any,
    ) -> None:
        # Spilled chunk outputs live in a run-scoped directory that is
        # gone after assembly — caching the handle would serve dangling
        # paths.  Such outputs declare themselves non-cacheable.
        if not getattr(output, "cacheable", True):
            return
        base = (signature, grid, task)
        key = (base, fingerprints)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = output
                return
            self._entries[key] = output
            self._by_base.setdefault(base, set()).add(fingerprints)
            while len(self._entries) > self.capacity:
                old_key, _ = self._entries.popitem(last=False)
                old_base, old_fps = old_key
                remaining = self._by_base.get(old_base)
                if remaining is not None:
                    remaining.discard(old_fps)
                    if not remaining:
                        del self._by_base[old_base]
                self.stats.evictions += 1

    def invalidate(self) -> None:
        """Drop every entry (models were re-fitted; cached chunks are stale)."""
        with self._lock:
            if self._entries:
                self.stats.invalidations += 1
            self._entries.clear()
            self._by_base.clear()

    def invalidate_delta(
        self,
        signature: Hashable,
        tasks: Optional[FrozenSet[Tuple[int, int]]] = None,
    ) -> int:
        """Evict the chunks a mutation delta made stale; count truthfully.

        Drops every entry under ``signature`` whose chunk bounds are in
        ``tasks`` — or *all* of the signature's entries when ``tasks`` is
        ``None`` (grid change / non-root mutation).  Entries for other
        signatures, and hit/miss history, are untouched: each removal
        increments ``evictions``, and the call as a whole counts one
        ``invalidation`` when anything was dropped (the PR 4 regression
        class was counters silently resetting here).

        Returns the number of chunk entries evicted.
        """
        with self._lock:
            victims = [
                (base, fps)
                for base, fp_sets in self._by_base.items()
                if base[0] == signature
                and (tasks is None or base[2] in tasks)
                for fps in fp_sets
            ]
            for key in victims:
                del self._entries[key]
            for base in {base for base, _ in victims}:
                del self._by_base[base]
            if victims:
                self.stats.evictions += len(victims)
                self.stats.invalidations += 1
            return len(victims)

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = PartialCacheStats()

    def register_metrics(self, reg, name: str = "partial_cache") -> None:
        """Expose the live counters as a collector on a ``MetricsRegistry``."""
        reg.register_collector(name, lambda: self.stats.as_dict())
