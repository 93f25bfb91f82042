"""The bounded LRU cache of completed incompleteness joins (§4.5).

Every completed join the engine builds is assembled from *chunk outputs*
of the incompleteness join over a canonical chunk grid.
:class:`PartialJoinCache` caches those chunk outputs keyed by ``(join
signature, predicate fingerprint, chunk bounds)``.  Chunk outputs are pure
functions of those keys, so overlapping queries, budgeted runs, full joins
and recompletions reuse each other's completed chunks, and a chunk walked
under a *looser* predicate set serves a stricter query after post-hoc
filtering (subset-fingerprint reuse).

The same cache memoizes the unfiltered assembly of a model's chunks — the
full completed join every query on that model reuses — as one more entry
keyed by the join signature alone.  Completed joins can dwarf the database
itself (one row per evidence combination), so chunks and memos share one
least-recently-used bound, one invalidation on re-``fit`` (the models
behind a cached join changed), and hit/miss/eviction counters so operators
can size the cache against their workload.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

import numpy as np


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
    """The engine's one LRU cache of incompleteness-join results.

    One chunk entry is one chunk output (the walked rows of a root-row
    range plus its parked dangling-FK side state), keyed by::

        (join signature, chunk grid, chunk bounds, predicate fingerprints)

    * The *join signature* pins everything that changes bitwise content
      (model identity, path, seed, replacement mode).
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

    A *memo* entry (:meth:`get_join` / :meth:`put_join`) holds a model's
    assembled full join under a pseudo-chunk keyed by the join signature
    alone — no grid, bounds or fingerprints — so a warm hit does no grid
    work.  That is sound because a mutation can only change a model's grid
    by changing its root table, which is in the model's closure, so
    :meth:`invalidate_delta` and :meth:`mark_stale` drop the memo anyway.
    Chunk counters live in :attr:`stats`, memo counters in
    :attr:`join_stats`.

    A root-table update makes only its own root rows stale
    (:meth:`mark_stale`): an unfiltered chunk entry keeps its output and
    records those rows, so the caller re-walks just them and splices them
    in (:meth:`stale_entry`, then :meth:`put`).  A stale entry is never
    served: :meth:`lookup` counts it as a miss and skips it as a subset
    candidate.

    Capacity is counted in entries, chunks and memos alike.  All operations
    are thread-safe: the completion service (:mod:`repro.serving`) answers
    concurrent micro-batches on worker threads that share one engine, so
    bookkeeping and eviction are guarded by a lock.  The lock serializes
    cache *accounting*, not join computation — callers that must avoid
    duplicate joins coalesce at a higher level (single-flight in the
    service).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("PartialJoinCache capacity must be >= 1")
        self.capacity = capacity
        self.stats = PartialCacheStats()
        self.join_stats = CacheStats()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        # base key (signature, grid, bounds) -> fingerprint sets present;
        # chunk entries only (memo keys carry ``None`` fingerprints)
        self._by_base: Dict[Hashable, Set[FrozenSet]] = {}
        # base key -> sorted stale root rows of its unfiltered entry
        self._stale: Dict[Hashable, np.ndarray] = {}
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
            if candidates and base in self._stale:
                candidates = candidates - {frozenset()}
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
        base = (signature, grid, task)
        with self._lock:
            self._by_base.setdefault(base, set()).add(fingerprints)
            if not fingerprints:
                self._stale.pop(base, None)
            self._store((base, fingerprints), output)

    def stale_entry(
        self, signature: Hashable, grid: Tuple, task: Tuple
    ) -> Optional[Tuple[Any, np.ndarray]]:
        """The stale unfiltered chunk for ``task`` and its stale root rows
        (sorted), if any: a pure probe, no stats, no recency."""
        base = (signature, grid, task)
        with self._lock:
            roots = self._stale.get(base)
            if roots is None:
                return None
            return self._entries[(base, frozenset())], roots

    def mark_stale(self, signature: Hashable, roots) -> int:
        """Mark root rows ``roots`` stale after an in-place root update.

        Each unfiltered chunk of ``signature`` whose bounds cover some of
        them records them and keeps its output for a splice; the covering
        chunks' pushed (fingerprinted) entries are evicted, and so is the
        signature's memo.  Counted as the eviction of every entry that
        could serve until now, marked or evicted (a marked entry serves
        nobody until spliced), with one ``invalidation`` per counter set
        the call touched; hit/miss history is untouched.

        Returns the number of chunk entries that stopped serving.
        """
        rows = sorted(set(np.asarray(roots, dtype=np.int64).tolist()))
        with self._lock:
            marked = 0
            victims = []
            for base, fp_sets in self._by_base.items():
                if base[0] != signature:
                    continue
                start, stop = base[2]
                low, high = bisect_left(rows, start), bisect_left(rows, stop)
                if low == high:
                    continue
                hit = np.array(rows[low:high], dtype=np.int64)
                for fps in fp_sets:
                    if fps:
                        victims.append((base, fps))
                    elif base in self._stale:
                        self._stale[base] = np.union1d(self._stale[base], hit)
                    else:
                        self._stale[base] = hit
                        marked += 1
            for base, fps in victims:
                del self._entries[(base, fps)]
                self._by_base[base].discard(fps)
                if not self._by_base[base]:
                    del self._by_base[base]
            stopped = marked + len(victims)
            if stopped:
                self.stats.evictions += stopped
                self.stats.invalidations += 1
            self._drop_memo(signature)
            return stopped

    def get_join(self, signature: Hashable) -> Optional[Any]:
        """The memoized full join of ``signature``; counts a hit or a miss."""
        key = _memo_key(signature)
        with self._lock:
            completed = self._entries.get(key)
            if completed is None:
                self.join_stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.join_stats.hits += 1
            return completed

    def put_join(self, signature: Hashable, completed: Any) -> None:
        """Memoize ``signature``'s full join as the most recent entry."""
        with self._lock:
            self._store(_memo_key(signature), completed)

    def has_join(self, signature: Hashable) -> bool:
        """Whether ``signature``'s full join is memoized: a pure probe (no
        stats, no recency) for provenance reporting."""
        with self._lock:
            return _memo_key(signature) in self._entries

    def _store(self, key: Tuple, value: Any) -> None:
        """Insert or refresh ``key`` as most recent, then evict least
        recently used entries past capacity (caller holds the lock)."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            (old_base, old_fps), _ = self._entries.popitem(last=False)
            if old_fps is None:
                self.join_stats.evictions += 1
                continue
            remaining = self._by_base[old_base]
            remaining.discard(old_fps)
            if not remaining:
                del self._by_base[old_base]
            if old_fps or self._stale.pop(old_base, None) is None:
                self.stats.evictions += 1  # a stale entry counted when marked

    def invalidate(self) -> None:
        """Drop every entry (models were re-fitted; everything is stale).

        Each counter set counts one invalidation when it had entries."""
        with self._lock:
            if self._by_base:
                self.stats.invalidations += 1
            if any(fps is None for _, fps in self._entries):
                self.join_stats.invalidations += 1
            self._entries.clear()
            self._by_base.clear()
            self._stale.clear()

    def clear(self) -> None:
        """Drop every entry and zero both counter sets: a fresh cache in
        the same object, so registered collectors keep following it."""
        with self._lock:
            self.invalidate()
            self.reset_stats()

    def invalidate_delta(self, signature: Hashable) -> int:
        """Evict every entry of ``signature``; count truthfully.

        For a mutation that changes the grid or whole-table state (a root
        insert/delete, a non-root table in the model's closure): every
        chunk under ``signature`` and its memo go.  Entries for other
        signatures, and hit/miss history, are untouched: each removal of
        an entry that could serve increments ``evictions`` (a stale one
        was counted when marked), and each counter set counts one
        ``invalidation`` when the call dropped something of its kind
        (counters must never silently reset here).

        Returns the number of chunk entries that stopped serving.
        """
        with self._lock:
            victims = [
                (base, fps)
                for base, fp_sets in self._by_base.items()
                if base[0] == signature
                for fps in fp_sets
            ]
            for key in victims:
                del self._entries[key]
            stale = 0
            for base in {base for base, _ in victims}:
                del self._by_base[base]
                stale += self._stale.pop(base, None) is not None
            stopped = len(victims) - stale
            if stopped:
                self.stats.evictions += stopped
                self.stats.invalidations += 1
            self._drop_memo(signature)
            return stopped

    def _drop_memo(self, signature: Hashable) -> None:
        """Evict ``signature``'s memo, counted (caller holds the lock)."""
        if self._entries.pop(_memo_key(signature), None) is not None:
            self.join_stats.evictions += 1
            self.join_stats.invalidations += 1

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = PartialCacheStats()
            self.join_stats = CacheStats()

    def register_metrics(self, reg) -> None:
        """Expose the live counters as ``"join_cache"`` (memos) and
        ``"partial_cache"`` (chunks) collectors on a ``MetricsRegistry``.

        The collectors close over ``self`` (not the stats objects), so they
        keep reporting truthfully after ``reset_stats`` swaps the stats.
        """
        reg.register_collector("join_cache", lambda: self.join_stats.as_dict())
        reg.register_collector("partial_cache", lambda: self.stats.as_dict())


def _memo_key(signature: Hashable) -> Tuple:
    """The memo entry of ``signature``: a pseudo-chunk with no grid, bounds
    or fingerprints."""
    return ((signature, None, None), None)
