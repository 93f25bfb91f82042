"""Kernel-level profiling for the float32 runtime.

Per-span tracing is the wrong tool inside :mod:`repro.runtime.kernels` —
a single chunk walk issues thousands of dense/softmax calls, and a span
per GEMM would cost more than the GEMM.  The :class:`KernelProfiler`
instead *accumulates*: per kernel name, the call count, total wall time
and rows processed, under one lock, queried once at the end.

Off by default: the kernels check a module attribute
(``profile.ACTIVE``) and skip both clock reads when it is ``None`` — the
same near-zero no-op discipline as the tracer, asserted by
``benchmarks/bench_obs.py``.  Enable with :func:`profile_kernels` (a
context manager) or :func:`enable_kernel_profiling`; the active profiler
registers itself as the ``kernels`` collector on the process metrics
registry, so ``repro.obs.registry().snapshot()`` includes it.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from .metrics import registry

__all__ = ["KernelProfiler", "profile_kernels", "enable_kernel_profiling",
           "disable_kernel_profiling", "kernel_profiler"]


class KernelProfiler:
    """Thread-safe per-kernel accumulation: calls, wall time, rows."""

    __slots__ = ("_lock", "_stats")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: Dict[str, Dict[str, float]] = {}

    def record(self, name: str, elapsed_ns: int, rows: int = 0) -> None:
        with self._lock:
            entry = self._stats.get(name)
            if entry is None:
                entry = self._stats[name] = {
                    "calls": 0, "total_ms": 0.0, "rows": 0,
                }
            entry["calls"] += 1
            entry["total_ms"] += elapsed_ns / 1e6
            entry["rows"] += rows

    def snapshot(self) -> dict:
        with self._lock:
            return {
                name: dict(entry) for name, entry in self._stats.items()
            }

    def report(self) -> str:
        """Kernel table sorted by total time, heaviest first."""
        snap = self.snapshot()
        lines = [
            f"{'kernel':<32} {'calls':>10} {'total ms':>12} {'rows':>14}",
            "-" * 72,
        ]
        for name, entry in sorted(
            snap.items(), key=lambda kv: -kv[1]["total_ms"]
        ):
            lines.append(
                f"{name:<32} {int(entry['calls']):>10} "
                f"{entry['total_ms']:>12.3f} {int(entry['rows']):>14}"
            )
        return "\n".join(lines) + "\n"

    def clear(self) -> None:
        with self._lock:
            self._stats.clear()


#: The kernels' single check: ``None`` means profiling is off (fast path).
ACTIVE: Optional[KernelProfiler] = None


def kernel_profiler() -> Optional[KernelProfiler]:
    return ACTIVE


def enable_kernel_profiling(
    profiler: Optional[KernelProfiler] = None,
) -> KernelProfiler:
    global ACTIVE
    ACTIVE = profiler if profiler is not None else (ACTIVE or KernelProfiler())
    registry().register_collector("kernels", ACTIVE.snapshot)
    return ACTIVE


def disable_kernel_profiling() -> None:
    global ACTIVE
    ACTIVE = None
    registry().unregister_collector("kernels")


class profile_kernels:
    """``with profile_kernels() as prof:`` — scoped kernel accumulation."""

    def __init__(self) -> None:
        self.profiler = KernelProfiler()
        self._previous: Optional[KernelProfiler] = None

    def __enter__(self) -> KernelProfiler:
        global ACTIVE
        self._previous = ACTIVE
        ACTIVE = self.profiler
        registry().register_collector("kernels", self.profiler.snapshot)
        return self.profiler

    def __exit__(self, *_exc) -> None:
        global ACTIVE
        ACTIVE = self._previous
        if self._previous is not None:
            registry().register_collector("kernels", self._previous.snapshot)
        else:
            registry().unregister_collector("kernels")
