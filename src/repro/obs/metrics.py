"""The process-wide metrics registry: counters, gauges, histograms.

Every layer of the pipeline used to keep private counters with private
percentile code (``ServingCore.stats``, ``FleetRouter.router_stats``, the
completion cache); :class:`MetricsRegistry` is the one accounting surface
they now share.  Three instrument kinds:

* :class:`Counter` — monotonic, lock-protected ``add``; a
  Barrier-hammering concurrency test pins that increments are never lost.
* :class:`Gauge` — last-write-wins point value.
* :class:`Histogram` — a bounded observation window with p50/p95/p99 at
  snapshot time.  The percentile implementation is *the* one the serving
  layers report through (``numpy.percentile`` over the window, linear
  interpolation), so every layer's p50/p95 agrees by construction.

Registries also accept *collectors* — callables returning a dict — for
stats that already live elsewhere (the completion cache's monotonic counters);
``snapshot()`` folds them in, so one call truthfully describes the whole
process.  :func:`registry` returns the process-wide default instance.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "current_rss_bytes",
    "peak_rss_bytes",
    "registry",
    "reset_peak_rss",
    "set_registry",
    "update_process_gauges",
]


class Counter:
    """A monotonic counter; ``add`` is atomic under the instrument lock."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def add(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    inc = add

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value (queue depth, workers alive, ...)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Bounded-window observations with percentile summaries.

    ``window`` bounds memory exactly like the serving layers' old latency
    deques did; ``count``/``total`` stay monotonic over the full history.
    ``percentile`` matches ``np.percentile`` over the current window —
    the single implementation every stats surface now reports through.
    """

    __slots__ = ("name", "window", "_lock", "_values", "_count", "_total",
                 "_min", "_max")

    def __init__(self, name: str, window: int = 2048):
        if window < 1:
            raise ValueError(f"Histogram window must be >= 1, got {window}")
        self.name = name
        self.window = window
        self._lock = threading.Lock()
        self._values: deque = deque(maxlen=window)
        self._count = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._values.append(value)
            self._count += 1
            self._total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def values(self) -> List[float]:
        """The current observation window (oldest first)."""
        with self._lock:
            return list(self._values)

    def percentile(self, q: float) -> float:
        """``np.percentile`` of the window; 0.0 when empty (as the old
        hand-rolled stats paths reported)."""
        with self._lock:
            if not self._values:
                return 0.0
            values = np.asarray(self._values, dtype=float)
        return float(np.percentile(values, q))

    def mean(self) -> float:
        with self._lock:
            if not self._values:
                return 0.0
            return float(np.mean(np.asarray(self._values, dtype=float)))

    def summary(self) -> dict:
        with self._lock:
            values = np.asarray(self._values, dtype=float)
            count, total = self._count, self._total
            vmin, vmax = self._min, self._max
        out = {
            "count": count,
            "total": total,
            "min": vmin if vmin is not None else 0.0,
            "max": vmax if vmax is not None else 0.0,
            "mean": float(np.mean(values)) if len(values) else 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }
        if len(values):
            p50, p95, p99 = np.percentile(values, [50, 95, 99])
            out.update(p50=float(p50), p95=float(p95), p99=float(p99))
        return out

    def snapshot(self) -> dict:
        return self.summary()


class MetricsRegistry:
    """Named instruments plus external collectors, one truthful snapshot.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create (the same
    name always returns the same instrument — layers share instruments by
    naming convention, e.g. ``serving.latency_ms``).  ``histogram``
    re-requested with a different window keeps the original instrument:
    the window is a creation-time property.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: Dict[str, Callable[[], dict]] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str, window: int = 2048) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name, window)
            return instrument

    def register_collector(self, name: str, collect: Callable[[], dict]) -> None:
        """Fold an external stats source (e.g. a cache's counters) into
        snapshots under ``name``.  Re-registering replaces the collector —
        a reloaded engine's caches supersede the old engine's."""
        with self._lock:
            self._collectors[name] = collect

    def unregister_collector(self, name: str) -> None:
        with self._lock:
            self._collectors.pop(name, None)

    def snapshot(self) -> dict:
        """Everything, as plain JSON-ready data."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            collectors = dict(self._collectors)
        out = {
            "counters": {n: c.snapshot() for n, c in counters.items()},
            "gauges": {n: g.snapshot() for n, g in gauges.items()},
            "histograms": {n: h.snapshot() for n, h in histograms.items()},
        }
        collected = {}
        for name, collect in collectors.items():
            try:
                collected[name] = collect()
            except Exception as exc:  # a broken collector must not sink stats
                collected[name] = {"error": f"{type(exc).__name__}: {exc}"}
        if collected:
            out["collected"] = collected
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True,
                          default=str)

    def reset(self) -> None:
        """Drop every instrument and collector (tests and process reuse)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._collectors.clear()


# ----------------------------------------------------------------------
# Process memory accounting (Linux /proc; 0 where unavailable)
# ----------------------------------------------------------------------

def _proc_status_kb(field: str) -> int:
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def current_rss_bytes() -> int:
    """The process's resident set size right now (``VmRSS``)."""
    return _proc_status_kb("VmRSS") * 1024


def peak_rss_bytes() -> int:
    """The process's peak resident set size (``VmHWM``) since start or the
    last :func:`reset_peak_rss`."""
    return _proc_status_kb("VmHWM") * 1024


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS watermark to the current RSS.

    Writes ``5`` to ``/proc/self/clear_refs`` (Linux ≥ 4.0), which lets a
    benchmark measure the peak of one *phase* rather than of the whole
    process lifetime.  Returns whether the reset took effect.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def update_process_gauges(reg: Optional[MetricsRegistry] = None) -> dict:
    """Refresh the ``process.*`` memory gauges and return their values."""
    reg = reg if reg is not None else registry()
    values = {
        "process.rss_bytes": float(current_rss_bytes()),
        "process.peak_rss_bytes": float(peak_rss_bytes()),
    }
    for name, value in values.items():
        reg.gauge(name).set(value)
    return values


_default = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default


def set_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Replace the process default (tests isolate themselves this way)."""
    global _default
    _default = reg
    return reg
