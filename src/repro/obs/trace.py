"""Structured spans: the tracing half of :mod:`repro.obs`.

A *span* is one timed operation — a query being planned, a chunk being
walked, a join being led — identified by a 64-bit span id, grouped into a
*trace* by a 128-bit trace id, and nested through a parent span id.  The
API is one context manager::

    with trace("engine.answer", tables=len(query.tables)) as span:
        ...
        span.set("rows", completed.num_rows)

Design constraints, in priority order:

* **Off by default with a no-op fast path.**  ``trace(...)`` with tracing
  disabled returns a module-level singleton whose ``__enter__`` /
  ``__exit__`` / ``set`` / ``event`` do nothing — no allocation, no clock
  read, no lock.  The serving and completion hot paths are permanently
  instrumented, so this path is benchmarked
  (:mod:`benchmarks.bench_obs`) and must stay within its overhead bound.
* **Thread- and process-safe collection.**  Finished spans land in the
  process-wide :class:`Tracer` under a lock; spans are plain picklable
  dataclasses, so a worker process ships its spans back over the wire
  and the router ingests them into one stitched tree
  (:meth:`Tracer.ingest`).
* **Monotonic timing, wall-clock anchoring.**  Durations come from
  ``perf_counter_ns``; each tracer also records a wall-clock anchor so
  exported timestamps from different processes on one machine line up.
* **Sampling.**  ``enable_tracing(sample_rate=...)`` traces that fraction
  of *root* spans (decided per trace, deterministic counter-based, never
  mid-trace), bounding overhead under heavy traffic.

Context propagation uses :mod:`contextvars`, which follows asyncio tasks
natively.  Pool threads do **not** inherit context; code that hands work
to a thread pool carries the :class:`TraceContext` explicitly (see
``CoreRequest.trace_ctx`` in :mod:`repro.serving.core`) and re-activates
it with :func:`activate`.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "trace",
    "activate",
    "current_context",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "get_tracer",
    "set_tracer",
]


# ----------------------------------------------------------------------
# Span model
# ----------------------------------------------------------------------

@dataclass
class Span:
    """One finished (or in-flight) timed operation.

    Times are microseconds: ``start_us`` on the tracer's wall-anchored
    monotonic axis, ``duration_us`` pure monotonic.  ``attrs`` values must
    stay JSON-representable (numbers, strings, bools) — exporters emit
    them verbatim.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_us: int
    duration_us: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)
    pid: int = 0
    thread: str = ""
    events: List[Tuple[str, int]] = field(default_factory=list)

    def set(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def event(self, name: str) -> None:
        """Mark an instant within the span (exported as its offset)."""
        self.events.append((name, time.perf_counter_ns() // 1000))


@dataclass(frozen=True)
class TraceContext:
    """The (trace id, active span id, sampled) triple that crosses seams.

    Picklable and tiny: this is what rides on request objects between
    event loop and pool threads, and in wire frames between router and
    worker processes.
    """

    trace_id: str
    span_id: Optional[str]
    sampled: bool = True

    def as_wire(self) -> dict:
        return {"trace_id": self.trace_id, "parent_span_id": self.span_id,
                "sampled": self.sampled}

    @classmethod
    def from_wire(cls, payload: Optional[dict]) -> Optional["TraceContext"]:
        if not payload:
            return None
        trace_id = payload.get("trace_id")
        if not trace_id:
            return None
        return cls(
            trace_id=str(trace_id),
            span_id=payload.get("parent_span_id"),
            sampled=bool(payload.get("sampled", True)),
        )


_context: "contextvars.ContextVar[Optional[TraceContext]]" = \
    contextvars.ContextVar("repro_obs_trace_context", default=None)


def current_context() -> Optional[TraceContext]:
    """The active trace context of this task/thread, if any."""
    return _context.get()


class _ContextToken:
    """Restores the previous context on exit (plain ``with activate(...)``)."""

    __slots__ = ("_token",)

    def __init__(self, token: "contextvars.Token"):
        self._token = token

    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc) -> None:
        _context.reset(self._token)


def activate(ctx: Optional[TraceContext]) -> _ContextToken:
    """Make ``ctx`` the ambient trace context (context-manager scoped).

    Used where contextvars cannot flow by themselves: a pool thread
    serving a request created on the event loop, or a worker process
    resuming a trace begun by the router.
    """
    return _ContextToken(_context.set(ctx))


# ----------------------------------------------------------------------
# Tracer (per-process span collection)
# ----------------------------------------------------------------------

class Tracer:
    """Thread-safe collector of finished spans for one process.

    Spans are kept in a bounded buffer (oldest dropped first, counted in
    :attr:`dropped`) and queried per trace id — the fleet worker drains a
    request's spans into its answer frame with :meth:`take`.
    """

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self.dropped = 0
        # Wall-clock anchor: start_us = anchor_wall_us + (mono - anchor_mono).
        self._anchor_wall_us = time.time_ns() // 1000
        self._anchor_mono_us = time.perf_counter_ns() // 1000

    def now_us(self) -> int:
        """Monotonic microseconds on this tracer's wall-anchored axis."""
        return self._anchor_wall_us + (
            time.perf_counter_ns() // 1000 - self._anchor_mono_us
        )

    def add(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self._spans.pop(0)
                self.dropped += 1
            self._spans.append(span)

    def ingest(self, spans: List[Span]) -> None:
        """Adopt spans produced elsewhere (another process, over the wire)."""
        for span in spans:
            self.add(span)

    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        with self._lock:
            if trace_id is None:
                return list(self._spans)
            return [s for s in self._spans if s.trace_id == trace_id]

    def take(self, trace_id: str) -> List[Span]:
        """Remove and return every span of one trace (wire hand-off)."""
        with self._lock:
            taken = [s for s in self._spans if s.trace_id == trace_id]
            if taken:
                self._spans = [
                    s for s in self._spans if s.trace_id != trace_id
                ]
            return taken

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# ----------------------------------------------------------------------
# Global state and the no-op fast path
# ----------------------------------------------------------------------

class _NoopSpan:
    """The disabled-path span: every method is a constant no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None

    def set(self, key: str, value: object) -> None:
        return None

    def event(self, name: str) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class _UnsampledSpan:
    """A sampled-out *root*: collects nothing, but pins a not-sampled
    context for its scope so descendants are suppressed too — a trace is
    always complete or absent, never partial."""

    __slots__ = ("_token",)

    def __init__(self) -> None:
        self._token = _context.set(_UNSAMPLED_CONTEXT)

    def __enter__(self) -> "_NoopSpan":
        return NOOP_SPAN

    def __exit__(self, *_exc) -> None:
        _context.reset(self._token)


_UNSAMPLED_CONTEXT = TraceContext("", None, sampled=False)


class _State:
    """Mutable tracing state, one instance per process."""

    __slots__ = ("enabled", "sample_rate", "tracer", "counter", "lock")

    def __init__(self) -> None:
        self.enabled = False
        self.sample_rate = 1.0
        self.tracer = Tracer()
        self.counter = 0
        self.lock = threading.Lock()


_state = _State()


def tracing_enabled() -> bool:
    return _state.enabled


def enable_tracing(sample_rate: float = 1.0, tracer: Optional[Tracer] = None) -> Tracer:
    """Turn span collection on; returns the active tracer.

    ``sample_rate`` in (0, 1] samples that fraction of *root* spans —
    the decision is made once per trace, deterministically (every
    ``round(1/rate)``-th root), so a trace is always complete or absent,
    never partial.
    """
    if not 0.0 < sample_rate <= 1.0:
        raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate}")
    if tracer is not None:
        _state.tracer = tracer
    _state.sample_rate = sample_rate
    _state.counter = 0
    _state.enabled = True
    return _state.tracer


def disable_tracing() -> None:
    _state.enabled = False


def get_tracer() -> Tracer:
    return _state.tracer


def set_tracer(tracer: Tracer) -> None:
    _state.tracer = tracer


def _new_id(bits: int = 64) -> str:
    return os.urandom(bits // 8).hex()


def _sample_root() -> bool:
    rate = _state.sample_rate
    if rate >= 1.0:
        return True
    period = max(1, round(1.0 / rate))
    with _state.lock:
        _state.counter += 1
        return _state.counter % period == 1 or period == 1


class _LiveSpan:
    """An open span: context manager that records itself when it exits."""

    __slots__ = ("span", "_token", "_start_ns")

    def __init__(self, name: str, ctx: Optional[TraceContext], attrs: dict):
        tracer = _state.tracer
        if ctx is None:
            trace_id = _new_id(128)
            parent_id = None
        else:
            trace_id = ctx.trace_id
            parent_id = ctx.span_id
        self.span = Span(
            name=name,
            trace_id=trace_id,
            span_id=_new_id(64),
            parent_id=parent_id,
            start_us=tracer.now_us(),
            attrs=attrs,
            pid=os.getpid(),
            thread=threading.current_thread().name,
        )
        self._start_ns = time.perf_counter_ns()
        self._token = _context.set(
            TraceContext(trace_id, self.span.span_id, True)
        )

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, _tb) -> None:
        self.span.duration_us = (
            time.perf_counter_ns() - self._start_ns
        ) // 1000
        if exc_type is not None:
            self.span.attrs["error"] = exc_type.__name__
        start_ns = self._start_ns
        if self.span.events:
            self.span.events = [
                (name, max(0, t_us - start_ns // 1000))
                for name, t_us in self.span.events
            ]
        _context.reset(self._token)
        _state.tracer.add(self.span)


def trace(name: str, **attrs):
    """Open a span named ``name`` (context manager yielding the span).

    The one instrumentation entry point.  Disabled (the default), it
    returns the shared no-op span immediately; enabled, it opens a child
    of the ambient context (or a sampled root when there is none) and
    records the finished span into the process tracer on exit.
    """
    if not _state.enabled:
        return NOOP_SPAN
    ctx = _context.get()
    if ctx is None:
        if not _sample_root():
            return _UnsampledSpan()
    elif not ctx.sampled:
        return NOOP_SPAN
    return _LiveSpan(name, ctx, attrs)
