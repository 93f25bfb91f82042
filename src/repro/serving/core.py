"""The transport-agnostic serving core.

:class:`ServingCore` is the synchronous brain every serving shell wraps:
pure request-in/answer-out over one fitted engine, owning the four
behaviours that make ReStore's train-once / query-many story scale —

* **admission & backpressure** — :class:`AdmissionGate` bounds the number
  of in-service requests and :meth:`ServingCore.admit` is the one
  non-blocking admission step; waiting is expressed as a *grant
  callback*, so a thread can block on it, an event loop can await it,
  and a wire shell can map a refusal to an overload frame, all against
  one policy object;
* **micro-batching & dispatch** — batch accounting plus
  :class:`Dispatcher`, the one serving loop every shell runs: a request
  queue, a pool of ``n_workers`` serving threads, and a collector thread
  that hands whatever is queued to the next free thread, then delivers
  each answer through the callback the shell put on its request;
* **join-signature grouping & single-flight** — a batch is partitioned by
  the engine's join signature and at most one incompleteness join per
  signature is ever in flight, fleet-ready because the bookkeeping is
  plain ``threading`` primitives;
* **stats** — every count, latency percentile, batch size and
  progressive metric lives in the core's own
  :class:`~repro.obs.metrics.MetricsRegistry` (``core.metrics``), beside
  the engine caches' collectors; :meth:`ServingCore.stats` is a view of
  it, shared by every shell.

This module imports **no asyncio** (a unit test enforces it).  The thin
shells live next door: :class:`repro.serving.CompletionService` (asyncio),
:class:`repro.serving.ServiceWorker` (process + wire protocol) and
:class:`repro.serving.FleetRouter` (multi-worker fan-out).  A shell only
admits requests into a :class:`Dispatcher` and says how an answer reaches
its caller; closing the dispatcher answers everything admitted, so every
shell drains the same way.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.engine import Answer, ReStore
from ..core.models import _CompletionModelBase
from ..core.progressive import Refinement, SamplingBudget
from ..core.selection import SuspectedBias
from ..errors import (
    ConfigurationError,
    ServiceOverloadedError,
)
from ..obs import activate, current_context, get_logger, trace
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceContext
from ..query import Query, parse_query, validate_query_columns

QueryLike = Union[str, Query]

#: Terminal marker a progressive subscriber receives after the last
#: refinement of a successful flight (errors are delivered as themselves).
FLIGHT_DONE = object()


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs shared by every serving shell over one core."""

    max_queue: int = 64          #: in-service request bound (backpressure beyond it)
    max_batch: int = 16          #: requests per micro-batch, at most
    n_workers: int = 2           #: completion worker threads
    latency_window: int = 2048   #: latency samples kept for the percentiles

    def __post_init__(self) -> None:
        for name in ("max_queue", "max_batch", "n_workers", "latency_window"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"ServiceConfig.{name} must be an integer, got {value!r}"
                )
            if value < 1:
                raise ConfigurationError(
                    f"ServiceConfig.{name} must be >= 1, got {value}"
                )


@dataclass
class ServiceStats:
    """A point-in-time snapshot of serving behaviour."""

    requests: int
    completed: int
    failed: int
    rejected: int
    queued: int
    batches: int
    mean_batch_size: float
    max_batch_size: int
    joins_started: int
    coalesced_requests: int
    p50_latency_ms: float
    p95_latency_ms: float
    #: admission to the moment a serving thread starts the request's group
    p50_queue_wait_ms: float
    p95_queue_wait_ms: float
    queue_wait_samples: int
    cache: dict
    progressive: dict
    partial_cache: dict
    swaps: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


#: What a core counts, each a ``serving.<name>`` counter of its registry.
_COUNTS = (
    "requests", "completed", "failed", "rejected", "batches",
    "joins_started", "coalesced_requests",
    "progressive_queries", "progressive_flights", "progressive_coalesced",
    "refinements_emitted", "swaps",
)


@dataclass
class CoreRequest:
    """One query travelling through the core; its shell sets ``deliver``."""

    query: Query
    enqueued_at: float
    suspected_bias: Optional[SuspectedBias] = None
    tenant: str = "default"
    #: trace context of the submitter — contextvars do not flow into pool
    #: threads, so the context rides on the request and ``serve_group``
    #: re-activates it around the engine call.
    trace_ctx: Optional[TraceContext] = None
    #: how a :class:`Dispatcher` hands back the outcome (an
    #: :class:`Answer` or the exception the request failed with); called
    #: once, from a serving or collector thread.
    deliver: Optional[Callable[[object], None]] = None


class AdmissionGate:
    """Bounded in-service admission with FIFO slot handoff.

    Transport-agnostic: :meth:`acquire` without a callback blocks the
    calling thread; with a *grant* callback the slot is handed over
    asynchronously (possibly immediately, from the caller's own frame, or
    later from whichever thread releases a slot).  Shells translate the
    callback into their native waiting primitive.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(
                f"AdmissionGate capacity must be >= 1, got {capacity}"
            )
        self._capacity = capacity
        self._lock = threading.Lock()
        self._in_service = 0
        self._waiters: deque = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    def in_service(self) -> int:
        with self._lock:
            return self._in_service

    def try_acquire(self) -> bool:
        """Take a slot if one is free right now (never queues)."""
        with self._lock:
            if self._in_service < self._capacity and not self._waiters:
                self._in_service += 1
                return True
            return False

    def acquire(self, grant: Optional[Callable[[], None]] = None) -> None:
        """Take a slot, waiting FIFO behind earlier waiters.

        Without ``grant`` the calling thread blocks until the slot is
        held.  With ``grant``, the callback fires exactly once when the
        slot is held — from this frame if a slot is free, else from the
        releasing thread.
        """
        if grant is None:
            event = threading.Event()
            self.acquire(event.set)
            event.wait()
            return
        with self._lock:
            if self._in_service < self._capacity and not self._waiters:
                self._in_service += 1
            else:
                self._waiters.append(grant)
                grant = None
        if grant is not None:
            grant()

    def release(self) -> None:
        """Free a slot; a queued waiter (FIFO) inherits it directly.

        With no slot held it raises :class:`RuntimeError` instead of
        letting a double release admit one request beyond capacity."""
        with self._lock:
            if self._waiters:
                grant = self._waiters.popleft()
            elif self._in_service:
                grant = None
                self._in_service -= 1
            else:
                raise RuntimeError("AdmissionGate.release() with no slot held")
        if grant is not None:
            grant()


class Dispatcher:
    """The one serving loop: queue, batch, fan out, deliver.

    A shell admits requests through the core (:meth:`ServingCore.admit`)
    and :meth:`put`\\ s them here; the rest happens on this object's
    threads.  A collector thread waits until one of the ``n_workers``
    serving threads is free, then takes whatever is queued, up to
    ``max_batch`` — no timer holds a batch open, and while every thread
    is busy the requests arriving meanwhile form the next batch.  It
    records the batch, groups it by join signature and fans the groups
    out over the pool.  Each request's admission slot is released, then
    its outcome goes to its :attr:`CoreRequest.deliver`.

    :meth:`close` answers everything put before it, stops the threads and
    re-raises the first exception a delivery raised: one failing delivery
    never keeps the other requests from their answers.
    """

    def __init__(self, core: "ServingCore"):
        self.core = core
        self.max_batch = core.config.max_batch
        self.n_workers = core.config.n_workers
        # Unbounded: the admission gate already caps in-service requests.
        self._queue: deque = deque()
        self._changed = threading.Condition()
        self._busy = 0  #: dispatched groups not yet finished
        self._closing = False
        self._errors: List[BaseException] = []
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="restore-serve"
        )
        self._collector = threading.Thread(
            target=self._collect, name="restore-serve-collect", daemon=True
        )
        self._collector.start()

    def put(self, *requests: CoreRequest) -> None:
        """Queue admitted requests (each holds its slot until delivery).

        Requests put in one call are seen together, so they share a batch
        as far as ``max_batch`` allows.
        """
        with self._changed:
            self._queue.extend(requests)
            # While every thread is busy the collector waits for a thread,
            # not a request: waking it would only put it back to sleep.
            if self._busy < self.n_workers:
                self._changed.notify()

    def qsize(self) -> int:
        return len(self._queue)

    def run(self, fn: Callable, *args) -> Future:
        """Run other serving work (a progressive flight, a hot swap) on
        the pool, in a copy of the caller's context so its trace carries
        on there; the caller owns the returned future."""
        return self._pool.submit(contextvars.copy_context().run, fn, *args)

    def close(self) -> None:
        """Answer everything put so far, stop, then re-raise the first
        delivery error.  Nothing may be :meth:`put` once this is called."""
        with self._changed:
            self._closing = True
            self._changed.notify()
        self._collector.join()
        self._pool.shutdown(wait=True)
        if self._errors:
            raise self._errors[0]

    def _next_batch(self) -> Optional[List[CoreRequest]]:
        """Wait for a free serving thread and a queued request, then take
        what is queued; ``None`` once closing with nothing left."""
        with self._changed:
            self._changed.wait_for(
                lambda: (self._queue and self._busy < self.n_workers)
                or (self._closing and not self._queue)
            )
            take = min(len(self._queue), self.max_batch)
            return [self._queue.popleft() for _ in range(take)] or None

    def _collect(self) -> None:
        core = self.core
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            core.record_batch(len(batch))
            groups, failures = core.group(batch)
            for request, exc in failures:
                self._deliver(request, exc)
            for signature, (model, members) in groups.items():
                # Never blocks: groups beyond the free threads wait in the
                # pool's own queue.
                with self._changed:
                    self._busy += 1
                self._pool.submit(self._serve, model, members, signature)

    def _serve(self, model, requests: List[CoreRequest], signature) -> None:
        """One group on a pool thread: answer, deliver, free the thread."""
        try:
            try:
                results = self.core.serve_group(model, requests, signature)
            except BaseException as exc:  # a fault in the core itself
                self._errors.append(exc)
                self.core.count_failed(len(requests))
                results = [exc] * len(requests)
            for request, result in zip(requests, results):
                self._deliver(request, result)
        finally:
            with self._changed:
                self._busy -= 1
                # A free thread matters to the collector only when a
                # request waits for it, or to let close() finish.
                if self._queue or self._closing:
                    self._changed.notify()

    def _deliver(self, request: CoreRequest, outcome) -> None:
        # Free the slot first: a client that sends its next request as
        # soon as this reply lands must find the slot free.
        self.core.gate.release()
        try:
            request.deliver(outcome)
        except BaseException as exc:  # re-raised by close()
            self._errors.append(exc)


class _InflightJoin:
    """Single-flight record: followers wait on the leader's event."""

    __slots__ = ("event", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.error: Optional[BaseException] = None


class ProgressiveFlight:
    """One in-flight progressive run shared by coalesced subscribers.

    Synchronous and lock-ordered: :meth:`subscribe` replays the
    refinements already emitted and registers a ``deliver`` callback under
    the same lock publications take, so every subscriber observes the one
    true sequence — refinements in order, then :data:`FLIGHT_DONE` (or the
    flight's exception) exactly once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.history: List[Refinement] = []
        self._subscribers: List[Callable[[object], None]] = []
        self.done = False
        self.error: Optional[BaseException] = None

    def subscribe(self, deliver: Callable[[object], None]) -> None:
        with self._lock:
            for refinement in self.history:
                deliver(refinement)
            if self.done:
                deliver(self.error if self.error is not None else FLIGHT_DONE)
            else:
                self._subscribers.append(deliver)

    def publish(self, refinement: Refinement) -> None:
        with self._lock:
            self.history.append(refinement)
            for deliver in self._subscribers:
                deliver(refinement)

    def finish(self, error: Optional[BaseException]) -> None:
        with self._lock:
            self.done = True
            self.error = error
            sentinel = error if error is not None else FLIGHT_DONE
            for deliver in self._subscribers:
                deliver(sentinel)
            self._subscribers.clear()


class ServingCore:
    """Synchronous, transport-agnostic serving over one fitted engine.

    Pure request-in/answer-out: :meth:`submit` answers one query with
    admission control; :meth:`serve_batch` answers a whole micro-batch
    with join-signature grouping and single-flight coalescing, on the
    calling thread.  Shells :meth:`prepare` and :meth:`admit` on their
    front-end and hand requests to a :class:`Dispatcher`, which drives
    :meth:`group` and :meth:`serve_group` on its threads; every path
    counts in the same registry (:attr:`metrics`), so :meth:`stats` is
    truthful no matter which transport drove the work.

    Thread-safe throughout; contains no event loop and no asyncio.
    """

    def __init__(
        self,
        engine: ReStore,
        config: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.engine = engine
        self.config = config or ServiceConfig()
        self.clock = clock
        self.gate = AdmissionGate(self.config.max_queue)
        # Per-instance registry, the core's one accounting surface: its
        # counts, its latency/batch/utilization distributions (one
        # percentile implementation for every stats surface) and, through
        # collectors, the engine's caches.  stats() is a view of it.
        window = self.config.latency_window
        self.metrics = MetricsRegistry()
        self._counts = {
            name: self.metrics.counter(f"serving.{name}") for name in _COUNTS
        }
        self._latency_hist = self.metrics.histogram("serving.latency_ms", window)
        self._queue_wait_hist = self.metrics.histogram(
            "serving.queue_wait_ms", window
        )
        self._batch_hist = self.metrics.histogram("serving.batch_size", window)
        self._utilization_hist = self.metrics.histogram(
            "serving.budget_utilization", window
        )
        self._register_cache_collectors()
        self._log = get_logger("serving.core")
        self._join_lock = threading.Lock()
        self._inflight_joins: Dict[Tuple, _InflightJoin] = {}
        self._flight_lock = threading.Lock()
        self._progressive_flights: Dict[Tuple, ProgressiveFlight] = {}
        self._swap_lock = threading.Lock()

    def _register_cache_collectors(self) -> None:
        """(Re-)point the cache collectors at the current engine's cache —
        called at construction and after every hot swap."""
        self.engine.partial_cache.register_metrics(self.metrics)

    # ------------------------------------------------------------------
    # Front-end pieces (validation, admission, accounting)
    # ------------------------------------------------------------------
    def prepare(self, query: QueryLike) -> Query:
        """Parse (if SQL) and validate one query; errors name candidates."""
        if isinstance(query, str):
            query = parse_query(query)
        validate_query_columns(self.engine.db, query)
        return query

    def admit(self, wait: bool) -> bool:
        """Count one request and take an admission slot if one is free.

        The non-blocking step every shell shares; each shell waits its
        own way.  Returns ``False`` when the gate is full and the caller
        is to wait for a slot (``gate.acquire``).  With ``wait=False`` a
        full gate is counted as a rejection and raises
        :class:`~repro.errors.ServiceOverloadedError` instead.
        """
        self._counts["requests"].add()
        if self.gate.try_acquire():
            return True
        if wait:
            return False
        self._counts["rejected"].add()
        raise ServiceOverloadedError(
            f"{self.config.max_queue} requests already in service; "
            f"retry later or submit with wait=True"
        )

    def count_failed(self, n: int = 1) -> None:
        self._counts["failed"].add(n)

    def record_batch(self, size: int) -> None:
        self._counts["batches"].add()
        self._batch_hist.observe(size)

    # ------------------------------------------------------------------
    # Routing and grouping
    # ------------------------------------------------------------------
    def route(self, request: CoreRequest) -> Tuple[Optional[_CompletionModelBase], Tuple]:
        """Model selection → (model, join signature) for one request.

        Must stay cheap (the dispatcher's collector runs it between
        batches): plain selection is a ranked-list lookup.  *Suspected-bias* selection
        evaluates candidate aggregates on completed joins — real
        completion work — so those requests get a private group and the
        biased selection runs where the group is served.
        """
        engine = self.engine
        incomplete = [
            t for t in request.query.tables
            if not engine.annotation.is_complete(t)
        ]
        if not incomplete:
            # Complete-only queries share a per-table-set signature so they
            # batch together, but they never run an incompleteness join.
            return None, ("__complete__", tuple(sorted(request.query.tables)))
        if request.suspected_bias is not None:
            return None, ("__bias__", id(request))
        model = engine._completion_model(request.query)
        return model, engine.join_signature(model)

    def group(self, batch: List) -> Tuple[Dict[Tuple, Tuple[Optional[_CompletionModelBase], List]], List[Tuple[object, BaseException]]]:
        """Partition a batch by join signature (selection runs here).

        Returns ``(groups, failures)``: requests whose routing raised are
        counted failed and returned for the caller to answer.
        """
        groups: Dict[Tuple, Tuple[Optional[_CompletionModelBase], List]] = {}
        failures: List[Tuple[object, BaseException]] = []
        for request in batch:
            try:
                # Selection spans belong to the request's trace too.
                with activate(request.trace_ctx):
                    model, signature = self.route(request)
            except BaseException as exc:  # selection errors belong to the caller
                self.count_failed()
                failures.append((request, exc))
                continue
            groups.setdefault(signature, (model, []))[1].append(request)
        return groups, failures

    # ------------------------------------------------------------------
    # Single-flight joins and group serving
    # ------------------------------------------------------------------
    def _ensure_join(
        self,
        signature: Tuple,
        model: _CompletionModelBase,
        group_size: int,
        engine: Optional[ReStore] = None,
    ) -> None:
        """Single-flight: one incompleteness join per signature, ever.

        The first arriver becomes the *leader* and computes the join in
        its own thread; later groups (from any shell thread) wait on the
        leader's event and share its outcome.  Once the join lands in the
        engine's cache nobody computes it again.  ``engine`` pins the
        engine the caller routed against (hot-swap consistency).
        """
        if engine is None:
            engine = self.engine
        with self._join_lock:
            flight = self._inflight_joins.get(signature)
            if flight is None:
                if engine.join_cached(model):
                    # An ordinary cache hit, counted by the cache stats.
                    return
                flight = _InflightJoin()
                self._inflight_joins[signature] = flight
                leader = True
                self._counts["joins_started"].add()
                self._counts["coalesced_requests"].add(group_size - 1)
            else:
                leader = False
                self._counts["coalesced_requests"].add(group_size)
        if leader:
            with trace(
                "serve.single_flight", role="leader", group_size=group_size
            ):
                try:
                    engine.completed_join(model)
                except BaseException as exc:
                    flight.error = exc
                    raise
                finally:
                    with self._join_lock:
                        self._inflight_joins.pop(signature, None)
                    flight.event.set()
            return
        with trace(
            "serve.single_flight", role="follower", group_size=group_size
        ):
            flight.event.wait()
        if flight.error is not None:
            raise flight.error

    def serve_group(
        self,
        model: Optional[_CompletionModelBase],
        requests: List,
        signature: Optional[Tuple] = None,
    ) -> List:
        """Answer one signature group against its (single-flight) join.

        Returns one entry per request, aligned: an :class:`Answer` or the
        exception that request failed with.  Counters and latency samples
        are recorded here, so every shell reports identically.

        The engine reference is snapshotted once on entry: a concurrent
        :meth:`hot_swap` never splits one group across two engines.
        Entry is also where each request's queue wait ends.
        """
        engine = self.engine
        started = self.clock()
        for request in requests:
            self._queue_wait_hist.observe(
                (started - request.enqueued_at) * 1000.0
            )
        # The group span (and the single-flight span under it) attaches to
        # the first traced requester — pool threads have no ambient context.
        group_ctx = next(
            (r.trace_ctx for r in requests
             if getattr(r, "trace_ctx", None) is not None),
            current_context(),
        )
        with activate(group_ctx):
            with trace("serve.group", group_size=len(requests)):
                if model is not None and signature is not None:
                    try:
                        self._ensure_join(signature, model, len(requests), engine)
                    except BaseException as exc:
                        self.count_failed(len(requests))
                        return [exc] * len(requests)
                results: List = []
                for request in requests:
                    try:
                        answer = self._answer_request(engine, model, request)
                    except BaseException as exc:
                        self.count_failed()
                        results.append(exc)
                    else:
                        now = self.clock()
                        self._counts["completed"].add()
                        self._latency_hist.observe(
                            (now - request.enqueued_at) * 1000.0
                        )
                        results.append(answer)
                return results

    def _answer_request(
        self, engine: ReStore, model: Optional[_CompletionModelBase], request
    ) -> Answer:
        """One request's engine call, under the request's own trace context."""
        ctx = getattr(request, "trace_ctx", None)
        with activate(ctx if ctx is not None else current_context()):
            if model is None:
                return engine.answer(
                    request.query, suspected_bias=request.suspected_bias
                )
            return engine.answer(request.query, model=model)

    def serve_batch(self, requests: List) -> List:
        """Group and answer one micro-batch; results align with ``requests``.

        The fully synchronous path (direct use, tests): no threads, no
        ``deliver``; shells go through a :class:`Dispatcher` instead.
        """
        self.record_batch(len(requests))
        results: List = [None] * len(requests)
        position = {id(r): i for i, r in enumerate(requests)}
        groups, failures = self.group(requests)
        for request, exc in failures:
            results[position[id(request)]] = exc
        for signature, (model, members) in groups.items():
            for request, outcome in zip(
                members, self.serve_group(model, members, signature)
            ):
                results[position[id(request)]] = outcome
        return results

    def submit(
        self,
        query: QueryLike,
        suspected_bias: Optional[SuspectedBias] = None,
        wait: bool = True,
        tenant: str = "default",
    ) -> Answer:
        """Pure request-in/answer-out: admit, serve, account, return.

        With ``wait=False`` a full admission gate raises
        :class:`~repro.errors.ServiceOverloadedError` instead of blocking.
        """
        with trace("serve.submit", tenant=tenant):
            query = self.prepare(query)
            if not self.admit(wait):
                self.gate.acquire()
            try:
                request = CoreRequest(
                    query=query,
                    enqueued_at=self.clock(),
                    suspected_bias=suspected_bias,
                    tenant=tenant,
                    trace_ctx=current_context(),
                )
                [result] = self.serve_batch([request])
            finally:
                self.gate.release()
            if isinstance(result, BaseException):
                raise result
            return result

    # ------------------------------------------------------------------
    # Hot swap (zero-downtime engine replacement)
    # ------------------------------------------------------------------
    def hot_swap(self, artifact_path) -> dict:
        """Replace the serving engine with one loaded from ``artifact_path``.

        The replacement is fully loaded and validated *before* anything is
        swapped, so a corrupt or incompatible artifact raises its taxonomy
        error (:class:`~repro.errors.ArtifactError` and friends) and the
        old engine keeps serving untouched.  The swap itself is one
        reference assignment: requests already routed against the old
        engine finish on it (its caches and models stay alive as long as
        any group holds them), while every request prepared after the swap
        sees the new engine.  Serialized under a lock so concurrent swaps
        cannot interleave.
        """
        from .artifacts import read_manifest

        with trace("serve.hot_swap") as span:
            new_engine = ReStore.load(artifact_path)
            manifest = read_manifest(artifact_path)
            with self._swap_lock:
                old_engine = self.engine
                self.engine = new_engine
                self._register_cache_collectors()
                self._counts["swaps"].add()
            span.set("scenario", manifest.get("scenario"))
            self._log.info(
                "core.swap",
                artifact=str(artifact_path),
                scenario=manifest.get("scenario"),
                previous=getattr(old_engine, "scenario_name", None),
            )
        return {
            "artifact_path": str(artifact_path),
            "database_digest": manifest.get("database_digest"),
            "scenario": manifest.get("scenario"),
            "num_models": sum(
                len(scores) for scores in new_engine._candidates.values()
            ),
            "previous_scenario": getattr(old_engine, "scenario_name", None),
            "lineage": manifest.get("lineage"),
        }

    # ------------------------------------------------------------------
    # Progressive flights (single-flight refinement streams)
    # ------------------------------------------------------------------
    def progressive_key(
        self,
        query: Query,
        budget: SamplingBudget,
        suspected_bias: Optional[SuspectedBias],
    ) -> Tuple:
        return (repr(query), repr(suspected_bias), budget)

    def open_progressive(self, key: Tuple) -> Tuple[ProgressiveFlight, bool]:
        """Join (or start) the flight for ``key``; returns (flight, created).

        When ``created`` is true the caller owns driving the flight —
        typically by running :meth:`drive_progressive` on a worker thread.
        """
        with self._flight_lock:
            flight = self._progressive_flights.get(key)
            created = flight is None
            if created:
                flight = ProgressiveFlight()
                self._progressive_flights[key] = flight
        self._counts["progressive_queries"].add()
        self._counts[
            "progressive_flights" if created else "progressive_coalesced"
        ].add()
        return flight, created

    def drive_progressive(
        self,
        key: Tuple,
        flight: ProgressiveFlight,
        query: Query,
        budget: SamplingBudget,
        suspected_bias: Optional[SuspectedBias],
    ) -> None:
        """Leader body: run the engine's refinement loop and publish.

        Deregisters the flight *before* finishing it, so a subscriber that
        arrives after the final refinement starts a fresh flight instead
        of replaying a dead one.
        """
        last: Optional[Refinement] = None
        error: Optional[BaseException] = None
        try:
            for refinement in self.engine.answer_progressive(
                query, budget=budget, suspected_bias=suspected_bias
            ):
                last = refinement
                self._counts["refinements_emitted"].add()
                flight.publish(refinement)
        except BaseException as exc:
            error = exc
        if last is not None:
            self._utilization_hist.observe(last.budget_utilization)
        with self._flight_lock:
            self._progressive_flights.pop(key, None)
        flight.finish(error)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self, queued: int = 0) -> ServiceStats:
        """A view of :attr:`metrics`: its ``serving.*`` counters, latency
        and queue-wait percentiles, batch-size window and cache
        collectors; ``queued`` is supplied by the shell, from its
        :class:`Dispatcher`."""
        snapshot = self.metrics.snapshot()
        count = {
            name: snapshot["counters"][f"serving.{name}"] for name in _COUNTS
        }
        histograms = snapshot["histograms"]
        latency = histograms["serving.latency_ms"]
        queue_wait = histograms["serving.queue_wait_ms"]
        sizes = self._batch_hist.values()
        flights = count["progressive_flights"]
        progressive = {
            "queries": count["progressive_queries"],
            "flights": flights,
            "coalesced_queries": count["progressive_coalesced"],
            "refinements_emitted": count["refinements_emitted"],
            "mean_refinements_per_flight": (
                count["refinements_emitted"] / flights if flights else 0.0
            ),
            "mean_budget_utilization": (
                histograms["serving.budget_utilization"]["mean"]
            ),
        }
        return ServiceStats(
            requests=count["requests"],
            completed=count["completed"],
            failed=count["failed"],
            rejected=count["rejected"],
            queued=queued,
            batches=count["batches"],
            mean_batch_size=float(np.mean(sizes)) if sizes else 0.0,
            max_batch_size=int(max(sizes)) if sizes else 0,
            joins_started=count["joins_started"],
            coalesced_requests=count["coalesced_requests"],
            p50_latency_ms=latency["p50"],
            p95_latency_ms=latency["p95"],
            p50_queue_wait_ms=queue_wait["p50"],
            p95_queue_wait_ms=queue_wait["p95"],
            queue_wait_samples=queue_wait["count"],
            cache=snapshot["collected"]["join_cache"],
            progressive=progressive,
            partial_cache=snapshot["collected"]["partial_cache"],
            swaps=count["swaps"],
        )
