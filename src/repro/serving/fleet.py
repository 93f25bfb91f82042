"""Multi-worker completion fleet: consistent-hash routing over workers.

:class:`FleetRouter` scales the serving tier the way the join executors
already scale — by process fan-out.  It spawns ``n_workers``
:class:`~repro.serving.ServiceWorker` processes from **one** versioned
artifact, connects to each over the length-prefixed wire protocol, and
routes every query by its **join signature** on a consistent-hash ring:

* *cold* completion work always lands on the *same* worker, so the
  core's single-flight coalescing keeps working **fleet-wide** — N
  identical concurrent queries still produce exactly one incompleteness
  join, on exactly one worker (the fleet benchmark proves it);
* once a signature is *warm* (answered at least once) affinity stops
  paying — the join replicates into each worker's cache at bounded cost
  — so warm completion traffic spreads by query identity and the whole
  fleet answers in parallel;
* complete-only queries (no incompleteness join, nothing to coalesce)
  always spread by query identity, keeping the ring balanced.

Overload policy: the router keeps at most ``max_pending`` requests
backlogged (queued + on the wire).  Beyond that it **sheds the oldest
queued** request — fresh interactive queries are worth more than stale
ones — failing it with :class:`~repro.errors.ServiceOverloadedError`.
Per-tenant quotas bound how much of the backlog one tenant may hold;
quota violations reject the *newcomer* instead of shedding others.

``stats()`` aggregates per-worker snapshots (p50/p95, joins, coalescing)
with the router's own counts and end-to-end latency percentiles (a view
of its registry, :attr:`FleetRouter.metrics`) into one
:class:`FleetStats`; after :meth:`FleetRouter.close`, the workers' final
``bye`` snapshots remain available as :attr:`final_worker_stats`.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import multiprocessing
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.engine import Answer, ReStore
from ..core.selection import SuspectedBias
from ..errors import (
    ConfigurationError,
    ProtocolError,
    ServiceClosedError,
    ServiceOverloadedError,
    WorkerError,
)
from ..obs import current_context, get_logger, get_tracer, trace
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceContext
from ..query import Query, parse_query, validate_query_columns
from ..runtime.parallel import _default_start_method
from .core import QueryLike, ServiceConfig
from .protocol import (
    HEADER,
    decode_payload,
    encode_frame,
    frame_length,
    raise_wire_error,
)
from .worker import remove_worker_socket, worker_main

__all__ = ["FleetRouter", "FleetConfig", "FleetStats", "ConsistentHashRing"]


@dataclass(frozen=True)
class FleetConfig:
    """Tuning knobs of one :class:`FleetRouter`."""

    n_workers: int = 2            #: worker processes spawned from the artifact
    max_pending: int = 1024       #: fleet-wide backlog bound (shed beyond it)
    dispatch_window: int = 32     #: per-worker requests on the wire at once
    tenant_quota: Optional[int] = None  #: per-tenant backlog bound (None = off)
    virtual_nodes: int = 64       #: ring vnodes per worker (routing smoothness)
    connect_timeout_s: float = 180.0    #: worker spawn/connect readiness deadline
    latency_window: int = 8192    #: router-side latency samples kept
    worker: ServiceConfig = field(default_factory=ServiceConfig)

    def __post_init__(self) -> None:
        for name in ("n_workers", "max_pending", "dispatch_window",
                     "virtual_nodes", "latency_window"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"FleetConfig.{name} must be an integer, got {value!r}"
                )
            if value < 1:
                raise ConfigurationError(
                    f"FleetConfig.{name} must be >= 1, got {value}"
                )
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise ConfigurationError(
                f"FleetConfig.tenant_quota must be >= 1 or None, "
                f"got {self.tenant_quota}"
            )
        if not self.connect_timeout_s > 0:
            raise ConfigurationError(
                f"FleetConfig.connect_timeout_s must be > 0, "
                f"got {self.connect_timeout_s!r}"
            )
        if self.dispatch_window > self.worker.max_queue:
            raise ConfigurationError(
                f"FleetConfig.dispatch_window ({self.dispatch_window}) must "
                f"not exceed the worker's max_queue ({self.worker.max_queue}) "
                f"or workers would reject dispatched requests as overload"
            )


class ConsistentHashRing:
    """A classic consistent-hash ring with virtual nodes.

    Deterministic (sha1, no process salt), so every router instance maps
    the same key to the same worker; removing a node only remaps the keys
    that lived on it.
    """

    def __init__(self, nodes: Sequence[int], virtual_nodes: int = 64):
        if virtual_nodes < 1:
            raise ConfigurationError(
                f"virtual_nodes must be >= 1, got {virtual_nodes}"
            )
        self.virtual_nodes = virtual_nodes
        self._hashes: List[int] = []
        self._owners: List[int] = []
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha1(value.encode("utf-8")).digest()[:8], "big"
        )

    def add(self, node: int) -> None:
        for vnode in range(self.virtual_nodes):
            point = self._hash(f"node:{node}:{vnode}")
            index = bisect.bisect(self._hashes, point)
            self._hashes.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: int) -> None:
        keep = [(h, o) for h, o in zip(self._hashes, self._owners) if o != node]
        self._hashes = [h for h, _ in keep]
        self._owners = [o for _, o in keep]

    def node_for(self, key: str) -> int:
        if not self._hashes:
            raise WorkerError("consistent-hash ring is empty (no workers)")
        point = self._hash(key)
        index = bisect.bisect(self._hashes, point) % len(self._hashes)
        return self._owners[index]


@dataclass
class FleetStats:
    """One aggregated snapshot: router counters + per-worker cores."""

    workers: int
    requests: int
    completed: int
    failed: int
    shed: int
    rejected: int
    queued: int
    inflight: int
    p50_latency_ms: float          #: router-observed, end to end
    p95_latency_ms: float
    joins_started: int             #: summed across workers
    coalesced_requests: int        #: summed across workers
    per_worker: List[dict]         #: each worker core's stats().as_dict()

    def as_dict(self) -> dict:
        out = asdict(self)
        out["worker_p50_latency_ms"] = [
            w.get("p50_latency_ms", 0.0) for w in self.per_worker
        ]
        out["worker_p95_latency_ms"] = [
            w.get("p95_latency_ms", 0.0) for w in self.per_worker
        ]
        out["per_worker"] = out.pop("per_worker")  # keeps the key order
        return out


@dataclass
class _Pending:
    """One routed request while it waits for its worker's answer."""

    request_id: int
    query: Query
    tenant: str
    future: "asyncio.Future"
    enqueued_at: float
    suspected_bias: Optional[SuspectedBias] = None
    signature: Optional[Tuple] = None  #: join signature, for warm-marking
    trace_ctx: Optional[TraceContext] = None  #: submitter's trace context


class _WorkerClient:
    """Router-side state for one worker process."""

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.reader: Optional["asyncio.StreamReader"] = None
        self.writer: Optional["asyncio.StreamWriter"] = None
        self.reader_task: Optional["asyncio.Task"] = None
        self.queue: deque = deque()          # routed, not yet on the wire
        self.inflight: Dict[int, _Pending] = {}
        self.waiters: Dict[int, "asyncio.Future"] = {}  # id -> reply frame
        self.bye_future: Optional["asyncio.Future"] = None
        self.final_stats: Optional[dict] = None
        self.alive = False
        self.socket_path: Optional[str] = None  #: AF_UNIX address, if any

    def backlog(self) -> int:
        return len(self.queue) + len(self.inflight)


def _remove_socket(client: _WorkerClient) -> None:
    """A killed or terminated worker cannot remove its own socket dir."""
    if client.socket_path is not None:
        remove_worker_socket(client.socket_path)


async def _read_frame(reader: "asyncio.StreamReader") -> Optional[dict]:
    try:
        header = await reader.readexactly(HEADER.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    length = frame_length(header)
    try:
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_payload(payload)


#: What a router counts, each a ``fleet.<name>`` counter of its registry.
_COUNTS = ("requests", "completed", "failed", "shed", "rejected")


class FleetRouter:
    """Serve one artifact from N worker processes behind one ``submit``.

    Use as an async context manager::

        async with FleetRouter("artifacts/housing-h1",
                               FleetConfig(n_workers=4)) as fleet:
            answer = await fleet.submit("SELECT AVG(price) FROM apartment;")

    The router loads the artifact once itself — **routing metadata only**
    (schema annotation + §5 candidate rankings for join signatures); it
    never runs completion work.  Answers come back with worker-side
    provenance stripped (``answer.model`` / ``answer.completed`` are
    ``None``); results, completion flags and pushdown profiles survive
    the wire intact.
    """

    def __init__(
        self,
        artifact_path,
        config: Optional[FleetConfig] = None,
        config_overrides: Optional[dict] = None,
    ):
        self.artifact_path = Path(artifact_path)
        self.config = config or FleetConfig()
        self.config_overrides = config_overrides
        self._workers: List[_WorkerClient] = []
        self._ring: Optional[ConsistentHashRing] = None
        self._routing_engine: Optional[ReStore] = None
        self._warm_signatures: set = set()
        # Per-instance registry, the router's one accounting surface: its
        # counts and its end-to-end latency distribution (the one
        # percentile implementation every stats surface shares).
        self.metrics = MetricsRegistry()
        self._counts = {
            name: self.metrics.counter(f"fleet.{name}") for name in _COUNTS
        }
        self._latency_hist = self.metrics.histogram(
            "fleet.latency_ms", self.config.latency_window
        )
        self._log = get_logger("serving.fleet")
        self._tenant_backlog: Dict[str, int] = {}
        self._next_id = 0
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "FleetRouter":
        if self._running:
            return self
        loop = asyncio.get_running_loop()
        ctx = multiprocessing.get_context(_default_start_method())
        spawned: List[Tuple[_WorkerClient, object]] = []
        config_kwargs = {
            name: getattr(self.config.worker, name)
            for name in ("max_queue", "max_batch", "n_workers",
                         "latency_window")
        }
        for index in range(self.config.n_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            client = _WorkerClient(index)
            client.process = ctx.Process(
                target=worker_main,
                args=(str(self.artifact_path), child_conn,
                      config_kwargs, self.config_overrides),
                name=f"restore-fleet-{index}",
                daemon=True,
            )
            client.process.start()
            child_conn.close()
            self._log.info(
                "worker.spawn", worker=index, pid=client.process.pid,
                artifact=str(self.artifact_path),
            )
            spawned.append((client, parent_conn))
        try:
            # Workers load their engines concurrently; the router loads its
            # routing replica (selection metadata only) in the meantime.
            self._routing_engine = await loop.run_in_executor(
                None, ReStore.load, self.artifact_path
            )
            for client, parent_conn in spawned:
                await self._connect(client, parent_conn)
        except BaseException:
            await self._terminate_all(spawned)
            raise
        self._workers = [client for client, _ in spawned]
        self._ring = ConsistentHashRing(
            [client.index for client in self._workers],
            virtual_nodes=self.config.virtual_nodes,
        )
        self._running = True
        return self

    async def _connect(self, client: _WorkerClient, parent_conn) -> None:
        loop = asyncio.get_running_loop()
        try:
            status, detail = await asyncio.wait_for(
                loop.run_in_executor(None, parent_conn.recv),
                timeout=self.config.connect_timeout_s,
            )
        except asyncio.TimeoutError:
            raise WorkerError(
                f"worker {client.index} did not report readiness within "
                f"{self.config.connect_timeout_s}s"
            ) from None
        except EOFError:
            raise WorkerError(
                f"worker {client.index} died during startup "
                f"(exitcode {client.process.exitcode})"
            ) from None
        finally:
            parent_conn.close()
        if status != "ok":
            raise WorkerError(f"worker {client.index} failed to start: {detail}")
        family, address = detail
        if family == "unix":
            client.socket_path = address
            client.reader, client.writer = await asyncio.open_unix_connection(
                address
            )
        else:
            host, port = address
            client.reader, client.writer = await asyncio.open_connection(
                host, port
            )
        client.writer.write(encode_frame("hello"))
        await client.writer.drain()
        reply = await asyncio.wait_for(
            _read_frame(client.reader), timeout=self.config.connect_timeout_s
        )
        if reply is None or reply.get("kind") != "hello":
            raise ProtocolError(
                f"worker {client.index} handshake failed: {reply!r}"
            )
        client.alive = True
        client.bye_future = loop.create_future()
        client.reader_task = loop.create_task(self._reader(client))
        self._log.info(
            "worker.ready", worker=client.index,
            pid=client.process.pid if client.process else None,
        )

    async def _terminate_all(self, spawned) -> None:
        for client, _conn in spawned:
            if client.reader_task is not None:
                client.reader_task.cancel()
            if client.writer is not None:
                client.writer.close()
            if client.process is not None and client.process.is_alive():
                client.process.terminate()
            _remove_socket(client)

    async def close(self) -> None:
        """Drain the backlog, stop every worker, collect final stats.

        Every request admitted before ``close`` is answered (zero dropped
        in-flight requests); workers receive a ``shutdown`` frame, drain
        their cores, and hand back their closing stats in ``bye``.
        """
        if not self._running:
            return
        self._running = False
        self._log.info(
            "fleet.drain",
            backlog=self._backlog(),
            workers=sum(1 for c in self._workers if c.alive),
        )
        outstanding = [
            pending.future
            for client in self._workers
            for pending in [*client.queue, *client.inflight.values()]
        ]
        if outstanding:
            await asyncio.gather(*outstanding, return_exceptions=True)
        for client in self._workers:
            if not client.alive:
                continue
            try:
                client.writer.write(encode_frame("shutdown"))
                await client.writer.drain()
                await asyncio.wait_for(
                    client.bye_future, timeout=self.config.connect_timeout_s
                )
            except (OSError, asyncio.TimeoutError, WorkerError):
                # A worker dying during drain fails its own bye; the other
                # workers still deserve a clean shutdown.
                pass
        for client in self._workers:
            if client.reader_task is not None:
                client.reader_task.cancel()
                try:
                    await client.reader_task
                except (asyncio.CancelledError, Exception):
                    pass
            if client.writer is not None:
                client.writer.close()
            if client.process is not None:
                await asyncio.get_running_loop().run_in_executor(
                    None, client.process.join, 10.0
                )
                if client.process.is_alive():
                    client.process.terminate()
            _remove_socket(client)

    async def __aenter__(self) -> "FleetRouter":
        return await self.start()

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _routing_key(
        self, query: Query, suspected_bias: Optional[SuspectedBias]
    ) -> Tuple[Tuple, Optional[Tuple]]:
        """Routing key + join signature (None when no completion runs).

        *Cold* completion queries route by join signature: until the
        fleet has answered a signature once, every duplicate lands on the
        same worker and the core's single-flight makes the whole fleet
        compute exactly one join.  Once a signature is *warm* (some
        worker answered it), affinity stops paying — the join exists and
        any worker can replicate it from its own cache at bounded cost
        (at most one join per signature per worker, ever) — so warm
        traffic spreads by query identity to use every worker.
        Complete-only and suspected-bias queries run no shareable join
        and always spread.
        """
        engine = self._routing_engine
        incomplete = [
            t for t in query.tables
            if not engine.annotation.is_complete(t)
        ]
        if not incomplete:
            return ("__complete__", repr(query)), None
        if suspected_bias is not None:
            return ("__bias__", repr(query), repr(suspected_bias)), None
        signature = engine.join_signature(engine._completion_model(query))
        if signature in self._warm_signatures:
            return (signature, repr(query)), signature
        return signature, signature

    def _worker_for(self, key: Tuple) -> _WorkerClient:
        index = self._ring.node_for(repr(key))
        return self._workers[index]

    # ------------------------------------------------------------------
    # Admission: quotas and shedding (synchronous, transport-free)
    # ------------------------------------------------------------------
    def _backlog(self) -> int:
        return sum(client.backlog() for client in self._workers)

    def _finish(self, pending: _Pending) -> None:
        count = self._tenant_backlog.get(pending.tenant, 0) - 1
        if count > 0:
            self._tenant_backlog[pending.tenant] = count
        else:
            self._tenant_backlog.pop(pending.tenant, None)

    def _shed_oldest(self) -> bool:
        """Fail the oldest *queued* request fleet-wide; False if none queued."""
        oldest: Optional[Tuple[_WorkerClient, _Pending]] = None
        for client in self._workers:
            if client.queue:
                head = client.queue[0]
                if oldest is None or head.enqueued_at < oldest[1].enqueued_at:
                    oldest = (client, head)
        if oldest is None:
            return False
        client, pending = oldest
        client.queue.popleft()
        self._finish(pending)
        self._counts["shed"].add()
        if not pending.future.done():
            pending.future.set_exception(ServiceOverloadedError(
                f"shed under overload: fleet backlog reached "
                f"{self.config.max_pending} and newer work arrived"
            ))
        return True

    def _admit(
        self,
        query: Query,
        suspected_bias: Optional[SuspectedBias],
        tenant: str,
        future: "asyncio.Future",
        enqueued_at: float,
    ) -> Tuple[_Pending, _WorkerClient]:
        """Quota check + overload shedding + enqueue on the routed worker;
        counts the request, and its outcome too when it raises."""
        self._counts["requests"].add()
        quota = self.config.tenant_quota
        if quota is not None and self._tenant_backlog.get(tenant, 0) >= quota:
            self._counts["rejected"].add()
            raise ServiceOverloadedError(
                f"tenant {tenant!r} already holds {quota} in-flight requests "
                f"(per-tenant quota)"
            )
        if self._backlog() >= self.config.max_pending:
            if not self._shed_oldest():
                # Everything is already on the wire: reject the newcomer.
                self._counts["rejected"].add()
                raise ServiceOverloadedError(
                    f"fleet backlog is full ({self.config.max_pending} "
                    f"requests on the wire); retry later"
                )
        try:
            key, signature = self._routing_key(query, suspected_bias)
            client = self._worker_for(key)
            if not client.alive:
                raise WorkerError(f"worker {client.index} is down")
        except BaseException:  # selection, coverage or a dead worker
            self._counts["failed"].add()
            raise
        self._next_id += 1
        pending = _Pending(
            request_id=self._next_id,
            query=query,
            tenant=tenant,
            future=future,
            enqueued_at=enqueued_at,
            suspected_bias=suspected_bias,
            signature=signature,
        )
        self._tenant_backlog[tenant] = self._tenant_backlog.get(tenant, 0) + 1
        client.queue.append(pending)
        return pending, client

    # ------------------------------------------------------------------
    # Front-end
    # ------------------------------------------------------------------
    async def submit(
        self,
        query: QueryLike,
        suspected_bias: Optional[SuspectedBias] = None,
        tenant: str = "default",
    ) -> Answer:
        """Submit one query to the fleet and await its answer.

        Raises the same taxonomy a local service would: validation errors
        name candidate columns, worker-side failures re-raise as their
        original class via the wire code, overload/quota raises
        :class:`~repro.errors.ServiceOverloadedError`.
        """
        if not self._running:
            raise ServiceClosedError("fleet is not running; use 'async with'")
        with trace("fleet.submit", tenant=tenant) as span:
            if isinstance(query, str):
                query = parse_query(query)
            validate_query_columns(self._routing_engine.db, query)
            loop = asyncio.get_running_loop()
            pending, client = self._admit(
                query, suspected_bias, tenant, loop.create_future(), loop.time()
            )
            # The wire carries the submit span's context, so the worker's
            # spans come back stitched under this trace (contextvars flow
            # through the await natively).
            pending.trace_ctx = current_context()
            span.set("worker", client.index)
            await self._pump(client)
            return await pending.future

    async def submit_many(self, queries: Sequence[QueryLike]) -> List[Answer]:
        return list(await asyncio.gather(*(self.submit(q) for q in queries)))

    async def _pump(self, client: _WorkerClient) -> None:
        """Move queued requests onto the wire, up to the dispatch window."""
        while (client.alive and client.queue
               and len(client.inflight) < self.config.dispatch_window):
            pending = client.queue.popleft()
            client.inflight[pending.request_id] = pending
            try:
                client.writer.write(encode_frame(
                    "query",
                    id=pending.request_id,
                    query=pending.query,
                    suspected_bias=pending.suspected_bias,
                    tenant=pending.tenant,
                    trace=(
                        pending.trace_ctx.as_wire()
                        if pending.trace_ctx is not None else None
                    ),
                ))
                await client.writer.drain()
            except (OSError, ConnectionError) as exc:
                self._fail_worker(client, WorkerError(
                    f"worker {client.index} connection lost: {exc}"
                ))
                return

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    async def _reader(self, client: _WorkerClient) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                frame = await _read_frame(client.reader)
            except ProtocolError as exc:
                self._fail_worker(client, WorkerError(
                    f"worker {client.index} protocol failure: {exc}"
                ))
                return
            if frame is None:
                self._fail_worker(client, WorkerError(
                    f"worker {client.index} disconnected "
                    f"(exitcode {client.process.exitcode if client.process else None})"
                ))
                return
            kind = frame.get("kind")
            if kind in ("answer", "error"):
                spans = frame.get("spans")
                if spans:
                    # Worker-side spans of this request's trace, shipped in
                    # the reply: adopt them so the router tracer holds the
                    # whole stitched tree.
                    get_tracer().ingest(spans)
                pending = client.inflight.pop(frame.get("id"), None)
                if pending is not None:
                    self._finish(pending)
                    if kind == "answer":
                        if pending.signature is not None:
                            self._warm_signatures.add(pending.signature)
                        self._counts["completed"].add()
                        self._latency_hist.observe(
                            (loop.time() - pending.enqueued_at) * 1000.0
                        )
                        if not pending.future.done():
                            pending.future.set_result(frame["answer"])
                    else:
                        self._counts["failed"].add()
                        if not pending.future.done():
                            try:
                                raise_wire_error(frame)
                            except Exception as exc:
                                pending.future.set_exception(exc)
                await self._pump(client)
            elif kind in ("stats_reply", "swap_reply"):
                waiter = client.waiters.pop(frame.get("id"), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(frame)
            elif kind == "bye":
                client.final_stats = frame.get("stats")
                client.alive = False
                if client.bye_future is not None and not client.bye_future.done():
                    client.bye_future.set_result(client.final_stats)
                return

    def _fail_worker(self, client: _WorkerClient, error: WorkerError) -> None:
        """A worker went away: fail its backlog, take it off the ring."""
        client.alive = False
        self._log.warning(
            "worker.death", worker=client.index, error=str(error),
            stranded=len(client.queue) + len(client.inflight),
        )
        if self._ring is not None:
            self._ring.remove(client.index)
        stranded = [*client.queue, *client.inflight.values()]
        client.queue.clear()
        client.inflight.clear()
        for pending in stranded:
            self._finish(pending)
            self._counts["failed"].add()
            if not pending.future.done():
                pending.future.set_exception(error)
        for waiter in client.waiters.values():
            if not waiter.done():
                waiter.set_exception(error)
        client.waiters.clear()
        if client.bye_future is not None and not client.bye_future.done():
            client.bye_future.set_exception(error)
            # A dead worker's bye is never awaited (close() skips workers
            # that are not alive), so mark the exception retrieved to keep
            # loop teardown from warning about it.
            client.bye_future.exception()

    async def _request(self, client: _WorkerClient, kind: str, **fields) -> dict:
        """Send ``client`` one ``kind`` frame and await its reply frame,
        matched by id in :meth:`_reader`.

        Raises :class:`OSError`, :class:`asyncio.TimeoutError` (no reply
        within ``connect_timeout_s``) or :class:`WorkerError` (the worker
        died first).
        """
        self._next_id += 1
        request_id = self._next_id
        waiter = asyncio.get_running_loop().create_future()
        client.waiters[request_id] = waiter
        try:
            client.writer.write(encode_frame(kind, id=request_id, **fields))
            await client.writer.drain()
            return await asyncio.wait_for(
                waiter, timeout=self.config.connect_timeout_s
            )
        finally:
            client.waiters.pop(request_id, None)

    # ------------------------------------------------------------------
    # Zero-downtime rolling swap
    # ------------------------------------------------------------------
    async def rolling_swap(self, artifact_path) -> dict:
        """Upgrade the fleet to ``artifact_path``, one worker at a time.

        Each live worker receives a ``swap`` frame and loads the new
        artifact between micro-batches: its reader thread blocks while
        loading (new queries buffer on the socket, nothing is rejected)
        and groups already dispatched finish on the old engine — zero
        dropped in-flight requests, which the fault-injection tests
        assert.  The rest of the fleet keeps serving the old version
        until its own turn.

        A worker that dies mid-rollout is skipped (its stranded requests
        fail with the stable ``worker`` wire code, exactly as any other
        death) and the rollout continues on the survivors.  A worker that
        *rejects* the swap — corrupt or lineage-mismatched artifact —
        aborts the rollout by re-raising the taxonomy error; since
        workers validate before swapping, every worker (including the
        rejecting one) keeps serving the version it already has.

        After at least one successful swap the router reloads its own
        routing replica from the new artifact and forgets warm-signature
        affinity (the workers' completion caches restarted cold).
        """
        if not self._running:
            raise ServiceClosedError("fleet is not running; use 'async with'")
        artifact_path = Path(artifact_path)
        loop = asyncio.get_running_loop()
        with trace("fleet.rolling_swap", artifact=str(artifact_path)) as span:
            swapped: List[int] = []
            skipped: List[int] = []
            info: Optional[dict] = None
            for client in list(self._workers):
                if not client.alive:
                    skipped.append(client.index)
                    continue
                try:
                    frame = await self._request(
                        client, "swap", path=str(artifact_path)
                    )
                except (OSError, asyncio.TimeoutError, WorkerError):
                    # Worker died mid-swap: _fail_worker already stranded its
                    # backlog with WorkerError; finish the rollout on
                    # survivors.
                    skipped.append(client.index)
                    continue
                if not frame.get("ok"):
                    raise_wire_error(frame)
                swapped.append(client.index)
                info = frame.get("info")
                self._log.info(
                    "worker.swap", worker=client.index,
                    artifact=str(artifact_path),
                )
            if swapped:
                self._routing_engine = await loop.run_in_executor(
                    None, ReStore.load, artifact_path
                )
                self._warm_signatures.clear()
                self.artifact_path = artifact_path
            span.set("swapped", len(swapped))
            span.set("skipped", len(skipped))
            return {
                "artifact_path": str(artifact_path),
                "swapped": swapped,
                "skipped": skipped,
                "workers": len(self._workers),
                "info": info,
            }

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def router_stats(self) -> dict:
        """Router-side stats only (no worker round-trip): a view of
        :attr:`metrics` plus the live queue and in-flight lengths."""
        snapshot = self.metrics.snapshot()
        latency = snapshot["histograms"]["fleet.latency_ms"]
        return {
            **{name: snapshot["counters"][f"fleet.{name}"] for name in _COUNTS},
            "queued": sum(len(c.queue) for c in self._workers),
            "inflight": sum(len(c.inflight) for c in self._workers),
            "p50_latency_ms": latency["p50"],
            "p95_latency_ms": latency["p95"],
        }

    async def stats(self) -> FleetStats:
        """One aggregated snapshot: per-worker cores + router counters."""
        per_worker: List[dict] = []
        for client in self._workers:
            if not client.alive:
                per_worker.append(client.final_stats or {})
                continue
            try:
                reply = await self._request(client, "stats")
                per_worker.append(reply.get("stats", {}))
            except (OSError, asyncio.TimeoutError, WorkerError):
                per_worker.append(client.final_stats or {})
        return self._aggregate(per_worker)

    def _aggregate(self, per_worker: List[dict]) -> FleetStats:
        return FleetStats(
            workers=len(self._workers),
            **self.router_stats(),
            joins_started=sum(
                int(w.get("joins_started", 0)) for w in per_worker
            ),
            coalesced_requests=sum(
                int(w.get("coalesced_requests", 0)) for w in per_worker
            ),
            per_worker=per_worker,
        )

    @property
    def final_worker_stats(self) -> List[Optional[dict]]:
        """Each worker's closing ``bye`` snapshot (populated by close())."""
        return [client.final_stats for client in self._workers]
