"""The process shell: one artifact, one :class:`ServingCore`, one socket.

A :class:`ServiceWorker` is what a fleet spawns per process: it loads a
versioned artifact (:mod:`repro.serving.artifacts`) into a fresh engine,
wraps it in the transport-agnostic core, and serves the length-prefixed
wire protocol (:mod:`repro.serving.protocol`) over a single router
connection.  All serving behaviour — admission, micro-batching,
join-signature grouping, single-flight coalescing, stats, the drain — is
the core's; this shell only moves frames:

* the **reader** (the calling thread) decodes frames: queries are admitted
  through the core (a refusal ⇒ an ``error`` frame with the
  ``service_overloaded`` wire code) into the core's
  :class:`~repro.serving.core.Dispatcher`; ``stats`` and ``shutdown`` are
  answered inline;
* each request's ``deliver`` writes its ``answer``/``error`` frame under a
  send lock, with that request's spans — the router correlates replies by
  request id, so they may arrive in any order.

Shutdown is drain-clean: on a ``shutdown`` frame (or EOF) the worker
stops admitting, closes the dispatcher — which answers everything it
accepted — then sends a final ``bye`` frame carrying its closing stats:
zero dropped in-flight requests, which the fleet tests assert.

:func:`worker_main` is the process entry point used by
:class:`~repro.serving.FleetRouter`; it binds a fresh socket (AF_UNIX
where available, loopback TCP otherwise), reports the address through a
``multiprocessing`` pipe, and serves until the router disconnects.
"""

from __future__ import annotations

import contextlib
import functools
import os
import socket
import threading
from pathlib import Path
from typing import Callable, Optional

from ..core.engine import ReStore
from ..obs import enable_tracing, get_logger, get_tracer, tracing_enabled
from ..obs.trace import TraceContext
from ..version import repro_version
from .core import CoreRequest, Dispatcher, ServiceConfig, ServingCore
from .protocol import (
    PROTOCOL_VERSION,
    error_fields,
    recv_frame,
    send_frame,
    strip_answer,
)

__all__ = [
    "ServiceWorker", "worker_main", "bind_worker_socket", "close_worker_socket",
]


class ServiceWorker:
    """Serve one fitted engine over the wire protocol (blocking shell)."""

    def __init__(self, engine: ReStore, config: Optional[ServiceConfig] = None):
        self.core = ServingCore(engine, config)
        self._log = get_logger("serving.worker")

    @classmethod
    def from_artifact(
        cls,
        artifact_path,
        config: Optional[ServiceConfig] = None,
        config_overrides: Optional[dict] = None,
    ) -> "ServiceWorker":
        engine = ReStore.load(Path(artifact_path), config_overrides=config_overrides)
        return cls(engine, config)

    # ------------------------------------------------------------------
    # One connection = one serving session
    # ------------------------------------------------------------------
    def serve_connection(self, conn: socket.socket) -> bool:
        """Serve frames until ``shutdown`` or EOF; returns True on ``bye``.

        Blocking; drives the reader loop on the calling thread and
        completes every admitted request before returning.
        """
        send_lock = threading.Lock()

        def reply(kind: str, **fields) -> None:
            with send_lock:
                try:
                    send_frame(conn, kind, **fields)
                except OSError:
                    pass  # router vanished; draining continues regardless

        dispatcher = Dispatcher(self.core)
        saw_shutdown = False
        try:
            while True:
                frame = recv_frame(conn)
                if frame is None:
                    break
                kind = frame["kind"]
                if kind == "hello":
                    reply(
                        "hello",
                        protocol=PROTOCOL_VERSION,
                        repro=repro_version(),
                        pid=os.getpid(),
                    )
                elif kind == "query":
                    self._admit(frame, dispatcher, reply)
                elif kind == "stats":
                    reply(
                        "stats_reply",
                        id=frame.get("id"),
                        stats=self.core.stats(queued=dispatcher.qsize()).as_dict(),
                    )
                elif kind == "swap":
                    # Hot swap runs inline on the reader thread: no new
                    # queries are admitted while the replacement loads,
                    # but groups already dispatched keep draining on the
                    # pool against the engine they were routed to —
                    # nothing in flight is dropped.  A failed load leaves
                    # the old engine serving and reports the taxonomy
                    # code back to the router.
                    try:
                        info = self.core.hot_swap(frame["path"])
                    except BaseException as exc:
                        fields = error_fields(frame.get("id"), exc)
                        reply("swap_reply", ok=False, **fields)
                    else:
                        reply("swap_reply", ok=True, id=frame.get("id"),
                              info=info)
                elif kind == "shutdown":
                    saw_shutdown = True
                    break
                # unknown kinds are ignored: a newer router may probe
        finally:
            self._log.info(
                "worker.drain", pid=os.getpid(), queued=dispatcher.qsize(),
                shutdown=saw_shutdown,
            )
            dispatcher.close()
            if saw_shutdown:
                reply(
                    "bye",
                    stats=self.core.stats(queued=0).as_dict(),
                )
        return saw_shutdown

    def _admit(self, frame: dict, dispatcher: Dispatcher, reply: Callable) -> None:
        """Validate + admit one query frame (reader thread, must stay cheap)."""
        request_id = frame.get("id")
        try:
            query = self.core.prepare(frame["query"])
            self.core.admit(wait=False)
        except Exception as exc:  # refused: the error frame is the answer
            reply("error", **error_fields(request_id, exc))
            return
        trace_ctx = TraceContext.from_wire(frame.get("trace"))
        if trace_ctx is not None and trace_ctx.sampled and not tracing_enabled():
            # The router is tracing; turn on collection lazily so this
            # request's worker-side spans exist to ship back.  Requests
            # without a trace field never pay for this.
            enable_tracing()
        dispatcher.put(CoreRequest(
            query=query,
            enqueued_at=self.core.clock(),
            suspected_bias=frame.get("suspected_bias"),
            tenant=frame.get("tenant", "default"),
            trace_ctx=trace_ctx,
            deliver=functools.partial(_send_outcome, reply, request_id, trace_ctx),
        ))


def _send_outcome(
    reply: Callable, request_id, trace_ctx: Optional[TraceContext], outcome
) -> None:
    """One request's reply frame, carrying its spans when it was traced."""
    spans = None
    if trace_ctx is not None and tracing_enabled():
        # Drain this request's spans into the reply: the router ingests
        # them, stitching one cross-process trace tree.
        spans = get_tracer().take(trace_ctx.trace_id)
    if isinstance(outcome, BaseException):
        reply("error", spans=spans, **error_fields(request_id, outcome))
    else:
        reply("answer", id=request_id, answer=strip_answer(outcome), spans=spans)


# ----------------------------------------------------------------------
# Process entry point
# ----------------------------------------------------------------------

def bind_worker_socket() -> socket.socket:
    """A fresh listening socket: abstract-free AF_UNIX, else loopback TCP.

    The AF_UNIX socket lives in a private ``restore-wk-*`` temp directory;
    :func:`close_worker_socket` removes both.
    """
    if hasattr(socket, "AF_UNIX"):
        import tempfile

        directory = tempfile.mkdtemp(prefix="restore-wk-")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(os.path.join(directory, "worker.sock"))
        except BaseException:
            listener.close()
            os.rmdir(directory)
            raise
    else:  # pragma: no cover - exercised only on platforms without AF_UNIX
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    return listener


def listener_address(listener: socket.socket):
    """The connectable (family, address) pair for :func:`bind_worker_socket`."""
    if listener.family == getattr(socket, "AF_UNIX", object()):
        return ("unix", listener.getsockname())
    host, port = listener.getsockname()[:2]
    return ("tcp", (host, port))


def close_worker_socket(listener: socket.socket) -> None:
    """Close a :func:`bind_worker_socket` listener and, for AF_UNIX, remove
    its socket file and private directory."""
    # A closed socket has no name any more: read the path first.
    unix = listener.family == getattr(socket, "AF_UNIX", object())
    path = listener.getsockname() if unix else None
    listener.close()
    if path:
        remove_worker_socket(path)


def remove_worker_socket(path: str) -> None:
    """Remove an AF_UNIX worker socket file and its private directory.

    Also called by the router for a worker that was killed before it
    could clean up after itself; either side may get there first.
    """
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    with contextlib.suppress(FileNotFoundError):
        os.rmdir(os.path.dirname(path))


def worker_main(
    artifact_path: str,
    ready_conn,
    config_kwargs: Optional[dict] = None,
    config_overrides: Optional[dict] = None,
) -> None:
    """Fleet worker process body: load, bind, report, serve, exit.

    ``ready_conn`` is the child end of a ``multiprocessing.Pipe``; the
    worker sends ``("ok", (family, address))`` once it is accepting (or
    ``("error", repr)`` if startup failed, so the router can report the
    real cause instead of a connect timeout).  The listening socket and
    its directory are removed on every exit path that runs Python; for a
    killed worker the router removes them.
    """
    log = get_logger("serving.worker")
    log.info("worker.spawn", pid=os.getpid(), artifact=str(artifact_path))
    listener = None
    try:
        config = ServiceConfig(**(config_kwargs or {}))
        worker = ServiceWorker.from_artifact(
            artifact_path, config=config, config_overrides=config_overrides
        )
        listener = bind_worker_socket()
        ready_conn.send(("ok", listener_address(listener)))
    except BaseException as exc:
        log.error("worker.death", pid=os.getpid(),
                  error=f"{type(exc).__name__}: {exc}")
        try:
            ready_conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            ready_conn.close()
            if listener is not None:
                close_worker_socket(listener)
        return
    ready_conn.close()
    log.info("worker.ready", pid=os.getpid())
    try:
        conn, _peer = listener.accept()
        try:
            worker.serve_connection(conn)
        finally:
            conn.close()
    finally:
        log.info("worker.death", pid=os.getpid(), clean=True)
        close_worker_socket(listener)
