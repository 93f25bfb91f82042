"""Tests for the fleet tier: wire protocol, routing, overload, workers.

Three rings of confidence, cheapest first:

* **protocol** — frame encode/decode round trips, version mismatch and
  truncation failure modes, error-taxonomy wire codes (no sockets);
* **router policy** — consistent-hash determinism/balance, shed-oldest
  and per-tenant quota admission against *fake* worker clients (no
  processes);
* **end to end** (``slow``) — a real :class:`ServiceWorker` process
  behind a socket, then a 2-worker :class:`FleetRouter`: answer parity,
  fleet-wide single-flight, clean drain on shutdown.
"""

import asyncio
import gc
import os
import pickle
import shutil
import socket
import tempfile
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro import ReStore, ReStoreConfig, parse_query
from repro.core import ModelConfig
from repro.errors import (
    ProtocolError,
    QueryValidationError,
    ServiceOverloadedError,
    WorkerError,
)
from repro.incomplete.registry import make_scenario_dataset
from repro.nn import TrainConfig
from repro.obs import (
    Tracer,
    disable_tracing,
    enable_tracing,
    export_chrome_trace,
    recent_records,
    span_tree,
    validate_chrome_trace,
)
from repro.serving import (
    ConsistentHashRing,
    FleetConfig,
    FleetRouter,
    ServiceConfig,
    ServiceWorker,
    save_artifact,
    worker_main,
)
from repro.serving.fleet import _WorkerClient
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_payload,
    encode_frame,
    error_fields,
    frame_length,
    raise_wire_error,
    recv_frame,
    send_frame,
)

FAST = TrainConfig(epochs=3, batch_size=128, lr=1e-2, patience=2)

COMPLETION_SQL = "SELECT COUNT(*) FROM ta NATURAL JOIN tb WHERE b = 'v1';"
COMPLETE_ONLY_SQL = "SELECT COUNT(*) FROM ta;"
GROUPED_SQL = "SELECT COUNT(*) FROM ta NATURAL JOIN tb GROUP BY a;"


# ----------------------------------------------------------------------
# Protocol (sans-io)
# ----------------------------------------------------------------------


class TestProtocolFrames:
    def test_round_trip(self):
        frame = encode_frame("query", id=7, payload=[1, 2, 3])
        length = frame_length(frame[:4])
        message = decode_payload(frame[4:4 + length])
        assert message["kind"] == "query"
        assert message["id"] == 7
        assert message["payload"] == [1, 2, 3]
        assert message["v"] == PROTOCOL_VERSION

    def test_version_mismatch_raises(self):
        frame = encode_frame("hello")
        payload = pickle.loads(frame[4:])
        payload["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version mismatch"):
            decode_payload(pickle.dumps(payload))

    def test_malformed_payloads_raise(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_payload(b"\x00not-a-pickle")
        with pytest.raises(ProtocolError, match="malformed"):
            decode_payload(pickle.dumps(["no", "kind"]))

    def test_oversize_length_prefix_rejected(self):
        import struct

        header = struct.pack("!I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds MAX_FRAME_BYTES"):
            frame_length(header)

    def test_socket_round_trip_and_clean_eof(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, "stats", id=3)
            message = recv_frame(right)
            assert message["kind"] == "stats" and message["id"] == 3
            left.close()
            assert recv_frame(right) is None  # clean EOF between frames
        finally:
            right.close()

    def test_truncated_frame_raises_mid_frame(self):
        left, right = socket.socketpair()
        try:
            frame = encode_frame("query", id=1)
            left.sendall(frame[: len(frame) - 2])  # cut the payload short
            left.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(right)
        finally:
            right.close()


class TestWireErrors:
    def test_error_fields_carry_stable_codes(self):
        fields = error_fields(9, ServiceOverloadedError("full"))
        assert fields == {
            "id": 9,
            "code": "service_overloaded",
            "message": "full",
            "error_type": "ServiceOverloadedError",
        }

    def test_raise_wire_error_restores_taxonomy_class(self):
        fields = error_fields(1, QueryValidationError("no such column"))
        with pytest.raises(QueryValidationError, match="no such column"):
            raise_wire_error(fields)
        # ...and taxonomy classes keep their stdlib bases across the wire.
        with pytest.raises(ValueError):
            raise_wire_error(fields)

    def test_unknown_code_and_foreign_error_map_to_internal(self):
        fields = error_fields(2, KeyError("whoops"))
        assert fields["code"] == "internal"
        with pytest.raises(WorkerError, match="KeyError"):
            raise_wire_error(fields)
        with pytest.raises(WorkerError):
            raise_wire_error({"code": "brand_new_code", "message": "hm"})


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------


class TestConsistentHashRing:
    def test_deterministic_across_instances(self):
        a = ConsistentHashRing([0, 1, 2, 3])
        b = ConsistentHashRing([0, 1, 2, 3])
        keys = [f"signature-{i}" for i in range(200)]
        assert [a.node_for(k) for k in keys] == [b.node_for(k) for k in keys]

    def test_every_node_owns_some_keys(self):
        ring = ConsistentHashRing([0, 1, 2, 3], virtual_nodes=64)
        owners = {ring.node_for(f"key-{i}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_removal_only_remaps_removed_nodes_keys(self):
        ring = ConsistentHashRing([0, 1, 2], virtual_nodes=64)
        keys = [f"key-{i}" for i in range(300)]
        before = {k: ring.node_for(k) for k in keys}
        ring.remove(1)
        for key in keys:
            after = ring.node_for(key)
            if before[key] != 1:
                assert after == before[key]  # survivors keep their keys
            else:
                assert after != 1

    def test_empty_ring_raises(self):
        ring = ConsistentHashRing([])
        with pytest.raises(WorkerError, match="ring is empty"):
            ring.node_for("anything")


# ----------------------------------------------------------------------
# Router admission policy (fake workers, no processes, no loop)
# ----------------------------------------------------------------------


def _policy_router(n_workers=2, **config_kwargs) -> FleetRouter:
    """A router with fake in-memory workers, for admission-policy tests."""
    router = FleetRouter(
        "unused-artifact",
        FleetConfig(n_workers=n_workers, **config_kwargs),
    )
    router._workers = [_WorkerClient(i) for i in range(n_workers)]
    for client in router._workers:
        client.alive = True
    router._ring = ConsistentHashRing(range(n_workers))
    router._routing_key = lambda query, bias: (("sig", query), None)
    return router


class _FakeFuture:
    def __init__(self):
        self.exception = None

    def done(self):
        return self.exception is not None

    def set_exception(self, exc):
        self.exception = exc


def _admit(router, key, tenant="default", at=0.0):
    return router._admit(key, None, tenant, _FakeFuture(), at)


class TestFleetAdmission:
    def test_routes_same_key_to_same_worker(self):
        router = _policy_router()
        _, first = _admit(router, "q-same", at=0.0)
        _, second = _admit(router, "q-same", at=1.0)
        assert first is second
        assert len(first.queue) == 2

    def test_sheds_oldest_queued_when_backlog_full(self):
        router = _policy_router(max_pending=2)
        oldest, worker = _admit(router, "q-old", at=0.0)
        _admit(router, "q-mid", at=1.0)
        # Third request: backlog is at max_pending → oldest queued is shed.
        _, _ = _admit(router, "q-new", at=2.0)
        assert isinstance(oldest.future.exception, ServiceOverloadedError)
        assert router._counters.shed == 1
        assert router._backlog() == 2
        assert oldest not in worker.queue

    def test_rejects_newcomer_when_everything_is_on_the_wire(self):
        router = _policy_router(max_pending=1)
        pending, worker = _admit(router, "q-flying", at=0.0)
        # Simulate dispatch: the request moved from queue to inflight.
        worker.queue.popleft()
        worker.inflight[pending.request_id] = pending
        with pytest.raises(ServiceOverloadedError, match="backlog is full"):
            _admit(router, "q-late", at=1.0)
        assert router._counters.rejected == 1
        assert pending.future.exception is None  # in-flight never shed

    def test_tenant_quota_rejects_only_the_greedy_tenant(self):
        router = _policy_router(tenant_quota=2, max_pending=100)
        _admit(router, "q-a1", tenant="alice")
        _admit(router, "q-a2", tenant="alice")
        with pytest.raises(ServiceOverloadedError, match="alice"):
            _admit(router, "q-a3", tenant="alice")
        # Bob is unaffected by Alice's quota exhaustion.
        _admit(router, "q-b1", tenant="bob")
        assert router._counters.rejected == 1

    def test_completion_releases_tenant_quota(self):
        router = _policy_router(tenant_quota=1, max_pending=100)
        pending, worker = _admit(router, "q-1", tenant="alice")
        with pytest.raises(ServiceOverloadedError):
            _admit(router, "q-2", tenant="alice")
        worker.queue.popleft()
        router._finish(pending)  # what the reader does on answer/error
        _admit(router, "q-3", tenant="alice")  # quota is free again

    def test_fail_worker_strands_nothing(self):
        router = _policy_router(n_workers=1, max_pending=100)
        pending_a, worker = _admit(router, "q-a", at=0.0)
        pending_b, _ = _admit(router, "q-b", at=1.0)
        worker.queue.popleft()
        worker.inflight[pending_a.request_id] = pending_a
        router._fail_worker(worker, WorkerError("worker 0 gone"))
        assert isinstance(pending_a.future.exception, WorkerError)
        assert isinstance(pending_b.future.exception, WorkerError)
        assert router._backlog() == 0
        assert router._tenant_backlog == {}


class TestFleetConfigValidation:
    @pytest.mark.parametrize(
        "field", ["n_workers", "max_pending", "dispatch_window", "virtual_nodes"]
    )
    def test_rejects_non_positive_naming_field(self, field):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match=f"FleetConfig.{field}"):
            FleetConfig(**{field: 0})

    def test_dispatch_window_bounded_by_worker_queue(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="dispatch_window"):
            FleetConfig(
                dispatch_window=65, worker=ServiceConfig(max_queue=64)
            )


# ----------------------------------------------------------------------
# End to end: real worker processes (slow)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet_artifact(tmp_path_factory) -> Path:
    dataset = make_scenario_dataset(
        "synthetic/biased", keep_rate=0.5, seed=1, scale=0.2
    )
    config = ReStoreConfig(model=ModelConfig(train=FAST), seed=3)
    engine = ReStore.from_dataset(dataset, config).fit()
    path = tmp_path_factory.mktemp("fleet") / "artifact"
    save_artifact(engine, path, scenario="synthetic/biased")
    return path


@pytest.fixture(scope="module")
def reference_engine(fleet_artifact) -> ReStore:
    return ReStore.load(fleet_artifact)


@pytest.fixture()
def socket_tmpdir(monkeypatch) -> Path:
    """A private TMPDIR for worker sockets, under ``/tmp`` where it exists.
    Not ``tmp_path``: AF_UNIX addresses are capped at 108 bytes, and
    pytest's paths (or a long TMPDIR) can exceed it."""
    short = "/tmp" if os.path.isdir("/tmp") else None
    path = Path(tempfile.mkdtemp(prefix="wk-", dir=short))
    monkeypatch.setenv("TMPDIR", str(path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.slow
class TestServiceWorkerEndToEnd:
    def test_worker_serves_over_socketpair(self, fleet_artifact, reference_engine):
        """One worker, no router: frames in, answers out, drain on shutdown."""
        worker = ServiceWorker.from_artifact(
            fleet_artifact, ServiceConfig(max_queue=16, n_workers=2)
        )
        ours, theirs = socket.socketpair()
        server = threading.Thread(
            target=worker.serve_connection, args=(theirs,), daemon=True
        )
        server.start()
        try:
            send_frame(ours, "hello")
            hello = recv_frame(ours)
            assert hello["kind"] == "hello"
            assert hello["protocol"] == PROTOCOL_VERSION

            query = parse_query(COMPLETION_SQL)
            for request_id in range(4):
                send_frame(ours, "query", id=request_id, query=query)
            replies = {}
            while len(replies) < 4:
                frame = recv_frame(ours)
                assert frame["kind"] == "answer", frame
                replies[frame["id"]] = frame["answer"]
            expected = reference_engine.answer(query).result.values
            assert all(
                a.result.values == expected for a in replies.values()
            )
            # Wire answers travel without worker-side provenance.
            assert all(a.model is None for a in replies.values())
            assert all(a.completed is None for a in replies.values())

            bad = parse_query("SELECT AVG(nope) FROM ta;")
            send_frame(ours, "query", id=99, query=bad)
            frame = recv_frame(ours)
            assert frame["kind"] == "error" and frame["id"] == 99
            assert frame["code"] == "query_invalid"

            send_frame(ours, "stats", id=100)
            frame = recv_frame(ours)
            assert frame["kind"] == "stats_reply"
            assert frame["stats"]["completed"] == 4
            assert frame["stats"]["joins_started"] == 1

            send_frame(ours, "shutdown")
            frame = recv_frame(ours)
            assert frame["kind"] == "bye"
            assert frame["stats"]["completed"] == 4
        finally:
            ours.close()
            server.join(timeout=10)
            theirs.close()
            assert not server.is_alive()

    def test_worker_overload_maps_to_wire_code(self, fleet_artifact):
        worker = ServiceWorker.from_artifact(
            fleet_artifact,
            ServiceConfig(max_queue=1, max_batch=1),
        )
        assert worker.core.gate.try_acquire()  # hold the only slot
        ours, theirs = socket.socketpair()
        server = threading.Thread(
            target=worker.serve_connection, args=(theirs,), daemon=True
        )
        server.start()
        try:
            send_frame(
                ours, "query", id=1, query=parse_query(COMPLETE_ONLY_SQL)
            )
            frame = recv_frame(ours)
            assert frame["kind"] == "error"
            assert frame["code"] == "service_overloaded"
        finally:
            worker.core.gate.release()
            ours.close()
            server.join(timeout=10)
            theirs.close()
        assert not server.is_alive()

    def test_refilled_window_finds_its_slots_free(
        self, fleet_artifact, monkeypatch
    ):
        """A client keeping ``max_queue`` requests in flight sends the next
        one as each reply lands: the replied request's slot must already be
        free, even when the releasing thread runs late."""
        window = 2
        worker = ServiceWorker.from_artifact(
            fleet_artifact, ServiceConfig(max_queue=window, n_workers=window)
        )
        gate = worker.core.gate
        release = gate.release

        def late_release():
            time.sleep(0.02)
            release()

        monkeypatch.setattr(gate, "release", late_release)
        ours, theirs = socket.socketpair()
        server = threading.Thread(
            target=worker.serve_connection, args=(theirs,), daemon=True
        )
        server.start()
        query = parse_query(COMPLETE_ONLY_SQL)
        replies = []
        try:
            for request_id in range(window):
                send_frame(ours, "query", id=request_id, query=query)
            for request_id in range(window, 20):
                replies.append(recv_frame(ours))
                send_frame(ours, "query", id=request_id, query=query)
            replies.extend(recv_frame(ours) for _ in range(window))
            send_frame(ours, "shutdown")
            assert recv_frame(ours)["kind"] == "bye"
        finally:
            ours.close()
            server.join(timeout=10)
            theirs.close()
        assert not server.is_alive()
        assert [r["kind"] for r in replies] == ["answer"] * 20, [
            r.get("code") for r in replies
        ]
        assert sorted(r["id"] for r in replies) == list(range(20))

    def test_malformed_sql_maps_to_query_invalid(self, fleet_artifact):
        """A query frame whose SQL does not parse is refused at admission
        with the taxonomy's wire code, not as an internal failure."""
        worker = ServiceWorker.from_artifact(fleet_artifact)
        ours, theirs = socket.socketpair()
        server = threading.Thread(
            target=worker.serve_connection, args=(theirs,), daemon=True
        )
        server.start()
        try:
            send_frame(ours, "query", id=7, query="SELECT AVG(b FROM ta;")
            frame = recv_frame(ours)
            assert frame["kind"] == "error" and frame["id"] == 7
            assert frame["code"] == "query_invalid"
            assert frame["error_type"] == "SQLSyntaxError"
            send_frame(ours, "shutdown")
            assert recv_frame(ours)["kind"] == "bye"
        finally:
            ours.close()
            server.join(timeout=10)
            theirs.close()
            assert not server.is_alive()

    def test_busy_worker_batches_a_burst_without_a_timer(
        self, fleet_artifact, monkeypatch
    ):
        """One serving thread held by a slowed answer: the burst that
        arrives meanwhile queues up and is taken as one batch."""
        worker = ServiceWorker.from_artifact(
            fleet_artifact, ServiceConfig(max_queue=16, n_workers=1)
        )
        engine = worker.core.engine
        real_answer = engine.answer
        entered, proceed = threading.Event(), threading.Event()

        def slow_answer(*args, **kwargs):
            entered.set()
            proceed.wait(timeout=30)
            return real_answer(*args, **kwargs)

        monkeypatch.setattr(engine, "answer", slow_answer)
        ours, theirs = socket.socketpair()
        server = threading.Thread(
            target=worker.serve_connection, args=(theirs,), daemon=True
        )
        server.start()
        query = parse_query(COMPLETE_ONLY_SQL)
        try:
            send_frame(ours, "query", id=0, query=query)
            assert entered.wait(timeout=30)  # the only thread is busy
            for request_id in range(1, 6):
                send_frame(ours, "query", id=request_id, query=query)
            # The reader answers stats after admitting the five queries.
            send_frame(ours, "stats", id=100)
            frame = recv_frame(ours)
            assert frame["kind"] == "stats_reply"
            assert frame["stats"]["queued"] == 5
            proceed.set()
            answered = {recv_frame(ours)["id"] for _ in range(6)}
            assert answered == set(range(6))
            send_frame(ours, "shutdown")
            frame = recv_frame(ours)
            assert frame["kind"] == "bye"
            assert frame["stats"]["batches"] == 2
            assert frame["stats"]["max_batch_size"] == 5
        finally:
            proceed.set()
            ours.close()
            server.join(timeout=10)
            theirs.close()
        assert not server.is_alive()

    def test_long_connection_retains_no_finished_groups(
        self, fleet_artifact, monkeypatch
    ):
        import repro.serving.core as core_module

        submitted = []

        class RecordingPool(core_module.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                submitted.append(weakref.ref(future))
                return future

        monkeypatch.setattr(core_module, "ThreadPoolExecutor", RecordingPool)
        worker = ServiceWorker.from_artifact(fleet_artifact)
        ours, theirs = socket.socketpair()
        server = threading.Thread(
            target=worker.serve_connection, args=(theirs,), daemon=True
        )
        server.start()
        try:
            query = parse_query(COMPLETE_ONLY_SQL)
            for request_id in range(20):
                send_frame(ours, "query", id=request_id, query=query)
                assert recv_frame(ours)["kind"] == "answer"
            gc.collect()
            alive = [ref for ref in submitted if ref() is not None]
            assert len(submitted) == 20
            # Only the group whose answer just arrived may still be
            # finishing on its thread; every earlier one is gone.
            assert len(alive) <= 1
            send_frame(ours, "shutdown")
            assert recv_frame(ours)["kind"] == "bye"
        finally:
            ours.close()
            server.join(timeout=10)
            theirs.close()
        assert not server.is_alive()


@pytest.mark.slow
class TestFleetRouterEndToEnd:
    def test_two_worker_fleet(self, fleet_artifact, reference_engine):
        expected = {
            sql: reference_engine.answer(parse_query(sql)).result.values
            for sql in (COMPLETION_SQL, COMPLETE_ONLY_SQL, GROUPED_SQL)
        }

        async def main():
            config = FleetConfig(
                n_workers=2, worker=ServiceConfig(max_queue=32, n_workers=2)
            )
            async with FleetRouter(fleet_artifact, config) as fleet:
                # N identical concurrent queries: fleet-wide single flight.
                answers = await asyncio.gather(
                    *(fleet.submit(COMPLETION_SQL) for _ in range(12))
                )
                burst = await fleet.stats()
                others = [
                    await fleet.submit(COMPLETE_ONLY_SQL),
                    await fleet.submit(GROUPED_SQL),
                ]
                stats = await fleet.stats()
                with pytest.raises(QueryValidationError, match="nope"):
                    await fleet.submit("SELECT AVG(nope) FROM ta;")
                with pytest.raises(QueryValidationError):
                    await fleet.submit("SELECT AVG(b FROM ta;")
            # The bye snapshots land during close(), i.e. after the
            # context exits — read them only now.
            return answers, others, burst, stats, fleet.final_worker_stats

        answers, others, burst, stats, final = asyncio.run(main())
        assert all(
            a.result.values == expected[COMPLETION_SQL] for a in answers
        )
        assert others[0].result.values == expected[COMPLETE_ONLY_SQL]
        assert others[1].result.values == expected[GROUPED_SQL]
        # Fleet-wide single flight while cold: the identical burst cost
        # one join total, on exactly one worker.
        assert burst.joins_started == 1
        burst_joins = [w.get("joins_started", 0) for w in burst.per_worker]
        assert sorted(burst_joins) == [0, 1]
        # Warm spreading may replicate the (now-warm) signature's join
        # into the other worker's cache — bounded at one per worker.
        per_worker_joins = [
            w.get("joins_started", 0) for w in stats.per_worker
        ]
        assert all(j <= 1 for j in per_worker_joins)
        assert stats.completed == 14
        # Validation failures raise before admission, like the core's
        # submit: only admitted requests are counted.
        assert stats.requests == 14
        # Clean shutdown: both workers sent their final bye snapshots, and
        # everything the fleet accepted was answered before closing.
        assert all(isinstance(s, dict) for s in final)
        assert sum(s["completed"] for s in final) == 14

    def test_traced_query_stitches_one_cross_process_tree(
        self, fleet_artifact, tmp_path
    ):
        """The telemetry contract, end to end: one traced fleet query's
        spans — router submit, worker batch/single-flight, engine answer,
        chunk walk — form a single tree across process boundaries, export
        as valid Chrome-trace JSON, and the workers' bye-frame counters
        sum to the router's totals with telemetry enabled throughout."""
        tracer = Tracer()
        enable_tracing(tracer=tracer)
        try:

            async def main():
                config = FleetConfig(
                    n_workers=2, worker=ServiceConfig(max_queue=32, n_workers=2)
                )
                async with FleetRouter(fleet_artifact, config) as fleet:
                    first = await fleet.submit(COMPLETION_SQL)
                    rest = await asyncio.gather(
                        *(fleet.submit(COMPLETION_SQL) for _ in range(5))
                    )
                    router = fleet.router_stats()
                return first, rest, router, fleet.final_worker_stats

            first, rest, router, final = asyncio.run(main())
        finally:
            disable_tracing()

        assert first.result.values == rest[0].result.values

        # --- one stitched tree per traced request ---------------------
        spans = tracer.spans()
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span.trace_id, []).append(span)
        roots = {
            tid: [s for s in group if s.parent_id is None]
            for tid, group in by_trace.items()
        }
        # every trace has exactly one root: the router's submit span
        assert len(by_trace) == 6
        assert all(
            len(r) == 1 and r[0].name == "fleet.submit"
            for r in roots.values()
        )
        # the first (cold, leading) trace reaches worker-side depth
        first_trace = [
            tid for tid, group in by_trace.items()
            if any(s.name == "join.chunk" for s in group)
        ]
        assert first_trace, "no trace reached the chunk walk"
        deep = by_trace[first_trace[0]]
        names = {s.name for s in deep}
        assert {"fleet.submit", "serve.group", "serve.single_flight",
                "engine.completed_join", "join.walk_chunks",
                "join.chunk"} <= names
        assert len({s.pid for s in deep}) == 2  # router + worker pids
        # parents all resolve within the trace (stitching, not orphans)
        ids = {s.span_id for s in deep}
        assert all(
            s.parent_id in ids for s in deep if s.parent_id is not None
        )
        forest = span_tree(deep)
        assert len(forest) == 1

        # --- valid Chrome-trace JSON ----------------------------------
        doc = export_chrome_trace(tmp_path / "fleet-trace.json", tracer=tracer)
        assert validate_chrome_trace(doc) == []

        # --- bye-frame stats sum to router totals ---------------------
        assert router["completed"] == 6
        assert all(isinstance(s, dict) for s in final)
        assert sum(s["completed"] for s in final) == router["completed"]
        assert sum(s["requests"] for s in final) == router["requests"]
        assert sum(s["failed"] for s in final) == router["failed"]

        # --- lifecycle events flowed through the structured log -------
        for event in ("worker.spawn", "worker.ready", "fleet.drain"):
            assert recent_records(event=event), event

    def test_close_leaves_no_worker_socket_dirs(
        self, fleet_artifact, socket_tmpdir
    ):
        """Worker 1 exits cleanly; worker 0 is killed, so the router
        removes its socket dir."""
        async def main():
            config = FleetConfig(n_workers=2)
            async with FleetRouter(fleet_artifact, config) as fleet:
                await fleet.submit(COMPLETE_ONLY_SQL)
                assert len(list(socket_tmpdir.glob("restore-wk-*"))) == 2
                victim = fleet._workers[0].process
                victim.kill()
                victim.join(timeout=10)

        asyncio.run(main())
        assert list(socket_tmpdir.glob("restore-wk-*")) == []

    def test_worker_startup_failure_leaves_no_socket_dir(
        self, fleet_artifact, socket_tmpdir
    ):
        """The router vanished before the worker could report ready."""
        bound = []

        class VanishedRouter:
            def send(self, message):
                if message[0] == "ok":
                    bound.extend(socket_tmpdir.glob("restore-wk-*/worker.sock"))
                    raise BrokenPipeError("router is gone")

            def close(self):
                pass

        worker_main(str(fleet_artifact), VanishedRouter())
        assert len(bound) == 1  # the socket existed when startup failed
        assert list(socket_tmpdir.glob("restore-wk-*")) == []

    def test_startup_failure_reports_cause(self, tmp_path):
        async def main():
            config = FleetConfig(n_workers=1, connect_timeout_s=60.0)
            router = FleetRouter(tmp_path / "not-an-artifact", config)
            with pytest.raises(Exception) as excinfo:
                await router.start()
            return excinfo

        excinfo = asyncio.run(main())
        # The router surfaces the real startup cause — its own routing
        # artifact load failure or the worker's reported error — never a
        # bare connect timeout.
        message = str(excinfo.value)
        assert "manifest" in message or "worker 0" in message


# ----------------------------------------------------------------------
# Zero-downtime hot swap (slow)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet_artifact_v2(fleet_artifact, tmp_path_factory) -> Path:
    """The upgrade target: same schema, mutated rows, warm-started models.

    Built by mutating a twin of the v1 engine and fine-tuning, so swap
    tests can tell the versions apart by their answers (row counts
    change) while both serve the same queries.
    """
    engine = ReStore.load(fleet_artifact)
    table = engine.db.table("ta")
    doomed = [int(k) for k in table["id"][:5]]
    delta = engine.apply_mutations(deletes={"ta": doomed})
    engine.fine_tune()
    path = tmp_path_factory.mktemp("fleet") / "artifact-v2"
    save_artifact(engine, path, scenario="synthetic/biased",
                  parent=fleet_artifact, delta=delta)
    return path


@pytest.fixture(scope="module")
def reference_engine_v2(fleet_artifact_v2) -> ReStore:
    return ReStore.load(fleet_artifact_v2)


def _values(engine, sql):
    return dict(engine.answer(parse_query(sql)).result.values)


@pytest.mark.slow
class TestWorkerHotSwap:
    def test_swap_frame_switches_engine_and_corrupt_swap_is_rejected(
        self, fleet_artifact, fleet_artifact_v2,
        reference_engine, reference_engine_v2, tmp_path,
    ):
        old = _values(reference_engine, COMPLETE_ONLY_SQL)
        new = _values(reference_engine_v2, COMPLETE_ONLY_SQL)
        assert old != new, "v2 artifact must be distinguishable by answers"

        worker = ServiceWorker.from_artifact(
            fleet_artifact, ServiceConfig(max_queue=16, n_workers=2)
        )
        ours, theirs = socket.socketpair()
        server = threading.Thread(
            target=worker.serve_connection, args=(theirs,), daemon=True
        )
        server.start()
        query = parse_query(COMPLETE_ONLY_SQL)

        def ask(request_id):
            send_frame(ours, "query", id=request_id, query=query)
            frame = recv_frame(ours)
            assert frame["kind"] == "answer" and frame["id"] == request_id
            return dict(frame["answer"].result.values)

        try:
            assert ask(1) == old

            send_frame(ours, "swap", id=2, path=str(fleet_artifact_v2))
            frame = recv_frame(ours)
            assert frame["kind"] == "swap_reply" and frame["id"] == 2
            assert frame["ok"] is True
            assert frame["info"]["scenario"] == "synthetic/biased"
            assert frame["info"]["lineage"]["parent_path"] == str(fleet_artifact)

            # post-swap answers come from the new artifact
            assert ask(3) == new

            # a corrupt artifact is rejected with a taxonomy code and the
            # worker keeps serving the version it already has
            corrupt = tmp_path / "corrupt"
            corrupt.mkdir()
            send_frame(ours, "swap", id=4, path=str(corrupt))
            frame = recv_frame(ours)
            assert frame["kind"] == "swap_reply" and frame["id"] == 4
            assert frame["ok"] is False
            assert frame["code"].startswith("artifact")
            assert ask(5) == new

            send_frame(ours, "shutdown")
            assert recv_frame(ours)["kind"] == "bye"
        finally:
            ours.close()
            server.join(timeout=10)
            theirs.close()
            assert not server.is_alive()


@pytest.mark.slow
class TestFleetRollingSwap:
    def test_rolling_swap_under_load_drops_nothing(
        self, fleet_artifact, fleet_artifact_v2,
        reference_engine, reference_engine_v2,
    ):
        old = _values(reference_engine, COMPLETION_SQL)
        new = _values(reference_engine_v2, COMPLETION_SQL)
        new_count = _values(reference_engine_v2, COMPLETE_ONLY_SQL)

        async def main():
            config = FleetConfig(
                n_workers=2, worker=ServiceConfig(max_queue=32, n_workers=2)
            )
            async with FleetRouter(fleet_artifact, config) as fleet:
                # keep queries in flight while the rollout runs
                load = [
                    asyncio.create_task(fleet.submit(COMPLETION_SQL))
                    for _ in range(16)
                ]
                result = await fleet.rolling_swap(fleet_artifact_v2)
                answers = await asyncio.gather(*load)
                post = [
                    await fleet.submit(COMPLETION_SQL),
                    await fleet.submit(COMPLETE_ONLY_SQL),
                ]
                stats = await fleet.stats()
            return result, answers, post, stats

        result, answers, post, stats = asyncio.run(main())
        # every worker upgraded, none skipped
        assert result["swapped"] == [0, 1]
        assert result["skipped"] == []
        assert result["info"]["scenario"] == "synthetic/biased"
        # zero dropped in-flight requests: each concurrent answer is a
        # coherent old- or new-version answer (never an error, never mixed)
        for answer in answers:
            assert dict(answer.result.values) in (old, new)
        # after the rollout, the fleet serves the new artifact only
        assert dict(post[0].result.values) == new
        assert dict(post[1].result.values) == new_count
        assert stats.completed == 18
        assert stats.failed == 0

    def test_rolling_swap_to_corrupt_artifact_keeps_old_version(
        self, fleet_artifact, reference_engine, tmp_path,
    ):
        from repro.errors import ArtifactError

        old = _values(reference_engine, COMPLETE_ONLY_SQL)
        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()

        async def main():
            config = FleetConfig(
                n_workers=2, worker=ServiceConfig(max_queue=32, n_workers=2)
            )
            async with FleetRouter(fleet_artifact, config) as fleet:
                before = await fleet.submit(COMPLETE_ONLY_SQL)
                with pytest.raises(ArtifactError):
                    await fleet.rolling_swap(corrupt)
                # the rejecting worker validated before swapping: the whole
                # fleet keeps serving the old version
                after = await fleet.submit(COMPLETE_ONLY_SQL)
                assert str(fleet.artifact_path) == str(fleet_artifact)
            return before, after

        before, after = asyncio.run(main())
        assert dict(before.result.values) == old
        assert dict(after.result.values) == old
