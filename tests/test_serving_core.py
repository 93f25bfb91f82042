"""Tests for :mod:`repro.serving.core` — the transport-agnostic core.

The core is the synchronous brain every shell wraps, so it must be fully
exercisable without an event loop: config validation, FIFO admission,
micro-batch grouping, single-flight join coalescing (including the
threaded race), progressive flight replay, and the stats surface — all
with plain threads.  A source-level test pins the headline invariant:
``serving/core.py`` imports no asyncio.
"""

import contextvars
import functools
import sys
import threading
from collections import Counter

import pytest

from repro import ReStore, ReStoreConfig, parse_query
from repro.core import ModelConfig
from repro.errors import (
    ConfigurationError,
    QueryValidationError,
    ServiceOverloadedError,
    wire_code,
)
from repro.incomplete.registry import make_scenario_dataset
from repro.nn import TrainConfig
from repro.serving import (
    AdmissionGate,
    CoreRequest,
    Dispatcher,
    ProgressiveFlight,
    ServiceConfig,
    ServingCore,
)
from repro.serving.core import FLIGHT_DONE

FAST = TrainConfig(epochs=3, batch_size=128, lr=1e-2, patience=2)

COMPLETION_SQL = "SELECT COUNT(*) FROM ta NATURAL JOIN tb WHERE b = 'v1';"
COMPLETE_ONLY_SQL = "SELECT COUNT(*) FROM ta;"
GROUPED_SQL = "SELECT COUNT(*) FROM ta NATURAL JOIN tb GROUP BY a;"


@pytest.fixture(scope="module")
def engine() -> ReStore:
    dataset = make_scenario_dataset(
        "synthetic/biased", keep_rate=0.5, seed=1, scale=0.2
    )
    config = ReStoreConfig(model=ModelConfig(train=FAST), seed=3)
    return ReStore.from_dataset(dataset, config).fit()


@pytest.fixture()
def core(engine) -> ServingCore:
    engine.clear_cache()
    return ServingCore(engine)


def _request(core: ServingCore, sql: str, **kwargs) -> CoreRequest:
    return CoreRequest(
        query=core.prepare(sql), enqueued_at=core.clock(), **kwargs
    )


# ----------------------------------------------------------------------
# The headline invariant: no asyncio in the core
# ----------------------------------------------------------------------


class TestTransportAgnostic:
    def test_core_module_imports_no_asyncio(self):
        import ast

        import repro.serving.core as core_module

        with open(core_module.__file__) as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert "asyncio" not in imported
        assert "asyncio" not in {
            name.split(".")[0] for name in list(vars(core_module))
        }

    def test_core_usable_without_event_loop(self, core):
        # Plain call stack, no loop anywhere: submit answers directly.
        answer = core.submit(COMPLETION_SQL)
        assert answer.used_completion is True
        assert core.stats().completed == 1


# ----------------------------------------------------------------------
# ServiceConfig validation
# ----------------------------------------------------------------------


class TestServiceConfigValidation:
    @pytest.mark.parametrize(
        "field", ["max_queue", "max_batch", "n_workers", "latency_window"]
    )
    def test_rejects_non_positive_ints_naming_the_field(self, field):
        with pytest.raises(ConfigurationError, match=f"ServiceConfig.{field}"):
            ServiceConfig(**{field: 0})
        with pytest.raises(ConfigurationError, match=f"ServiceConfig.{field}"):
            ServiceConfig(**{field: -3})

    @pytest.mark.parametrize(
        "field", ["max_queue", "max_batch", "n_workers", "latency_window"]
    )
    def test_rejects_non_integers(self, field):
        with pytest.raises(ConfigurationError, match=f"ServiceConfig.{field}"):
            ServiceConfig(**{field: 2.5})
        with pytest.raises(ConfigurationError, match=f"ServiceConfig.{field}"):
            ServiceConfig(**{field: True})

    def test_configuration_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)

    def test_valid_config_passes(self):
        config = ServiceConfig(max_queue=8, max_batch=4)
        assert (config.max_queue, config.max_batch) == (8, 4)


# ----------------------------------------------------------------------
# AdmissionGate
# ----------------------------------------------------------------------


class TestAdmissionGate:
    def test_try_acquire_bounded_by_capacity(self):
        gate = AdmissionGate(2)
        assert gate.try_acquire() and gate.try_acquire()
        assert not gate.try_acquire()
        gate.release()
        assert gate.try_acquire()

    def test_grant_callbacks_fire_fifo(self):
        gate = AdmissionGate(1)
        assert gate.try_acquire()
        order = []
        gate.acquire(lambda: order.append("first"))
        gate.acquire(lambda: order.append("second"))
        assert order == []  # both queued behind the held slot
        gate.release()
        assert order == ["first"]
        gate.release()
        assert order == ["first", "second"]
        assert gate.in_service() == 1  # second's slot is still held

    def test_try_acquire_never_jumps_the_queue(self):
        gate = AdmissionGate(1)
        assert gate.try_acquire()
        gate.acquire(lambda: None)  # a FIFO waiter is parked
        gate.release()  # waiter inherits the slot...
        assert not gate.try_acquire() or gate.in_service() <= 1

    def test_blocking_acquire_wakes_on_release(self):
        gate = AdmissionGate(1)
        assert gate.try_acquire()
        acquired = threading.Event()

        def blocker():
            gate.acquire()
            acquired.set()

        thread = threading.Thread(target=blocker, daemon=True)
        thread.start()
        assert not acquired.wait(0.1)
        gate.release()
        assert acquired.wait(2.0)
        thread.join()

    def test_rejects_capacity_below_one(self):
        with pytest.raises(ConfigurationError):
            AdmissionGate(0)


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------


def _admitted(core: ServingCore, deliver, **kwargs) -> CoreRequest:
    """A request holding its admission slot, as a shell puts it."""
    assert core.admit(wait=False)
    return _request(core, COMPLETE_ONLY_SQL, deliver=deliver, **kwargs)


class _Blocker:
    """A ``deliver`` that holds its serving thread until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.proceed = threading.Event()
        self.outcome = None

    def __call__(self, outcome):
        self.outcome = outcome
        self.entered.set()
        self.proceed.wait(timeout=30)


class TestDispatcher:
    """The one serving loop, driven with plain threads over a real core."""

    @staticmethod
    def _start(engine, **config):
        engine.clear_cache()
        core = ServingCore(engine, ServiceConfig(**config))
        return core, Dispatcher(core)

    def test_collects_up_to_max_batch(self, engine):
        core, dispatcher = self._start(engine, max_batch=3, n_workers=1)
        blocker, outcomes = _Blocker(), []
        try:
            dispatcher.put(_admitted(core, blocker))
            assert blocker.entered.wait(timeout=30)  # the only thread is busy
            for _ in range(5):
                dispatcher.put(_admitted(core, outcomes.append))
            assert dispatcher.qsize() == 5
        finally:
            blocker.proceed.set()
            dispatcher.close()
        stats = core.stats()
        assert (stats.batches, stats.max_batch_size) == (3, 3)  # 1, 3, 2
        assert [o.used_completion for o in outcomes] == [False] * 5

    def test_lone_request_is_taken_at_once(self, engine):
        # No timer holds a batch open for company: the request is answered
        # while the dispatcher keeps running, not by close().
        core, dispatcher = self._start(engine)
        delivered = threading.Event()
        try:
            dispatcher.put(_admitted(core, lambda _outcome: delivered.set()))
            assert delivered.wait(timeout=10)
        finally:
            dispatcher.close()
        assert core.stats().batches == 1

    def test_requests_queued_while_all_threads_busy_form_one_batch(self, engine):
        core, dispatcher = self._start(engine, n_workers=2)
        blockers, outcomes = [_Blocker(), _Blocker()], []
        try:
            for blocker in blockers:  # one batch and one thread each
                dispatcher.put(_admitted(core, blocker))
                assert blocker.entered.wait(timeout=30)
            for _ in range(3):
                dispatcher.put(_admitted(core, outcomes.append))
            assert dispatcher.qsize() == 3  # no thread free, so no batch yet
        finally:
            for blocker in blockers:
                blocker.proceed.set()
            dispatcher.close()
        stats = core.stats()
        assert (stats.batches, stats.max_batch_size) == (3, 3)
        assert len(outcomes) == 3

    def test_stress_delivers_every_request_exactly_once(self, engine):
        # More serving threads than cores and a tiny switch interval: a
        # lost update to the queue or the busy count would drop, repeat or
        # strand a request, or leave its admission slot held.
        core, dispatcher = self._start(
            engine, max_queue=200, max_batch=7, n_workers=4
        )
        delivered: Counter = Counter()
        lock = threading.Lock()

        def deliver_to(i):
            def deliver(outcome):
                with lock:
                    delivered[i] += 1
            return deliver

        def produce(first):
            for i in range(first, first + 50):
                dispatcher.put(_admitted(core, deliver_to(i)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            producers = [
                threading.Thread(target=produce, args=(50 * k,), daemon=True)
                for k in range(4)
            ]
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in producers)
        finally:
            sys.setswitchinterval(interval)
            closer = threading.Thread(target=dispatcher.close, daemon=True)
            closer.start()
            closer.join(timeout=60)
        assert not closer.is_alive()  # a lost busy-count update hangs here
        assert delivered == Counter(range(200))
        assert core.gate.in_service() == 0
        stats = core.stats()
        assert stats.completed == 200 and stats.failed == 0

    def test_close_drains_everything_queued_then_ends(self, engine):
        core, dispatcher = self._start(engine, max_batch=2, n_workers=1)
        blocker, outcomes = _Blocker(), []
        dispatcher.put(_admitted(core, blocker))
        assert blocker.entered.wait(timeout=30)
        for _ in range(3):
            dispatcher.put(_admitted(core, outcomes.append))
        closer = threading.Thread(target=dispatcher.close, daemon=True)
        closer.start()
        closer.join(timeout=0.2)
        assert closer.is_alive()  # close() waits for the queued requests
        blocker.proceed.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert blocker.outcome is not None and len(outcomes) == 3
        assert core.gate.in_service() == 0  # every slot released

    def test_close_reraises_a_failed_delivery_after_answering_the_rest(
        self, engine
    ):
        core, dispatcher = self._start(engine, n_workers=1)
        blocker, outcomes = _Blocker(), []

        def broken(_outcome):
            raise RuntimeError("caller went away")

        dispatcher.put(_admitted(core, blocker))
        assert blocker.entered.wait(timeout=30)
        # One batch, one group: the broken delivery sits between two others.
        for deliver in (outcomes.append, broken, outcomes.append):
            dispatcher.put(_admitted(core, deliver))
        blocker.proceed.set()
        with pytest.raises(RuntimeError, match="caller went away"):
            dispatcher.close()
        assert len(outcomes) == 2
        assert core.stats().max_batch_size == 3
        assert core.gate.in_service() == 0

    def test_routing_failure_is_delivered_and_frees_its_slot(
        self, engine, monkeypatch
    ):
        core, dispatcher = self._start(engine)
        real_route = core.route

        def route(request):
            if request.tenant == "doomed":
                raise RuntimeError("no model for this request")
            return real_route(request)

        monkeypatch.setattr(core, "route", route)
        outcomes: dict = {}
        # One put, one batch: the failure sits between two good requests.
        dispatcher.put(*(
            _admitted(
                core, functools.partial(outcomes.__setitem__, tenant),
                tenant=tenant,
            )
            for tenant in ("first", "doomed", "last")
        ))
        dispatcher.close()  # a routing failure is an answer, not a fault
        assert isinstance(outcomes.pop("doomed"), RuntimeError)
        assert [o.used_completion for o in outcomes.values()] == [False, False]
        stats = core.stats()
        assert (stats.batches, stats.completed, stats.failed) == (1, 2, 1)
        assert core.gate.in_service() == 0

    def test_run_carries_the_callers_context_onto_the_pool(self, engine):
        core, dispatcher = self._start(engine)
        caller = contextvars.ContextVar("caller", default=None)
        token = caller.set("client")
        try:
            future = dispatcher.run(
                lambda: (caller.get(), threading.current_thread().name)
            )
            value, thread_name = future.result(timeout=30)
        finally:
            caller.reset(token)
            dispatcher.close()
        assert value == "client"
        assert thread_name.startswith("restore-serve")


# ----------------------------------------------------------------------
# Synchronous serving: submit / serve_batch
# ----------------------------------------------------------------------


class TestCoreServing:
    def test_submit_matches_direct_engine(self, core):
        direct = core.engine.answer(parse_query(COMPLETION_SQL))
        core.engine.clear_cache()
        served = core.submit(COMPLETION_SQL)
        assert served.result.values == direct.result.values

    def test_serve_batch_aligns_results_with_requests(self, core):
        batch = [
            _request(core, COMPLETION_SQL),
            _request(core, COMPLETE_ONLY_SQL),
            _request(core, GROUPED_SQL),
        ]
        results = core.serve_batch(batch)
        assert len(results) == 3
        assert results[1].used_completion is False  # ta is complete
        assert results[0].used_completion and results[2].used_completion

    def test_one_batch_of_identical_queries_starts_one_join(self, core):
        batch = [_request(core, COMPLETION_SQL) for _ in range(6)]
        results = core.serve_batch(batch)
        assert all(not isinstance(r, BaseException) for r in results)
        stats = core.stats()
        assert stats.joins_started == 1
        assert stats.coalesced_requests == 5
        assert stats.cache["misses"] == 1

    def test_submit_wait_false_rejects_when_full(self, core):
        small = ServingCore(core.engine, ServiceConfig(max_queue=1))
        assert small.gate.try_acquire()  # hold the only slot
        with pytest.raises(ServiceOverloadedError):
            small.submit(COMPLETE_ONLY_SQL, wait=False)
        small.gate.release()
        assert small.stats().rejected == 1

    def test_admit_counts_every_request_and_rejects_only_without_wait(
        self, core
    ):
        small = ServingCore(core.engine, ServiceConfig(max_queue=1))
        assert small.admit(wait=False)  # takes the only slot
        assert small.admit(wait=True) is False  # the shell waits its own way
        with pytest.raises(
            ServiceOverloadedError, match="1 requests already in service"
        ):
            small.admit(wait=False)
        small.gate.release()
        stats = small.stats()
        assert (stats.requests, stats.rejected) == (3, 1)
        assert small.gate.in_service() == 0

    def test_unknown_column_raises_naming_candidates(self, core):
        # Validation happens in prepare(), before admission: the request
        # is never counted (same observable behaviour as the asyncio shell).
        with pytest.raises(ValueError, match="nonexistent"):
            core.submit("SELECT AVG(nonexistent) FROM ta;")
        assert core.stats().requests == 0

    def test_malformed_sql_raises_query_validation_error(self, core):
        with pytest.raises(QueryValidationError) as err:
            core.submit("SELECT AVG(b FROM ta;")
        assert wire_code(err.value) == "query_invalid"
        assert core.stats().requests == 0

    def test_threaded_single_flight_across_groups(self, core):
        """Concurrent serve_group calls for one signature run one join."""
        n_threads = 4
        batchers = [
            [_request(core, COMPLETION_SQL) for _ in range(2)]
            for _ in range(n_threads)
        ]
        groups = [core.group(b)[0] for b in batchers]
        barrier = threading.Barrier(n_threads)
        outcomes = [None] * n_threads

        def worker(i):
            barrier.wait()
            [(signature, (model, members))] = list(groups[i].items())
            outcomes[i] = core.serve_group(model, members, signature)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for result_list in outcomes:
            assert all(not isinstance(r, BaseException) for r in result_list)
        stats = core.stats()
        assert stats.joins_started == 1
        assert stats.cache["misses"] == 1
        # 8 requests total, 1 leader computed the join: 7 shared it (some
        # via the in-flight wait, some via the cache — both are coalescing
        # or plain hits; the flight-level counter stays bounded).
        assert 0 < stats.coalesced_requests <= 7


# ----------------------------------------------------------------------
# Progressive flights
# ----------------------------------------------------------------------


class TestProgressiveFlight:
    def test_subscribe_replays_history_then_streams(self):
        flight = ProgressiveFlight()
        flight.publish("r1")
        flight.publish("r2")
        seen = []
        flight.subscribe(seen.append)
        assert seen == ["r1", "r2"]
        flight.publish("r3")
        flight.finish(None)
        assert seen == ["r1", "r2", "r3", FLIGHT_DONE]

    def test_late_subscriber_gets_terminal_sentinel(self):
        flight = ProgressiveFlight()
        flight.publish("r1")
        flight.finish(None)
        seen = []
        flight.subscribe(seen.append)
        assert seen == ["r1", FLIGHT_DONE]

    def test_error_delivered_instead_of_done(self):
        flight = ProgressiveFlight()
        boom = RuntimeError("boom")
        seen = []
        flight.subscribe(seen.append)
        flight.finish(boom)
        assert seen == [boom]

    def test_open_progressive_coalesces_by_key(self, core):
        key = ("q", "None", None)
        first, created_first = core.open_progressive(key)
        second, created_second = core.open_progressive(key)
        assert first is second
        assert created_first and not created_second
        stats = core.stats()
        assert stats.progressive["flights"] == 1
        assert stats.progressive["coalesced_queries"] == 1
        # Finished flights deregister: the next opener starts fresh.
        core._progressive_flights.pop(key, None)
        third, created_third = core.open_progressive(key)
        assert created_third and third is not first


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------


class TestCoreStats:
    def test_stats_round_trip_as_dict(self, core):
        core.submit(COMPLETION_SQL)
        stats = core.stats(queued=7)
        payload = stats.as_dict()
        assert payload["queued"] == 7
        assert payload["requests"] == 1
        assert payload["completed"] == 1
        assert payload["p50_latency_ms"] >= 0.0
        assert set(payload["progressive"]) >= {
            "queries", "flights", "coalesced_queries",
        }

    def test_latency_percentiles_use_injected_clock(self, engine):
        engine.clear_cache()
        fake_now = [0.0]
        core = ServingCore(engine, clock=lambda: fake_now[0])
        request = _request(core, COMPLETE_ONLY_SQL)
        fake_now[0] = 0.25  # the request "waited" 250 ms
        [answer] = core.serve_batch([request])
        assert not isinstance(answer, BaseException)
        stats = core.stats()
        assert stats.p50_latency_ms == pytest.approx(250.0)


# ----------------------------------------------------------------------
# Hot swap
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def swap_artifacts(engine, tmp_path_factory):
    """A v1 artifact of the module engine plus a mutated v2 upgrade."""
    from repro.serving import save_artifact

    root = tmp_path_factory.mktemp("core-swap")
    v1 = root / "v1"
    save_artifact(engine, v1, scenario="synthetic/biased")
    twin = ReStore.load(v1)
    table = twin.db.table("ta")
    delta = twin.apply_mutations(
        deletes={"ta": [int(k) for k in table["id"][:5]]}
    )
    v2 = root / "v2"
    save_artifact(twin, v2, scenario="synthetic/biased", parent=v1,
                  delta=delta)
    return v1, v2


class TestHotSwap:
    def test_swap_switches_answers_and_counts(self, swap_artifacts):
        v1, v2 = swap_artifacts
        core = ServingCore(ReStore.load(v1))
        before = core.submit(COMPLETE_ONLY_SQL).result.values
        info = core.hot_swap(v2)
        assert info["scenario"] == "synthetic/biased"
        assert info["lineage"]["parent_path"] == str(v1)
        after = core.submit(COMPLETE_ONLY_SQL).result.values
        assert after != before
        assert after == ReStore.load(v2).answer(
            parse_query(COMPLETE_ONLY_SQL)
        ).result.values
        stats = core.stats()
        assert stats.swaps == 1
        assert stats.as_dict()["swaps"] == 1

    def test_corrupt_artifact_rejected_and_old_engine_keeps_serving(
        self, swap_artifacts, tmp_path
    ):
        from repro.errors import ArtifactError

        v1, _ = swap_artifacts
        core = ServingCore(ReStore.load(v1))
        engine_before = core.engine
        before = core.submit(COMPLETE_ONLY_SQL).result.values
        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()
        with pytest.raises(ArtifactError):
            core.hot_swap(corrupt)
        # validate-before-swap: the reference never moved
        assert core.engine is engine_before
        assert core.stats().swaps == 0
        assert core.submit(COMPLETE_ONLY_SQL).result.values == before
