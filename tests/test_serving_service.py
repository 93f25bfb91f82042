"""Tests for :mod:`repro.serving.service` — the micro-batching service.

Covers answer parity with direct engine calls, single-flight join
coalescing (N identical concurrent queries → exactly one incompleteness
join), admission backpressure and overload rejection, lifecycle edges
(double start, close answering everything admitted, submit after
close), the submitter's trace, query validation errors, concurrent
multi-client load, and the stats surface.
"""

import asyncio
import threading
import time

import pytest

from repro import ReStore, ReStoreConfig, parse_query
from repro.core import ModelConfig
from repro.incomplete.registry import make_scenario_dataset
from repro.nn import TrainConfig
from repro.obs import (
    Tracer,
    disable_tracing,
    enable_tracing,
    set_tracer,
    trace,
)
from repro.serving import (
    CompletionService,
    ServiceClosedError,
    ServiceConfig,
    ServiceOverloadedError,
)

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
def fresh_engine(engine) -> ReStore:
    """The module engine with an empty, zeroed join cache."""
    engine.clear_cache()
    return engine


def run(coro):
    return asyncio.run(coro)


class TestAnswers:
    def test_matches_direct_engine_answers(self, fresh_engine):
        queries = [COMPLETION_SQL, COMPLETE_ONLY_SQL, GROUPED_SQL]
        direct = [
            fresh_engine.answer(parse_query(sql)).result.values
            for sql in queries
        ]
        fresh_engine.clear_cache()

        async def main():
            async with CompletionService(fresh_engine) as service:
                return await service.submit_many(queries)

        answers = run(main())
        assert [a.result.values for a in answers] == direct
        assert answers[1].used_completion is False  # ta is complete

    def test_accepts_ast_and_sql(self, fresh_engine):
        async def main():
            async with CompletionService(fresh_engine) as service:
                from_sql = await service.submit(COMPLETION_SQL)
                from_ast = await service.submit(parse_query(COMPLETION_SQL))
                return from_sql, from_ast

        from_sql, from_ast = run(main())
        assert from_sql.result.values == from_ast.result.values

    def test_engine_errors_propagate_to_caller(self):
        """Routing failures surface on the submitting coroutine, not in a
        background task: an unfitted engine rejects completion queries."""
        unfitted = ReStore.from_dataset(make_scenario_dataset(
            "synthetic/biased", keep_rate=0.5, seed=1, scale=0.2
        ))

        async def main():
            async with CompletionService(unfitted) as service:
                complete_ok = await service.submit(COMPLETE_ONLY_SQL)
                with pytest.raises(RuntimeError, match="fit"):
                    await service.submit(COMPLETION_SQL)
                return complete_ok, service.stats()

        answer, stats = run(main())
        assert answer.used_completion is False  # complete tables still work
        assert stats.failed == 1 and stats.completed == 1


class TestSuspectedBias:
    def test_bias_hint_matches_direct_engine_and_keeps_loop_off_joins(
        self, fresh_engine
    ):
        """Suspected-bias requests defer their (join-evaluating) selection
        to the worker thread and answer exactly like the engine."""
        from repro import BiasDirection, SuspectedBias

        bias = SuspectedBias(
            attribute="b", direction=BiasDirection.UNDERESTIMATED, value="v1"
        )
        query = parse_query(COMPLETION_SQL)
        direct = fresh_engine.answer(query, suspected_bias=bias).result.values
        fresh_engine.clear_cache()

        async def main():
            async with CompletionService(fresh_engine) as service:
                return await service.submit(COMPLETION_SQL, suspected_bias=bias)

        assert run(main()).result.values == direct


class TestValidation:
    def test_unknown_column_raises_value_error_with_candidates(self, fresh_engine):
        async def main():
            async with CompletionService(fresh_engine) as service:
                await service.submit("SELECT AVG(nope) FROM tb;")

        with pytest.raises(ValueError) as err:
            run(main())
        assert "nope" in str(err.value)
        assert "tb.b" in str(err.value)  # candidates are listed
        assert not isinstance(err.value, KeyError)

    def test_unknown_table_raises_value_error(self, fresh_engine):
        async def main():
            async with CompletionService(fresh_engine) as service:
                await service.submit("SELECT COUNT(*) FROM nowhere;")

        with pytest.raises(ValueError, match="nowhere"):
            run(main())

    def test_validation_failures_do_not_leak_admission_slots(self, fresh_engine):
        async def main():
            config = ServiceConfig(max_queue=2)
            async with CompletionService(fresh_engine, config) as service:
                for _ in range(5):  # would exhaust 2 slots if leaking
                    with pytest.raises(ValueError):
                        await service.submit("SELECT AVG(nope) FROM tb;")
                return await service.submit(COMPLETION_SQL)

        assert run(main()).result.values


class TestSingleFlight:
    def test_identical_concurrent_queries_run_one_join(self, fresh_engine):
        async def main():
            config = ServiceConfig(max_batch=32)
            async with CompletionService(fresh_engine, config) as service:
                answers = await service.submit_many([COMPLETION_SQL] * 16)
                return answers, service.stats()

        answers, stats = run(main())
        assert len({a.result.scalar for a in answers}) == 1
        assert stats.joins_started == 1
        # Requests beyond the first either shared its batch group or rode
        # the in-flight join; a few may land as plain cache hits if their
        # batch formed after the join finished (timing), so the counter is
        # bounded, not pinned.
        assert 0 < stats.coalesced_requests <= 15
        assert stats.cache["misses"] == 1  # the one join; everything else hit

    def test_coalescing_across_batches(self, fresh_engine):
        """One-request batches still coalesce: later batches await the
        in-flight join or hit the cache — never start a second join."""
        async def main():
            config = ServiceConfig(max_batch=1)
            async with CompletionService(fresh_engine, config) as service:
                answers = await service.submit_many([COMPLETION_SQL] * 8)
                return answers, service.stats()

        answers, stats = run(main())
        assert len({a.result.scalar for a in answers}) == 1
        assert stats.joins_started == 1
        assert stats.batches >= 2  # truly split across micro-batches

    def test_mixed_batch_groups_by_signature(self, fresh_engine):
        async def main():
            config = ServiceConfig(max_batch=32)
            async with CompletionService(fresh_engine, config) as service:
                answers = await service.submit_many(
                    [COMPLETION_SQL, COMPLETE_ONLY_SQL] * 4
                )
                return answers, service.stats()

        answers, stats = run(main())
        assert stats.joins_started == 1  # complete-only queries join nothing
        assert stats.completed == 8


class TestBackpressure:
    def test_overload_rejection_without_wait(self, fresh_engine, monkeypatch):
        real_answer = fresh_engine.answer

        def slow_answer(*args, **kwargs):
            time.sleep(0.2)
            return real_answer(*args, **kwargs)

        monkeypatch.setattr(fresh_engine, "answer", slow_answer)

        async def main():
            config = ServiceConfig(
                max_queue=2, max_batch=1, n_workers=1
            )
            async with CompletionService(fresh_engine, config) as service:
                slow = [
                    asyncio.ensure_future(service.submit(COMPLETION_SQL))
                    for _ in range(2)
                ]
                await asyncio.sleep(0.05)  # both slots now held in-service
                with pytest.raises(ServiceOverloadedError):
                    await service.submit(COMPLETION_SQL, wait=False)
                answers = await asyncio.gather(*slow)
                return answers, service.stats()

        answers, stats = run(main())
        assert len(answers) == 2
        assert stats.rejected == 1
        assert stats.completed == 2

    def test_backpressure_waits_instead_of_failing(self, fresh_engine, monkeypatch):
        real_answer = fresh_engine.answer

        def slow_answer(*args, **kwargs):
            time.sleep(0.05)
            return real_answer(*args, **kwargs)

        monkeypatch.setattr(fresh_engine, "answer", slow_answer)

        async def main():
            config = ServiceConfig(
                max_queue=2, max_batch=2, n_workers=1
            )
            async with CompletionService(fresh_engine, config) as service:
                answers = await service.submit_many([COMPLETION_SQL] * 6)
                return answers, service.stats()

        answers, stats = run(main())
        assert len(answers) == 6 and stats.completed == 6
        assert stats.rejected == 0


class TestLifecycle:
    def test_submit_requires_running_service(self, fresh_engine):
        async def main():
            service = CompletionService(fresh_engine)
            with pytest.raises(ServiceClosedError):
                await service.submit(COMPLETION_SQL)

        run(main())

    def test_submit_after_close_raises(self, fresh_engine):
        async def main():
            service = CompletionService(fresh_engine)
            await service.start()
            await service.close()
            with pytest.raises(ServiceClosedError):
                await service.submit(COMPLETION_SQL)

        run(main())

    def test_double_start_and_close_are_idempotent(self, fresh_engine):
        async def main():
            service = CompletionService(fresh_engine)
            await service.start()
            await service.start()
            answer = await service.submit(COMPLETE_ONLY_SQL)
            await service.close()
            await service.close()
            return answer

        assert run(main()).result.scalar > 0

    def test_close_answers_every_admitted_request(
        self, fresh_engine, monkeypatch
    ):
        """close() drains like a worker or a fleet: requests admitted
        before it are answered, none fail with ServiceClosedError."""
        real_answer = fresh_engine.answer
        started = threading.Event()

        def slow_answer(*args, **kwargs):
            started.set()
            time.sleep(0.3)
            return real_answer(*args, **kwargs)

        monkeypatch.setattr(fresh_engine, "answer", slow_answer)

        async def main():
            config = ServiceConfig(n_workers=1, max_batch=1)
            service = await CompletionService(fresh_engine, config).start()
            pending = [
                asyncio.ensure_future(service.submit(COMPLETE_ONLY_SQL))
                for _ in range(4)
            ]
            assert await asyncio.to_thread(started.wait, 30)
            await service.close()
            outcomes = await asyncio.gather(*pending, return_exceptions=True)
            return outcomes, service.stats()

        outcomes, stats = run(main())
        assert [type(o).__name__ for o in outcomes] == ["Answer"] * 4
        assert stats.completed == 4 and stats.failed == 0

    def test_close_refuses_requests_still_waiting_for_admission(
        self, fresh_engine, monkeypatch
    ):
        """Only admitted requests are answered: one still waiting for a
        slot when close() starts fails with ServiceClosedError."""
        real_answer = fresh_engine.answer
        started = threading.Event()

        def slow_answer(*args, **kwargs):
            started.set()
            time.sleep(0.3)
            return real_answer(*args, **kwargs)

        monkeypatch.setattr(fresh_engine, "answer", slow_answer)

        async def main():
            config = ServiceConfig(max_queue=1, n_workers=1)
            service = await CompletionService(fresh_engine, config).start()
            admitted = asyncio.ensure_future(service.submit(COMPLETE_ONLY_SQL))
            waiting = asyncio.ensure_future(service.submit(COMPLETE_ONLY_SQL))
            assert await asyncio.to_thread(started.wait, 30)
            await service.close()
            outcomes = await asyncio.gather(
                admitted, waiting, return_exceptions=True
            )
            return outcomes, service

        (answer, refused), service = run(main())
        assert type(answer).__name__ == "Answer"
        assert isinstance(refused, ServiceClosedError)
        assert service.core.gate.in_service() == 0

    def test_request_refused_at_close_is_counted_failed(
        self, fresh_engine, monkeypatch
    ):
        """The refused request was counted when it asked for a slot, so
        its refusal is counted too: every request ends in one outcome."""
        real_answer = fresh_engine.answer
        started = threading.Event()

        def slow_answer(*args, **kwargs):
            started.set()
            time.sleep(0.3)
            return real_answer(*args, **kwargs)

        monkeypatch.setattr(fresh_engine, "answer", slow_answer)

        async def main():
            config = ServiceConfig(max_queue=1, n_workers=1)
            service = await CompletionService(fresh_engine, config).start()
            admitted = asyncio.ensure_future(service.submit(COMPLETE_ONLY_SQL))
            waiting = asyncio.ensure_future(service.submit(COMPLETE_ONLY_SQL))
            assert await asyncio.to_thread(started.wait, 30)
            await service.close()
            await asyncio.gather(admitted, waiting, return_exceptions=True)
            return service.stats()

        stats = run(main())
        assert (stats.requests, stats.completed, stats.failed) == (2, 1, 1)
        assert stats.requests == stats.completed + stats.failed + stats.rejected

    def test_request_cancelled_while_awaiting_admission_is_counted_failed(
        self, fresh_engine, monkeypatch
    ):
        """A caller that stops waiting for a slot (a timeout under
        overload) still leaves one outcome, and the slot it would have
        inherited is released once."""
        real_answer = fresh_engine.answer
        started = threading.Event()

        def slow_answer(*args, **kwargs):
            started.set()
            time.sleep(0.3)
            return real_answer(*args, **kwargs)

        monkeypatch.setattr(fresh_engine, "answer", slow_answer)

        async def main():
            config = ServiceConfig(max_queue=1, n_workers=1)
            async with CompletionService(fresh_engine, config) as service:
                admitted = asyncio.ensure_future(service.submit(COMPLETE_ONLY_SQL))
                waiting = asyncio.ensure_future(service.submit(COMPLETE_ONLY_SQL))
                assert await asyncio.to_thread(started.wait, 30)
                waiting.cancel()
                outcomes = await asyncio.gather(
                    admitted, waiting, return_exceptions=True
                )
            return outcomes, service

        (answer, cancelled), service = run(main())
        assert type(answer).__name__ == "Answer"
        assert isinstance(cancelled, asyncio.CancelledError)
        stats = service.stats()
        assert (stats.requests, stats.completed, stats.failed) == (2, 1, 1)
        assert service.core.gate.in_service() == 0

    def test_close_does_not_block_the_event_loop(
        self, fresh_engine, monkeypatch
    ):
        real_answer = fresh_engine.answer
        started = threading.Event()

        def slow_answer(*args, **kwargs):
            started.set()
            time.sleep(0.3)
            return real_answer(*args, **kwargs)

        monkeypatch.setattr(fresh_engine, "answer", slow_answer)

        async def main():
            config = ServiceConfig(n_workers=1, max_batch=1)
            service = await CompletionService(fresh_engine, config).start()
            pending = [
                asyncio.ensure_future(service.submit(COMPLETE_ONLY_SQL))
                for _ in range(2)
            ]
            assert await asyncio.to_thread(started.wait, 30)
            closing = asyncio.ensure_future(service.close())
            ticks = 0
            while not closing.done():  # a blocked loop ticks once at most
                await asyncio.sleep(0.01)
                ticks += 1
            await closing
            await asyncio.gather(*pending)
            return ticks

        assert run(main()) >= 5


class TestTracing:
    def test_served_spans_join_the_submitters_trace(self, fresh_engine):
        tracer = enable_tracing(tracer=Tracer())

        async def main():
            async with CompletionService(fresh_engine) as service:
                with trace("client") as client:
                    await service.submit(COMPLETION_SQL)
                    async for _ in service.submit_progressive(COMPLETION_SQL):
                        pass
                return client.trace_id

        try:
            client_trace = run(main())
            spans = tracer.spans()
        finally:
            disable_tracing()
            set_tracer(Tracer())
        names = {s.name for s in spans}
        assert {"serve.group", "engine.answer", "engine.complete"} <= names
        assert {s.trace_id for s in spans} == {client_trace}


class TestConcurrentClients:
    @pytest.mark.parametrize("num_clients", [8, 32])
    def test_sustains_concurrent_clients(self, fresh_engine, num_clients):
        """The acceptance bar: ≥ 8 concurrent clients, every request
        answered, identical in-flight queries coalesced into one join."""
        queries = [COMPLETION_SQL, GROUPED_SQL, COMPLETE_ONLY_SQL]

        async def client(service, client_id):
            results = []
            for i in range(3):
                answer = await service.submit(queries[(client_id + i) % 3])
                results.append(answer.result.values)
            return results

        async def main():
            config = ServiceConfig(max_queue=max(num_clients, 16))
            async with CompletionService(fresh_engine, config) as service:
                results = await asyncio.gather(
                    *(client(service, i) for i in range(num_clients))
                )
                return results, service.stats()

        results, stats = run(main())
        assert len(results) == num_clients
        assert stats.completed == 3 * num_clients
        assert stats.failed == 0
        # Two distinct completion signatures exist at most (both queries
        # select a model over the same target); the cache and single-flight
        # map keep the join count independent of the client count.
        assert stats.joins_started <= 2
        assert stats.p95_latency_ms >= stats.p50_latency_ms > 0


class TestStats:
    def test_stats_shape_and_counters(self, fresh_engine):
        async def main():
            async with CompletionService(fresh_engine) as service:
                await service.submit_many([COMPLETION_SQL] * 4)
                return service.stats()

        stats = run(main())
        as_dict = stats.as_dict()
        assert as_dict["requests"] == 4
        assert as_dict["completed"] == 4
        assert as_dict["queued"] == 0
        assert as_dict["batches"] >= 1
        assert 1 <= as_dict["mean_batch_size"] <= 4
        assert as_dict["max_batch_size"] <= 4
        assert as_dict["p50_latency_ms"] > 0
        assert 0 <= as_dict["cache"]["hit_rate"] <= 1


class TestServiceHotSwap:
    def test_hot_swap_while_running_switches_answers(
        self, engine, tmp_path_factory
    ):
        from repro.serving import save_artifact

        root = tmp_path_factory.mktemp("service-swap")
        v1, v2 = root / "v1", root / "v2"
        save_artifact(engine, v1, scenario="synthetic/biased")
        twin = ReStore.load(v1)
        delta = twin.apply_mutations(
            deletes={"ta": [int(k) for k in twin.db.table("ta")["id"][:5]]}
        )
        save_artifact(twin, v2, scenario="synthetic/biased", parent=v1,
                      delta=delta)
        expected_new = ReStore.load(v2).answer(
            parse_query(COMPLETE_ONLY_SQL)
        ).result.values

        async def main():
            service = CompletionService(ReStore.load(v1))
            async with service:
                before = await service.submit(COMPLETE_ONLY_SQL)
                info = await service.hot_swap(v2)
                after = await service.submit(COMPLETE_ONLY_SQL)
                stats = service.core.stats()
            return before, info, after, stats, service

        before, info, after, stats, service = run(main())
        assert info["lineage"]["parent_path"] == str(v1)
        assert after.result.values == expected_new
        assert after.result.values != before.result.values
        assert stats.swaps == 1
        # the shell's engine reference follows the core's
        assert service.engine is service.core.engine
