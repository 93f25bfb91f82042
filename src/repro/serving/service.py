"""The asyncio shell over the transport-agnostic serving core.

:class:`CompletionService` is a thin event-loop adapter around
:class:`~repro.serving.core.ServingCore`: the core owns micro-batching
policy, join-signature grouping, single-flight coalescing, admission and
every statistic; this shell contributes only what an event loop must —
awaitable admission, an asyncio batch collector, futures for callers, and
a thread pool so numpy crunches off the loop.  Joins for *different*
signatures run concurrently (the completion cache is thread-safe), and the
observable behaviour — answers, errors, counters, backpressure — is
exactly the core's, which is also what the process workers of a
:class:`~repro.serving.FleetRouter` expose over the wire.

Queries are validated on submission: a column that does not exist in the
queried tables raises a ``ValueError`` listing the candidate columns —
never a raw ``KeyError`` from deep inside the executor.
"""

from __future__ import annotations

import asyncio
import contextlib
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

from ..core.engine import Answer, ReStore
from ..core.models import _CompletionModelBase
from ..core.progressive import SamplingBudget
from ..core.selection import SuspectedBias
from ..errors import ServiceClosedError
from .batching import MicroBatcher, ServiceRequest
from .core import (
    FLIGHT_DONE,
    QueryLike,
    ServiceConfig,
    ServiceStats,
    ServingCore,
)

__all__ = ["CompletionService", "ServiceConfig", "ServiceStats"]


class CompletionService:
    """Serve SPJA queries over one fitted :class:`~repro.core.ReStore`.

    Use as an async context manager (or call :meth:`start` / :meth:`close`
    explicitly)::

        async with CompletionService(engine) as service:
            answer = await service.submit(
                "SELECT AVG(price) FROM apartment;"
            )

    All submissions must come from the event loop the service was started
    on.  The engine is shared, not copied: answers are exactly what
    ``engine.answer`` would return, including completed-join provenance.

    A pre-built :class:`~repro.serving.ServingCore` may be passed instead
    of (engine, config) — e.g. to share one core between shells in tests.
    """

    def __init__(
        self,
        engine: ReStore,
        config: Optional[ServiceConfig] = None,
        core: Optional[ServingCore] = None,
    ):
        self.core = core if core is not None else ServingCore(engine, config)
        self.engine = self.core.engine
        self.config = self.core.config
        self._batcher = MicroBatcher(
            max_queue=self.config.max_queue,
            max_batch=self.config.max_batch,
            n_workers=self.config.n_workers,
        )
        self._progressive_drivers: set = set()
        self._group_tasks: set = set()
        self._collector: Optional["asyncio.Task"] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "CompletionService":
        if self._running:
            return self
        self._batcher.start()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.n_workers,
            thread_name_prefix="restore-serve",
        )
        self._collector = asyncio.get_running_loop().create_task(
            self._collect_forever()
        )
        self._running = True
        return self

    async def close(self) -> None:
        """Stop admissions, finish in-flight groups, fail queued requests."""
        if not self._running:
            return
        self._running = False
        assert self._collector is not None and self._pool is not None
        self._collector.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._collector
        for request in self._batcher.drain():
            self.core.count_failed()
            request.fail(ServiceClosedError("service closed before dispatch"))
        if self._group_tasks:
            await asyncio.gather(*list(self._group_tasks), return_exceptions=True)
        if self._progressive_drivers:
            await asyncio.gather(*list(self._progressive_drivers),
                                 return_exceptions=True)
        self._pool.shutdown(wait=True)

    async def __aenter__(self) -> "CompletionService":
        return await self.start()

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Admission (awaitable adapter over the core's gate)
    # ------------------------------------------------------------------
    async def _acquire_slot(self, wait: bool) -> None:
        core = self.core
        if core.gate.try_acquire():
            return
        if not wait:
            core.count_rejected()
            raise core.overloaded_error()
        loop = asyncio.get_running_loop()
        granted: "asyncio.Future" = loop.create_future()

        def _grant_on_loop() -> None:
            if granted.cancelled():
                core.gate.release()  # slot arrived after the caller left
            else:
                granted.set_result(None)

        core.gate.acquire(
            lambda: loop.call_soon_threadsafe(_grant_on_loop)
        )
        await granted

    # ------------------------------------------------------------------
    # Front-end
    # ------------------------------------------------------------------
    async def submit(
        self,
        query: QueryLike,
        suspected_bias: Optional[SuspectedBias] = None,
        wait: bool = True,
    ) -> Answer:
        """Submit one query and await its answer.

        ``query`` is an SQL string (parsed with the package grammar) or a
        :class:`~repro.query.Query`.  Validation happens up front: unknown
        tables or columns raise ``ValueError`` naming the candidates.
        With ``wait=False`` a full admission gate raises
        :class:`~repro.errors.ServiceOverloadedError` instead of applying
        backpressure.
        """
        if not self._running:
            raise ServiceClosedError("service is not running; use 'async with'")
        query = self.core.prepare(query)
        loop = asyncio.get_running_loop()
        self.core.count_request()
        await self._acquire_slot(wait)
        if not self._running:  # closed while waiting for admission
            self.core.gate.release()
            raise ServiceClosedError("service closed while awaiting admission")
        request = ServiceRequest(
            query=query,
            future=loop.create_future(),
            enqueued_at=self.core.clock(),
            suspected_bias=suspected_bias,
        )
        request.future.add_done_callback(lambda _f: self.core.gate.release())
        await self._batcher.put(request, wait=True)
        return await request.future

    async def submit_many(self, queries: Sequence[QueryLike]) -> List[Answer]:
        """Submit queries concurrently (one micro-batch candidate) and await all."""
        return list(await asyncio.gather(*(self.submit(q) for q in queries)))

    async def submit_progressive(
        self,
        query: QueryLike,
        budget: Optional[SamplingBudget] = None,
        suspected_bias: Optional[SuspectedBias] = None,
    ):
        """Submit one query for budgeted answering; iterate the refinements.

        An async iterator over :class:`~repro.core.Refinement`: the first
        element arrives after the budget's initial chunks complete, later
        ones as the estimate tightens, the last with ``final=True`` (exact,
        unless the budget truncates the run)::

            async for refinement in service.submit_progressive(sql):
                show(refinement.result, refinement.band)

        Identical in-flight queries are coalesced into **one** refinement
        sequence (the core's progressive flights): subscribers that join
        mid-run first replay the refinements already emitted, then stream
        live — every subscriber sees the same sequence, and the engine
        runs it once.
        """
        if not self._running:
            raise ServiceClosedError("service is not running; use 'async with'")
        query = self.core.prepare(query)
        budget = budget if budget is not None else SamplingBudget()
        loop = asyncio.get_running_loop()
        key = self.core.progressive_key(query, budget, suspected_bias)
        flight, created = self.core.open_progressive(key)
        if created:
            driver = loop.run_in_executor(
                self._pool, self.core.drive_progressive,
                key, flight, query, budget, suspected_bias,
            )
            self._progressive_drivers.add(driver)
            driver.add_done_callback(self._progressive_drivers.discard)
        queue: "asyncio.Queue" = asyncio.Queue()
        flight.subscribe(
            lambda item: loop.call_soon_threadsafe(queue.put_nowait, item)
        )
        while True:
            item = await queue.get()
            if item is FLIGHT_DONE:
                return
            if isinstance(item, BaseException):
                raise item
            yield item

    # ------------------------------------------------------------------
    # Batch collection and dispatch
    # ------------------------------------------------------------------
    async def _collect_forever(self) -> None:
        while True:
            batch = await self._batcher.next_batch()
            self.core.record_batch(len(batch))
            groups, failures = self.core.group(batch)
            for request, exc in failures:
                request.fail(exc)
            for signature, (model, requests) in groups.items():
                self._batcher.claim()
                task = asyncio.get_running_loop().create_task(
                    self._serve_group(signature, model, requests)
                )
                self._group_tasks.add(task)
                task.add_done_callback(self._group_done)

    def _group_done(self, task: "asyncio.Task") -> None:
        self._group_tasks.discard(task)
        self._batcher.release()

    async def _serve_group(
        self,
        signature: Tuple,
        model: Optional[_CompletionModelBase],
        requests: List[ServiceRequest],
    ) -> None:
        """One signature group: single-flight join + answers, off the loop.

        The whole of :meth:`ServingCore.serve_group` runs on a pool
        thread; the single-flight *leader* computes the join in that same
        thread, so followers waiting on it can never starve the pool.
        """
        loop = asyncio.get_running_loop()
        results = await loop.run_in_executor(
            self._pool, self.core.serve_group, model, requests, signature
        )
        for request, result in zip(requests, results):
            if isinstance(result, BaseException):
                request.fail(result)
            else:
                request.succeed(result)

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    async def hot_swap(self, artifact_path) -> dict:
        """Swap to the engine stored at ``artifact_path`` without downtime.

        Loading and validation run on the worker pool (no event-loop
        stall); the core performs the swap only after the replacement
        loaded cleanly, so a corrupt artifact raises here and the old
        engine keeps serving.  Groups already dispatched finish on the
        engine they were routed against; later batches use the new one.
        """
        if self._running and self._pool is not None:
            loop = asyncio.get_running_loop()
            info = await loop.run_in_executor(
                self._pool, self.core.hot_swap, artifact_path
            )
        else:
            info = self.core.hot_swap(artifact_path)
        self.engine = self.core.engine
        return info

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Latency percentiles, batching/coalescing counters, cache and
        progressive-refinement metrics (refinements per query, budget
        utilization, partial-cache hit rate) — the core's one truthful
        snapshot."""
        return self.core.stats(queued=self._batcher.qsize())
