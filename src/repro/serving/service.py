"""The asyncio shell over the transport-agnostic serving core.

:class:`CompletionService` is a thin event-loop adapter around
:class:`~repro.serving.core.ServingCore`: the core owns admission policy,
join-signature grouping, single-flight coalescing and every statistic, and
its :class:`~repro.serving.core.Dispatcher` queues, batches and serves on
its own threads, so numpy crunches off the loop.  This shell contributes
only what an event loop must — awaitable admission, and a ``deliver``
callback that settles each caller's future through
``loop.call_soon_threadsafe``.  Joins for *different* signatures run
concurrently (the completion cache is thread-safe), and the observable
behaviour — answers, errors, counters, backpressure, the drain on close —
is exactly the core's, which is also what the process workers of a
:class:`~repro.serving.FleetRouter` expose over the wire.

Queries are validated on submission: a column that does not exist in the
queried tables raises a ``ValueError`` listing the candidate columns —
never a raw ``KeyError`` from deep inside the executor.
"""

from __future__ import annotations

import asyncio
import functools
from typing import List, Optional, Sequence

from ..core.engine import Answer, ReStore
from ..core.progressive import SamplingBudget
from ..core.selection import SuspectedBias
from ..errors import ServiceClosedError
from ..obs import current_context
from .core import (
    FLIGHT_DONE,
    CoreRequest,
    Dispatcher,
    QueryLike,
    ServiceConfig,
    ServiceStats,
    ServingCore,
)

__all__ = ["CompletionService", "ServiceConfig", "ServiceStats"]


def _settle(future: "asyncio.Future", outcome) -> None:
    """Resolve a caller's future on its loop (unless the caller left)."""
    if future.done():
        return
    if isinstance(outcome, BaseException):
        future.set_exception(outcome)
    else:
        future.set_result(outcome)


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
    """

    def __init__(self, engine: ReStore, config: Optional[ServiceConfig] = None):
        self.core = ServingCore(engine, config)
        self.engine = self.core.engine
        self.config = self.core.config
        self._dispatcher: Optional[Dispatcher] = None
        #: admitted this loop iteration, handed over together
        self._pending: List[CoreRequest] = []
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "CompletionService":
        if not self._running:
            self._dispatcher = Dispatcher(self.core)
            self._running = True
        return self

    async def close(self) -> None:
        """Stop admitting, answer every admitted request, stop the threads.

        Requests still waiting for admission fail with
        :class:`~repro.errors.ServiceClosedError`; every admitted one is
        answered.  The drain runs off the loop, which keeps settling
        answers meanwhile; the first error a delivery raised is re-raised.
        """
        if not self._running:
            return
        self._running = False
        self._hand_over()
        await asyncio.to_thread(self._dispatcher.close)

    async def __aenter__(self) -> "CompletionService":
        return await self.start()

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Admission (awaitable adapter over the core's gate)
    # ------------------------------------------------------------------
    async def _slot_granted(self) -> None:
        """Await an admission slot (the core's gate, FIFO)."""
        gate = self.core.gate
        loop = asyncio.get_running_loop()
        granted: "asyncio.Future" = loop.create_future()

        def _grant_on_loop() -> None:
            if granted.cancelled():
                gate.release()  # slot arrived after the caller left
            else:
                granted.set_result(None)

        gate.acquire(lambda: loop.call_soon_threadsafe(_grant_on_loop))
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
        if not self.core.admit(wait):
            await self._slot_granted()
            if not self._running:  # closed while waiting for admission
                self.core.gate.release()
                raise ServiceClosedError("service closed while awaiting admission")
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if not self._pending:
            loop.call_soon(self._hand_over)
        self._pending.append(CoreRequest(
            query=query,
            enqueued_at=self.core.clock(),
            suspected_bias=suspected_bias,
            trace_ctx=current_context(),
            deliver=functools.partial(loop.call_soon_threadsafe, _settle, future),
        ))
        return await future

    def _hand_over(self) -> None:
        """Put what this loop iteration admitted in one call, so requests
        submitted together share a batch whatever the dispatcher's
        threads were doing meanwhile."""
        pending, self._pending = self._pending, []
        self._dispatcher.put(*pending)

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
            # The driver hands engine errors to the subscribers itself;
            # close() waits for it with the rest of the pool.
            self._dispatcher.run(
                self.core.drive_progressive,
                key, flight, query, budget, suspected_bias,
            )
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
    # Hot swap
    # ------------------------------------------------------------------
    async def hot_swap(self, artifact_path) -> dict:
        """Swap to the engine stored at ``artifact_path`` without downtime.

        Loading and validation run on the serving pool (no event-loop
        stall); the core performs the swap only after the replacement
        loaded cleanly, so a corrupt artifact raises here and the old
        engine keeps serving.  Groups already dispatched finish on the
        engine they were routed against; later batches use the new one.
        """
        if self._running:
            info = await asyncio.wrap_future(
                self._dispatcher.run(self.core.hot_swap, artifact_path)
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
        queued = len(self._pending)
        if self._dispatcher is not None:
            queued += self._dispatcher.qsize()
        return self.core.stats(queued=queued)
