"""Asyncio front-end adapters: admission queue + micro-batch collection.

The asyncio shell's transport half: a bounded asyncio queue collected in
*micro-batches*.  A batch is whatever is already queued, up to
``max_batch``, taken as soon as one of the ``n_workers`` serving threads
is free; while all of them are busy, requests arriving meanwhile form the
next batch.  The batching/admission *policy* — sizes, dispatch-when-free,
what overload means — lives in the transport-agnostic core
(:mod:`repro.serving.core`); this module only adapts it to an event loop.

The batcher never loses a request: nothing is awaited between taking the
first request off the queue and returning the batch, so a cancelled
collector leaves every request queued for :meth:`MicroBatcher.drain`, and
shutdown can fail those futures explicitly.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.selection import SuspectedBias
from ..errors import ServiceClosedError, ServiceOverloadedError
from ..query import Query


@dataclass
class ServiceRequest:
    """One submitted query travelling through the asyncio shell.

    Duck-type compatible with :class:`repro.serving.core.CoreRequest`
    (query / suspected_bias / enqueued_at / tenant), plus the caller's
    future for transport-side completion.
    """

    query: Query
    future: "asyncio.Future"
    enqueued_at: float
    suspected_bias: Optional[SuspectedBias] = None
    tenant: str = "default"

    def fail(self, exc: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(exc)

    def succeed(self, result) -> None:
        if not self.future.done():
            self.future.set_result(result)


@dataclass
class MicroBatcher:
    """Bounded admission queue + dispatch-when-free batch collection (asyncio).

    The collector :meth:`claim`\\ s a serving thread for each group it
    dispatches and the group's done callback :meth:`release`\\ s it; both
    run on the event loop, so the busy count needs no lock.
    """

    max_queue: int
    max_batch: int
    n_workers: int = 1
    _queue: Optional["asyncio.Queue"] = field(default=None, repr=False)
    _busy: int = field(default=0, repr=False)
    _slot_freed: Optional["asyncio.Event"] = field(default=None, repr=False)

    def start(self) -> None:
        """Bind the queue to the running event loop (call from the loop)."""
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._slot_freed = asyncio.Event()

    @property
    def started(self) -> bool:
        return self._queue is not None

    def qsize(self) -> int:
        return 0 if self._queue is None else self._queue.qsize()

    async def put(self, request: ServiceRequest, wait: bool = True) -> None:
        """Admit a request; full queue ⇒ block (``wait``) or reject."""
        if self._queue is None:
            raise ServiceClosedError("service is not running")
        if wait:
            await self._queue.put(request)
            return
        try:
            self._queue.put_nowait(request)
        except asyncio.QueueFull:
            raise ServiceOverloadedError(
                f"admission queue is full ({self.max_queue} requests); "
                f"retry later or submit with wait=True"
            ) from None

    async def next_batch(self) -> List[ServiceRequest]:
        """Wait for a free serving thread and at least one request, then
        take what is queued (up to ``max_batch``)."""
        assert self._queue is not None
        while self._busy >= self.n_workers:
            self._slot_freed.clear()
            await self._slot_freed.wait()
        batch = [await self._queue.get()]
        while len(batch) < self.max_batch and not self._queue.empty():
            batch.append(self._queue.get_nowait())
        return batch

    def claim(self) -> None:
        """Count one dispatched group as busy until its :meth:`release`."""
        self._busy += 1

    def release(self) -> None:
        """A dispatched group finished; its thread is free again."""
        self._busy -= 1
        self._slot_freed.set()

    def drain(self) -> List[ServiceRequest]:
        """Still-queued requests, for explicit failure on close."""
        pending: List[ServiceRequest] = []
        if self._queue is not None:
            while True:
                try:
                    pending.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
        return pending
