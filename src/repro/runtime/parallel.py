"""Execution backends for sharded completion work.

The incompleteness join streams over chunks of root evidence rows, and every
chunk is a pure function of the seed and the data (counter-based per-row
random streams, fixed-tile float32 forwards — see :mod:`repro.runtime.rng`
and :mod:`repro.runtime.training`).  That purity is exactly what makes the
chunks safe to fan out: this module provides the executor they fan out on.

Three backends share one contract:

* ``serial`` — run tasks inline, in order.  The default; zero overhead.
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.  Worker
  state is shared with the caller (no copies); numpy releases the GIL inside
  BLAS kernels, so the join's matmul-heavy sampling overlaps.
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor`.  Worker
  state is *rebuilt per worker* from a picklable payload (the join ships the
  model's float32 inference snapshot, never the parameter module), so tasks
  and the functions operating on them must be module-level picklables.

The contract of :meth:`Executor.map`:

* it returns an iterator that yields results **in task order**, each as
  soon as it and every earlier task are done — callers merge
  deterministically, and can write one result out while later tasks
  still run;
* a pool keeps at most ``2 * n_workers`` tasks submitted but not yet
  yielded, so the results waiting for the caller are bounded by the
  workers, not by the number of tasks;
* the worker state passed to ``fn`` is ``init(payload)`` when ``init`` is
  given (computed once per worker, so a pool amortizes payload setup across
  its tasks), else ``payload`` itself;
* a task that raises surfaces the **original exception** to the caller
  (process workers pickle it back); remaining queued tasks are cancelled
  rather than left to hang.  The same holds for a raising ``init`` — never
  an opaque ``BrokenProcessPool`` — and a failed ``map`` does not poison
  the executor: the instance is reusable afterwards;
* closing the iterator early cancels the tasks that have not started,
  waits for the running ones and shuts the pool down.
"""

from __future__ import annotations

import multiprocessing
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, List, Optional

PARALLEL_BACKENDS = ("serial", "thread", "process")

TaskFn = Callable[[Any, Any], Any]
InitFn = Callable[[Any], Any]

#: Tasks a pool keeps submitted but not yet yielded, per worker: one
#: running and one queued behind it, so no worker idles while the caller
#: consumes a result.
_WINDOW_PER_WORKER = 2


class Executor:
    """Maps tasks over workers; see the module docstring for the contract."""

    backend = "serial"
    #: Whether worker state is the caller's live objects (serial/thread) or a
    #: per-worker reconstruction from a pickled payload (process).
    shares_caller_state = True

    def __init__(self, n_workers: int = 1):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)

    def map(
        self,
        fn: TaskFn,
        tasks: Iterable[Any],
        payload: Any = None,
        init: Optional[InitFn] = None,
    ) -> Iterator[Any]:
        """``fn(state, task)`` for each task, yielded in task order.

        One worker or one task runs inline on the caller's thread — the
        numbers are identical either way, because ``init`` is the same
        pure construction.  Nothing runs before the first result is asked
        for.
        """
        tasks = list(tasks)
        if self.n_workers == 1 or len(tasks) <= 1:
            return _inline(fn, tasks, payload, init)
        return self._pooled(fn, tasks, payload, init)

    def _pooled(
        self, fn: TaskFn, tasks: List[Any], payload: Any,
        init: Optional[InitFn],
    ) -> Iterator[Any]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_workers={self.n_workers})"


def _make_state(payload: Any, init: Optional[InitFn]) -> Any:
    return payload if init is None else init(payload)


def _inline(fn: TaskFn, tasks: Iterable[Any], payload: Any,
            init: Optional[InitFn]) -> Iterator[Any]:
    state = _make_state(payload, init)
    for task in tasks:
        yield fn(state, task)


def _in_order(submit: Callable[[Any], Any], tasks: List[Any],
              window: int) -> Iterator[Any]:
    """Each submitted task's result, in task order, with at most
    ``window`` tasks submitted but not yet yielded.  However the stream
    ends (exhausted, a task raised, or closed), the tasks that have not
    started are cancelled."""
    pending = deque()
    try:
        for task in tasks:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(submit(task))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


class SerialExecutor(Executor):
    """Run every task inline, in order, on the caller's thread."""

    backend = "serial"

    def map(self, fn, tasks, payload=None, init=None):
        return _inline(fn, tasks, payload, init)


class ThreadExecutor(Executor):
    """Fan tasks out over a thread pool; state is shared, not copied.

    ``fn`` must therefore be thread-safe with respect to the state — the
    incompleteness join guarantees this by accumulating each pass's side
    state in pass-local accumulators; the key structures it shares come
    from the database's locked memo (:mod:`repro.relational.keys`).
    """

    backend = "thread"

    def _pooled(self, fn, tasks, payload, init):
        state = _make_state(payload, init)
        with ThreadPoolExecutor(
            max_workers=min(self.n_workers, len(tasks))
        ) as pool:
            yield from _in_order(
                lambda task: pool.submit(fn, state, task), tasks,
                _WINDOW_PER_WORKER * self.n_workers,
            )


# Worker-side state of the process backend, set once by the pool initializer.
_WORKER_STATE: Any = None


class _InitFailure:
    """Sentinel worker state: the initializer raised.

    A raising :class:`~concurrent.futures.ProcessPoolExecutor` initializer
    kills the worker and surfaces an opaque ``BrokenProcessPool`` — so the
    initializer never raises; it parks the original exception here and the
    worker's first task re-raises it (pickled back to the caller intact).
    """

    def __init__(self, exc: BaseException):
        self.exc = exc


def _initialize_worker(init: Optional[InitFn], payload: Any) -> None:
    global _WORKER_STATE
    try:
        _WORKER_STATE = _make_state(payload, init)
    except BaseException as exc:
        _WORKER_STATE = _InitFailure(exc)


def _run_on_worker_state(fn: TaskFn, task: Any) -> Any:
    if isinstance(_WORKER_STATE, _InitFailure):
        raise _WORKER_STATE.exc
    return fn(_WORKER_STATE, task)


def _default_start_method() -> str:
    # fork shares the parent's pages copy-on-write (fast start, and the
    # payload initargs are still pickled per worker) but is only safe on
    # Linux: macOS frameworks (Accelerate/ObjC) may crash in forked
    # children, which is why CPython's own default there is spawn.
    if sys.platform.startswith("linux"):
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return "fork"
    return "spawn"


class ProcessExecutor(Executor):
    """Fan tasks out over worker processes.

    The payload is pickled once per worker (pool initializer), not once per
    task; ``fn``, ``init`` and the tasks must be picklable module-level
    objects.
    """

    backend = "process"
    shares_caller_state = False

    def __init__(self, n_workers: int = 1, start_method: Optional[str] = None):
        super().__init__(n_workers)
        self.start_method = start_method or _default_start_method()

    def _pooled(self, fn, tasks, payload, init):
        ctx = multiprocessing.get_context(self.start_method)
        with ProcessPoolExecutor(
            max_workers=min(self.n_workers, len(tasks)),
            mp_context=ctx,
            initializer=_initialize_worker,
            initargs=(init, payload),
        ) as pool:
            yield from _in_order(
                lambda task: pool.submit(_run_on_worker_state, fn, task),
                tasks, _WINDOW_PER_WORKER * self.n_workers,
            )


_BACKEND_CLASSES = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def get_executor(backend: str, n_workers: int = 1) -> Executor:
    """Build the executor for a ``(backend, n_workers)`` configuration."""
    if backend not in _BACKEND_CLASSES:
        raise ValueError(
            f"unknown parallel backend {backend!r}; choose from {PARALLEL_BACKENDS}"
        )
    return _BACKEND_CLASSES[backend](n_workers)


def default_chunk_size(num_rows: int, n_workers: int,
                       tasks_per_worker: int = 4) -> Optional[int]:
    """Chunk size giving each worker a few tasks (load balancing headroom).

    ``None`` (single pass) when there is nothing to parallelize.  The choice
    never affects *which* rows a run produces — chunking is content-invariant
    — only how evenly the work spreads.
    """
    if n_workers <= 1 or num_rows <= 1:
        return None
    return max(1, -(-num_rows // (tasks_per_worker * n_workers)))
