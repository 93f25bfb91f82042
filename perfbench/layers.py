"""Per-layer tracing from outside the program.

The traced run wraps the public entry points of each layer (module
functions and class methods) with span recorders, runs the workload, and
restores the originals.  Nothing under ``src/`` knows it is being traced.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory and are written out when the run ends.  A layer's self time
is its span's duration minus the time its wrapped children cover; parents
are tracked per asyncio task (a ``ContextVar``), so concurrent requests in
the open-loop workload do not charge each other's time.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Entry points whose spans count once per set-up rather than once per
#: timed operation: they run while the workload is being built.
SETUP_ENTRIES = (
    "datasets.generate",
    "incomplete.instantiate",
    "train.fit",
    "artifacts.save",
    "artifacts.load",
)


def _len_arg(position: int):
    """Rows = length of the positional argument at ``position``."""
    def rows(args, kwargs, result) -> int:
        return len(args[position]) if len(args) > position else 0
    return rows


def _first_column_rows(args, kwargs, result) -> int:
    columns = args[1]
    for values in columns.values():
        return len(values)
    return 0


def _completed_rows(args, kwargs, result) -> int:
    return int(args[1].num_rows)


def _assembled(recorder: "Recorder", args, kwargs, result) -> None:
    recorder.add("join.rows_out", result.num_rows)
    recorder.add("join.synthesized_rows", sum(result.num_synthesized.values()))


def _walked(recorder: "Recorder", args, kwargs, result) -> None:
    recorder.add("join.chunks_walked", len(args[1]))


def _recompleted(recorder: "Recorder", args, kwargs, result) -> None:
    provenance = getattr(result, "recompletion", None) or {}
    recorder.add("incremental.chunks_walked", provenance.get("chunks_walked", 0))
    recorder.add("incremental.chunks_total", provenance.get("chunks_total", 0))


def _trained(recorder: "Recorder", args, kwargs, result) -> None:
    train_result = getattr(args[0], "train_result", None)
    if train_result is not None:
        recorder.add("train.epochs", train_result.epochs_run)
        recorder.add("train.epoch_s", sum(train_result.epoch_wall_times_s))


def _frame_bytes(recorder: "Recorder", args, kwargs, result) -> None:
    recorder.add("protocol.bytes", len(result))


def _payload_bytes(recorder: "Recorder", args, kwargs, result) -> None:
    recorder.add("protocol.bytes", len(args[0]))


# (metric name, module, attribute path, rows function, after-call hook)
# An attribute path "Class.method" wraps the method on the class and on
# every subclass that overrides it.
ENTRY_POINTS: List[Tuple[str, str, str, Optional[Callable], Optional[Callable]]] = [
    ("query.parse_query", "repro.query.sql", "parse_query", None, None),
    ("query.validate_query_columns", "repro.query.executor",
     "validate_query_columns", None, None),
    ("query.execute_on_join", "repro.query.executor", "execute_on_join",
     None, None),
    ("query.execute", "repro.query.executor", "execute", None, None),
    ("engine.answer", "repro.core.engine", "ReStore.answer", None, None),
    ("engine.select_model", "repro.core.engine", "ReStore.select_model",
     None, None),
    ("engine.completed_join", "repro.core.engine", "ReStore.completed_join",
     None, None),
    ("engine.project_to_tables", "repro.core.engine",
     "ReStore.project_to_tables", _completed_rows, None),
    ("engine.apply_mutations", "repro.core.engine", "ReStore.apply_mutations",
     None, None),
    ("engine.recomplete", "repro.core.engine", "ReStore.recomplete",
     None, _recompleted),
    ("join.run", "repro.core.incompleteness_join", "IncompletenessJoin.run",
     None, None),
    ("join.walk_chunks", "repro.core.incompleteness_join",
     "IncompletenessJoin.walk_chunks", None, _walked),
    ("join.assemble", "repro.core.incompleteness_join",
     "IncompletenessJoin.assemble", None, _assembled),
    ("models.sample_slot", "repro.core.models", "_HopSamplingAPI.sample_slot",
     _len_arg(1), None),
    ("models.predict_tuple_factors", "repro.core.models",
     "_HopSamplingAPI.predict_tuple_factors", _len_arg(1), None),
    ("models.context_for_roots", "repro.core.models",
     "_HopSamplingAPI.context_for_roots", None, None),
    ("rng.draw", "repro.runtime.rng", "draw", None, None),
    ("forest.build_child_index", "repro.core.forest", "build_child_index",
     None, None),
    ("forest.match_keys", "repro.core.forest", "match_keys", None, None),
    ("forest.rebind", "repro.core.forest", "EvidenceForest.rebind", None, None),
    ("nn_replacement.replace", "repro.core.nn_replacement",
     "EuclideanReplacer.replace", _first_column_rows, None),
    ("encoding.encode_columns", "repro.encoding.table_encoder",
     "TableEncoder.encode_columns", None, None),
    ("path_data.decode_slot_codes", "repro.core.path_data",
     "PathLayout.decode_slot_codes", None, None),
    ("relational.gather", "repro.relational.table", "Table.gather",
     _len_arg(2), None),
    ("fleet.submit", "repro.serving.fleet", "FleetRouter.submit", None, None),
    ("protocol.encode_frame", "repro.serving.protocol", "encode_frame",
     None, _frame_bytes),
    ("protocol.decode_payload", "repro.serving.protocol", "decode_payload",
     None, _payload_bytes),
    ("storage.store_writer", "repro.relational.storage", "StoreWriter.append",
     None, None),
    ("storage.store_writer", "repro.relational.storage",
     "StoreWriter.append_rows", None, None),
    ("storage.store_writer", "repro.relational.storage",
     "StoreWriter.finalize", None, None),
    ("datasets.generate", "repro.datasets.housing", "generate_housing",
     None, None),
    ("datasets.generate", "repro.datasets.movies", "generate_movies",
     None, None),
    ("datasets.generate", "repro.datasets.scale", "generate_scale_incomplete",
     None, None),
    ("incomplete.instantiate", "repro.incomplete.scenarios",
     "ScenarioSpec.instantiate", None, None),
    ("train.fit", "repro.core.models", "_CompletionModelBase.fit",
     None, _trained),
    ("artifacts.save", "repro.serving.artifacts", "save_artifact", None, None),
    ("artifacts.load", "repro.serving.artifacts", "load_artifact", None, None),
]

#: Entry points that take rows, and so also report ``<entry>.rows``.
ROW_ENTRIES = tuple(sorted({name for name, _, _, rows, _ in ENTRY_POINTS if rows}))
ENTRY_NAMES = tuple(dict.fromkeys(name for name, *_ in ENTRY_POINTS))

#: Kernel accumulators read from ``repro.obs.profile_kernels()``:
#: (metric, kernel name, field).
KERNEL_METRICS = (
    ("kernel.dense.calls", "dense", "calls"),
    ("kernel.dense.rows", "dense", "rows"),
    ("kernel.dense.ms", "dense", "total_ms"),
    ("kernel.softmax.ms", "softmax", "total_ms"),
    ("kernel.made_sample.ms", "made.sample", "total_ms"),
    ("kernel.tree_encode.ms", "tree.encode", "total_ms"),
)


class Recorder:
    """In-memory spans plus per-phase totals (calls, self time, rows)."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: List[tuple] = []
        self.totals: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0, 0]          # calls, self ns, rows
        )
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.frame: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_frame", default=None
        )
        self.op: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_op", default=None
        )
        self._next_id = 0

    def add(self, counter: str, value: float) -> None:
        self.counts[(self.phase, counter)] += value

    def total(self, phase: str, name: str) -> List[float]:
        return self.totals.get((phase, name), [0, 0, 0])

    def count(self, phase: str, counter: str) -> float:
        return self.counts.get((phase, counter), 0.0)

    def _open(self, name: str):
        parent = self.frame.get()
        if parent is not None and parent[0] == name:
            return None, parent         # re-entrant: one span per layer call
        self._next_id += 1
        frame = [name, 0, 0, self._next_id]
        token = self.frame.set(frame)
        frame[1] = time.perf_counter_ns()
        return token, parent

    def _close(self, token, frame_parent, rows: int) -> None:
        end = time.perf_counter_ns()
        frame = self.frame.get()
        self.frame.reset(token)
        name, start, child_ns, span_id = frame
        duration = end - start
        if frame_parent is not None:
            frame_parent[2] += duration
        entry = self.totals[(self.phase, name)]
        entry[0] += 1
        entry[1] += duration - child_ns
        entry[2] += rows
        self.spans.append((
            span_id, name, start, end,
            frame_parent[3] if frame_parent is not None else None,
            self.op.get(), self.phase,
        ))

    def wrap(self, name: str, fn: Callable, rows: Optional[Callable],
             after: Optional[Callable]) -> Callable:
        recorder = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                token, parent = recorder._open(name)
                if token is None:
                    return await fn(*args, **kwargs)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    recorder._close(token, parent, 0)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token, parent = recorder._open(name)
            if token is None:
                return fn(*args, **kwargs)
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                recorder._close(
                    token, parent,
                    rows(args, kwargs, result) if ok and rows else 0,
                )
                if ok and after is not None:
                    after(recorder, args, kwargs, result)
        return wrapper

    def write_spans(self, path: str) -> None:
        """One JSON array per span: id, name, start_ns, end_ns, parent, op, phase."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def _subclasses(cls) -> List[type]:
    seen = [cls]
    for sub in cls.__subclasses__():
        for found in _subclasses(sub):
            if found not in seen:
                seen.append(found)
    return seen


class Patch:
    """Installs the recorder's wrappers; :meth:`restore` undoes every one."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        recorder = self.recorder
        for name, module_name, attr, rows, after in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                for cls in _subclasses(getattr(module, class_name)):
                    original = cls.__dict__.get(method)
                    if original is not None:
                        self._set(cls, method, original,
                                  recorder.wrap(name, original, rows, after))
            else:
                original = getattr(module, attr)
                wrapped = recorder.wrap(name, original, rows, after)
                # Callers that imported the function by name hold their own
                # reference: replace it in every loaded module of the program.
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._set(loaded, key, original, wrapped)

    def _set(self, owner, key: str, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run a block untraced, e.g. a fork whose child must not inherit
        the wrappers (the child's spans would never be reported)."""
        self.restore()
        try:
            yield
        finally:
            self.install()


def _per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for name in ENTRY_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
        if name in ROW_ENTRIES:
            units[f"{name}.rows"] = "rows"
    for counter in ("join.chunks_walked", "join.rows_out",
                    "join.synthesized_rows"):
        units[counter] = "count" if counter == "join.chunks_walked" else "rows"
    for metric, _kernel, field in KERNEL_METRICS:
        units[metric] = {"calls": "count", "rows": "rows", "total_ms": "ms"}[field]
    units.update({
        "cache.join.hits": "count",
        "cache.join.misses": "count",
        "cache.join.hit_ratio": "ratio",
        "cache.partial.hits": "count",
        "cache.partial.subset_hits": "count",
        "cache.partial.misses": "count",
        "cache.partial.hit_ratio": "ratio",
        "incremental.chunks_walked_frac": "ratio",
        "train.epochs": "count",
        "train.epoch_ms": "ms",
        "protocol.bytes_per_query": "bytes",
        "serve.router_ms.p50": "ms",
        "serve.worker_ms.p50": "ms",
        "serve.worker_ms.p95": "ms",
        "serve.router_overhead_ms.p50": "ms",
        "serve.batch_size.mean": "count",
        "serve.joins_started": "count",
        "serve.shed": "count",
        "loadgen.late_ms.p99": "ms",
        "join.spill_bytes": "bytes",
        "tracing.overhead_frac": "ratio",
    })
    return units


#: Every per-layer metric the traced run reports, with its unit.  Counts
#: and times are per timed operation, except the set-up entries
#: (:data:`SETUP_ENTRIES`, ``train.epochs``), which are per set-up.
PER_LAYER_UNITS: Dict[str, str] = _per_layer_units()


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_metrics(recorder: Recorder, ops: int, kernels: dict,
                      extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values of one traced run.

    ``kernels`` is the kernel profiler's snapshot of the timed phase;
    ``extra`` carries what only the workload can read (cache counters,
    fleet stats, spill bytes, generator lateness, tracing overhead).
    """
    ops = max(1, ops)
    values: Dict[str, float] = {}
    for name in ENTRY_NAMES:
        setup = name in SETUP_ENTRIES
        calls, self_ns, rows = recorder.total("setup" if setup else "timed", name)
        per = 1 if setup else ops
        values[f"{name}.calls"] = calls / per
        values[f"{name}.ms"] = self_ns / 1e6 / per
        if name in ROW_ENTRIES:
            values[f"{name}.rows"] = rows / per
    for counter in ("join.chunks_walked", "join.rows_out",
                    "join.synthesized_rows"):
        values[counter] = recorder.count("timed", counter) / ops
    for metric, kernel, field in KERNEL_METRICS:
        values[metric] = kernels.get(kernel, {}).get(field, 0) / ops
    walked = recorder.count("timed", "incremental.chunks_walked")
    total = recorder.count("timed", "incremental.chunks_total")
    values["incremental.chunks_walked_frac"] = walked / total if total else 0.0
    epochs = recorder.count("setup", "train.epochs")
    values["train.epochs"] = epochs
    values["train.epoch_ms"] = (
        recorder.count("setup", "train.epoch_s") * 1000.0 / epochs if epochs else 0.0
    )
    values["protocol.bytes_per_query"] = recorder.count("timed", "protocol.bytes") / ops
    for key in ("cache.join.hits", "cache.join.misses", "cache.partial.hits",
                "cache.partial.subset_hits", "cache.partial.misses"):
        values[key] = extra.get(key, 0.0) / ops
    values["cache.join.hit_ratio"] = _ratio(
        extra.get("cache.join.hits", 0.0), extra.get("cache.join.misses", 0.0))
    values["cache.partial.hit_ratio"] = _ratio(
        extra.get("cache.partial.hits", 0.0) + extra.get("cache.partial.subset_hits", 0.0),
        extra.get("cache.partial.misses", 0.0))
    values["join.spill_bytes"] = extra.get("join.spill_bytes", 0.0) / ops
    for key in ("serve.router_ms.p50", "serve.worker_ms.p50", "serve.worker_ms.p95",
                "serve.router_overhead_ms.p50", "serve.batch_size.mean",
                "serve.joins_started", "serve.shed", "loadgen.late_ms.p99",
                "tracing.overhead_frac"):
        values[key] = float(extra.get(key, 0.0))
    missing = set(PER_LAYER_UNITS) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return values
