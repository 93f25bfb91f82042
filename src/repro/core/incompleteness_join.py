"""The incompleteness join (paper Algorithm 1, §4.2/§4.3).

Walks a completion path from the root evidence table to the incomplete
target, producing the join as it would look on a complete database:

* **1:n hops** — per evidence tuple, determine the total tuple factor
  (annotated truth where available, model prediction otherwise), join the
  *existing* children, and synthesize the missing ``TF - existing`` children
  with the AR/SSAR model.
* **n:1 hops** — join the existing partner where the foreign key resolves;
  synthesize a partner for rows without one.  Rows whose own tuples were
  synthesized (no real keys) receive the over-generation weight correction
  of §4.3: a missing parent re-appears once per synthesized child, so each
  occurrence is down-weighted by the expected children-per-parent.
* **Euclidean replacement** — synthesized tuples of *complete* tables are
  replaced by their nearest existing tuples (restoring real keys), per §4.2.

Execution is handled by the inference runtime (:mod:`repro.runtime`):

* Model forwards run on the float32 network runtime
  (:mod:`repro.runtime.training` over frozen weights).
* Work is split into chunks of root evidence rows.  Every walk row
  carries a counter-based random stream derived from its lineage (root row
  plus child ordinals), which makes each output row a pure function of the
  seed and the data — chunked and unchunked runs produce the same rows
  bitwise (row *order* differs: each chunk emits its rows together).
  Shared parents synthesized for dangling foreign keys derive their stream
  from the *key value*, so chunks that split a key's children still
  materialize the same parent tuple.
* A *walk pass* walks several chunks together — one pass per worker, or
  one chunk per pass when ``chunk_size`` bounds the walk (peak transient
  memory) — and is split back into chunks by each row's root row.  Each
  chunk output, side state and row order included, is bitwise the walk
  of that chunk alone, so chunks cache and reuse however they were walked.
* Passes fan out over an executor (``n_workers`` / ``parallel_backend`` —
  see :mod:`repro.runtime.parallel`).  Thread workers share this join
  object (walks accumulate into pass-local accumulators; key structures
  come from the database's memo in :mod:`repro.relational.keys`);
  process workers receive a picklable
  :class:`~repro.core.models.CompletionSnapshot` — the float32 networks
  the model samples with, never the parameter module — and rebuild a
  worker-local join from it.  Dangling-FK parents are parked per chunk and
  merged deterministically after the fan-out barrier, so output rows are
  bitwise identical (up to order) across backends and worker counts.

String columns walk as dictionary columns
(:class:`~repro.relational.DictColumn`): a table's rows are read as codes
into its store's vocabulary, which the join extends once by the codec
values the table lacks, so sampled strings take codes in the same
vocabulary and every part of a column concatenates by codes.  Chunks
cached by an earlier join (or database) unite their vocabularies by value.
Strings are decoded only when an in-RAM join is assembled; a spilled join
hands the codes to its result store.

With a ``spill_dir``, each chunk's walked rows go to one file of raw
records aligned to 64 bytes: the fixed state fields, the context, then
every column (a dictionary column as its codes plus its vocabulary, the
ASCII bytes of a JSON list).  The files hold no headers and no pickles;
the handle the walk returns (:class:`_SpilledChunkOutput`) carries each
record's offset, dtype and shape, and loading reads the file once.

The result is a :class:`~repro.query.JoinResult` with fractional row
weights, directly consumable by the shared filter/aggregate operators.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import StorageError
from ..obs import activate, current_context, trace, tracing_enabled
from ..query import JoinResult
from ..query.pushdown import PushdownPlan, conjunction_mask
from ..relational import MISSING_KEY, CompletionPath
from ..relational.column import ColumnKind
from ..relational.dictionary import (
    DictColumn,
    code_dtype,
    concat_columns,
    decoded,
    object_array,
)
from ..relational.keys import child_index, gather_children, lookup
from ..relational.storage import StoreColumns, StoreWriter, _RawColumnWriter
from ..relational.tuple_factors import TF_UNKNOWN
from ..runtime import rng as rt_rng
from ..runtime.parallel import default_chunk_size, get_executor
from ..runtime.rng import chunk_slices
from .models import _CompletionModelBase
from .nn_replacement import EuclideanReplacer

_SYNTH_ID_MASK = np.uint64((1 << 62) - 1)
_NO_ROWS = np.zeros(0, dtype=np.int64)


@dataclass
class CompletedJoin:
    """Output of an incompleteness join plus synthesis bookkeeping.

    ``codes`` holds the final model-space code matrix of every output row
    (evidence + synthesized values) and ``context`` the SSAR tree contexts —
    the confidence estimator (§6) re-derives per-tuple conditional
    distributions from them.
    """

    result: JoinResult
    path: CompletionPath
    num_synthesized: Dict[str, int] = field(default_factory=dict)
    synthesized_mask: Dict[str, np.ndarray] = field(default_factory=dict)
    codes: Optional[np.ndarray] = None
    context: Optional[np.ndarray] = None
    #: pushdown provenance of an engine run with a pushed plan (roots
    #: scanned vs qualifying, chunks walked/cached/skipped vs total,
    #: pushed-filter counts by kind); None otherwise.
    pushdown: Optional[Dict[str, object]] = None
    #: chunk provenance of an engine run (``chunks_total`` /
    #: ``chunks_walked`` / ``chunks_cached``); None for a bare ``run()``.
    recompletion: Optional[Dict[str, int]] = None

    @property
    def num_rows(self) -> int:
        return self.result.num_rows

    def target_synthesized(self) -> np.ndarray:
        """Per-row flag: the target-table tuple of this row is synthetic."""
        return self.synthesized_mask[self.path.target]


@dataclass
class _WalkState:
    """Rows of the partially completed join after some number of hops.

    ``streams``/``counters`` are the rows' counter-based random streams
    (see :mod:`repro.runtime.rng`): the stream identifies the row's lineage,
    the counter how many uniforms it has consumed.  ``roots`` (the root row
    of each row) splits a multi-chunk pass back into chunks.  Columns of
    ``str`` values are :class:`~repro.relational.DictColumn`, not object
    arrays.
    """

    codes: np.ndarray                 # (R, V) model-space codes, prefix filled
    columns: Dict[str, object]        # qualified raw columns of visited tables
    weights: np.ndarray               # (R,) fractional multiplicities
    synthesized: np.ndarray           # (R,) latest-table tuple is synthetic
    current_rows: np.ndarray          # (R,) row in the db table, -1 if synthetic
    context: Optional[np.ndarray]     # (R, C) SSAR context or None
    streams: np.ndarray               # (R,) uint64 per-row random stream ids
    counters: np.ndarray              # (R,) uint64 per-row draw counters
    roots: np.ndarray                 # (R,) int64 root row of each row

    @property
    def num_rows(self) -> int:
        return len(self.weights)

    def take(self, idx: np.ndarray) -> "_WalkState":
        return _WalkState(
            codes=self.codes[idx],
            columns={k: v[idx] for k, v in self.columns.items()},
            weights=self.weights[idx],
            synthesized=self.synthesized[idx],
            current_rows=self.current_rows[idx],
            context=None if self.context is None else self.context[idx],
            streams=self.streams[idx],
            counters=self.counters[idx],
            roots=self.roots[idx],
        )


def _materialize_parked(parked: List[_WalkState]) -> _WalkState:
    """Concatenate parked states into a freshly owned state.

    ``_resolve_dangling`` mutates its input in place; ``_concat_many``
    returns the input itself for a single non-empty state, which would
    corrupt chunk outputs held by the partial-completion cache.  Copy in
    that aliasing case so assembly never writes into cached outputs.
    """
    merged = _concat_many(parked)
    if any(merged is state for state in parked):
        merged = merged.take(np.arange(merged.num_rows, dtype=np.int64))
    return merged


def _concat_many(states: List[_WalkState]) -> _WalkState:
    """Concatenate walk states with one copy per field, not one per state."""
    non_empty = [s for s in states if s.num_rows > 0]
    if not non_empty:
        return states[0]
    if len(non_empty) == 1:
        return non_empty[0]
    first = non_empty[0]
    return _WalkState(
        codes=np.concatenate([s.codes for s in non_empty]),
        columns={
            k: concat_columns([s.columns[k] for s in non_empty])
            for k in first.columns
        },
        weights=np.concatenate([s.weights for s in non_empty]),
        synthesized=np.concatenate([s.synthesized for s in non_empty]),
        current_rows=np.concatenate([s.current_rows for s in non_empty]),
        context=(
            None if first.context is None
            else np.concatenate([s.context for s in non_empty])
        ),
        streams=np.concatenate([s.streams for s in non_empty]),
        counters=np.concatenate([s.counters for s in non_empty]),
        roots=np.concatenate([s.roots for s in non_empty]),
    )


@dataclass
class _ShardAccumulator:
    """Synthesis side-state produced while walking one shard of rows.

    Walks write here instead of mutating the join object, which is what
    makes a chunk walk a pure function — safe to run on any worker — and
    gives the post-barrier merge one explicit, deterministic code path.
    """

    parked: Dict[int, List[_WalkState]] = field(default_factory=dict)
    num_synth: Dict[str, int] = field(default_factory=dict)
    issued_ids: Dict[str, List[np.ndarray]] = field(default_factory=dict)

    def park(self, slot: int, state: _WalkState) -> None:
        self.parked.setdefault(slot, []).append(state)

    def record_synth(
        self, table_name: str, part: _WalkState, ids: Optional[np.ndarray]
    ) -> None:
        """Count ``part``'s rows as synthesized tuples; keep issued ids."""
        self.record(table_name, part.num_rows, ids)

    def record(
        self, table_name: str, count: int, ids: Optional[np.ndarray]
    ) -> None:
        self.num_synth[table_name] = self.num_synth.get(table_name, 0) + count
        if ids is not None:
            self.issued_ids.setdefault(table_name, []).append(ids)

    def merge(self, other: "_ShardAccumulator") -> None:
        """Fold another shard's side-state into this one (order-preserving)."""
        for slot, states in other.parked.items():
            self.parked.setdefault(slot, []).extend(states)
        for table_name, count in other.num_synth.items():
            self.num_synth[table_name] = self.num_synth.get(table_name, 0) + count
        for table_name, ids in other.issued_ids.items():
            self.issued_ids.setdefault(table_name, []).extend(ids)

    def split(self, walked: _WalkState) -> List["_ChunkOutput"]:
        return [_ChunkOutput(walked=walked, acc=self)]


class _PassAccumulator:
    """Side state of a walk pass over several chunks, kept per chunk.

    Parked rows and synthesized tuples go to their root row's chunk, in
    walk order, and only non-empty pieces are kept — so each chunk's
    accumulator is exactly what walking that chunk alone produces.
    """

    def __init__(self, tasks: Sequence[Tuple[int, int]]):
        bounds = np.array(tasks, dtype=np.int64)
        if np.any(bounds[1:, 0] < bounds[:-1, 1]):
            raise ValueError(
                f"chunks of one walk pass must be ascending and disjoint: {tasks}"
            )
        self._starts = bounds[:, 0]
        # argsort(kind="stable") radix-sorts chunk indices of 8 or 16 bits.
        self._chunk_type = np.min_scalar_type(len(tasks))
        self.chunks = [_ShardAccumulator() for _ in tasks]

    def _by_chunk(self, roots: np.ndarray):
        """A stable row order grouping ``roots`` by chunk, and each chunk's
        ``(accumulator, start, stop)`` range in that order."""
        chunk = np.searchsorted(self._starts, roots, "right") - 1
        chunk = chunk.astype(self._chunk_type)
        stops = np.cumsum(np.bincount(chunk, minlength=len(self.chunks)))
        stops = stops.tolist()
        return (
            np.argsort(chunk, kind="stable"),
            zip(self.chunks, [0] + stops[:-1], stops),
        )

    def park(self, slot: int, state: _WalkState) -> None:
        order, ranges = self._by_chunk(state.roots)
        grouped = state.take(order)
        for acc, start, stop in ranges:
            if stop > start:
                acc.park(slot, grouped.take(slice(start, stop)))

    def record_synth(
        self, table_name: str, part: _WalkState, ids: Optional[np.ndarray]
    ) -> None:
        order, ranges = self._by_chunk(part.roots)
        if ids is not None:
            ids = ids[order]
        for acc, start, stop in ranges:
            if stop > start:
                acc.record(
                    table_name, stop - start,
                    None if ids is None else ids[start:stop],
                )

    def split(self, walked: _WalkState) -> List["_ChunkOutput"]:
        """The pass's final rows as per-chunk outputs, in task order: one
        copy regroups the rows by chunk, and each chunk is a range of it."""
        order, ranges = self._by_chunk(walked.roots)
        grouped = walked.take(order)
        return [
            _ChunkOutput(walked=grouped, acc=acc, rows=slice(start, stop))
            for acc, start, stop in ranges
        ]


@dataclass
class _ChunkOutput:
    """One chunk's completed walk rows plus its synthesis side-state.

    The chunks of one walk pass share its final state, grouped by chunk;
    ``rows`` is this chunk's range of it (None: all of it).
    """

    walked: _WalkState
    acc: _ShardAccumulator
    rows: Optional[slice] = None

    @property
    def state(self) -> _WalkState:
        return self.walked if self.rows is None else self.walked.take(self.rows)

    @property
    def num_rows(self) -> int:
        if self.rows is None:
            return self.walked.num_rows
        return self.rows.stop - self.rows.start


#: The walk-state fields a spilled result stores as ``join_<field>.npy``.
_RESULT_FIELDS = ("codes", "weights", "synthesized", "context")

#: The fixed fields of a spilled walk state, in record order.
_SPILL_FIELDS = (
    "codes", "weights", "synthesized", "current_rows", "streams", "counters",
    "roots",
)

#: Spill records start at multiples of this many bytes, so every array
#: read back is aligned.
_SPILL_ALIGN = 64

#: One raw record of a spill file: byte offset, dtype string and shape.
_Record = Tuple[int, str, Tuple[int, ...]]


@dataclass(frozen=True)
class _SpillIndex:
    """Where each array of a spilled walk state lies in its file.

    ``fields`` holds the fixed fields, plus ``context`` when the state has
    one; ``columns`` each column's name, its values record (a dictionary
    column's codes) and its vocabulary record, or None for a plain column.
    """

    fields: Dict[str, _Record]
    columns: Tuple[Tuple[str, _Record, Optional[_Record]], ...]


def _spill_state(state: _WalkState, path: str) -> _SpillIndex:
    """Write a walk state to one file of raw, aligned records.

    The records hold the arrays' bytes and nothing else: the returned
    index knows each one's offset, dtype and shape, so :func:`_load_state`
    parses no header and unpickles nothing.  A dictionary column is two
    records: its codes, and its vocabulary as the ASCII bytes of a JSON
    list (non-ASCII escaped), which round-trips any ``str`` exactly.
    Spill files live for one run and only :func:`_load_state` reads them,
    so they need no archive index or checksum.  A column of objects cannot
    be spilled (:class:`~repro.errors.StorageError`).
    """
    with open(path, "wb") as fh:
        def record(array: np.ndarray) -> _Record:
            array = np.ascontiguousarray(array)
            fh.write(bytes(-fh.tell() % _SPILL_ALIGN))
            offset = fh.tell()
            fh.write(array)
            return offset, array.dtype.str, array.shape

        fields = {name: record(getattr(state, name)) for name in _SPILL_FIELDS}
        if state.context is not None:
            fields["context"] = record(state.context)
        columns = []
        for name, values in state.columns.items():
            if isinstance(values, DictColumn):
                columns.append(
                    (name, record(values.codes), record(_vocab_bytes(values.vocab)))
                )
            elif values.dtype == object:
                raise StorageError(
                    f"column {name!r} holds objects; a spill stores strings "
                    "as dictionary columns"
                )
            else:
                columns.append((name, record(values), None))
    return _SpillIndex(fields, tuple(columns))


def _vocab_bytes(vocab: np.ndarray) -> np.ndarray:
    values = vocab.tolist()
    for value in values:
        if not isinstance(value, str):
            raise StorageError(
                "a spilled vocabulary must hold strings; got "
                f"{type(value).__name__} ({value!r})"
            )
    return np.frombuffer(json.dumps(values).encode("ascii"), dtype=np.uint8)


def _load_state(path: str, index: _SpillIndex) -> _WalkState:
    """Read back a :func:`_spill_state` file: one read, then views."""
    data = np.fromfile(path, dtype=np.uint8)

    def array(record: _Record) -> np.ndarray:
        offset, dtype, shape = record
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        return data[offset:offset + nbytes].view(dtype).reshape(shape)

    columns = {}
    for name, values, vocab in index.columns:
        if vocab is None:
            columns[name] = array(values)
        else:
            words = json.loads(array(vocab).tobytes())
            columns[name] = DictColumn(array(values), object_array(words))
    context = index.fields.get("context")
    return _WalkState(
        columns=columns,
        context=None if context is None else array(context),
        **{name: array(index.fields[name]) for name in _SPILL_FIELDS},
    )


@dataclass
class _SpilledChunkOutput:
    """A chunk output whose walked rows live on disk, not in RAM.

    Produced when the join runs with a ``spill_dir``: the worker (thread
    or process) writes the state to ``path`` and ships back only this
    handle (with the file's record index) plus the small synthesis
    side-state, so fan-out result transfer and caller-side residency are
    O(1) in the chunk's row count.  ``cacheable`` is False — the backing
    file is scoped to one run, so the partial-completion cache must not
    retain the handle.
    """

    path: str
    index: _SpillIndex
    acc: _ShardAccumulator
    num_rows: int

    cacheable = False

    def load(self) -> _ChunkOutput:
        return _ChunkOutput(
            walked=_load_state(self.path, self.index), acc=self.acc
        )


AnyChunkOutput = Union[_ChunkOutput, _SpilledChunkOutput]


def _chunk_states(outputs: List[AnyChunkOutput]) -> List[_WalkState]:
    """The outputs' rows as walk states to concatenate, in output order; a
    walk pass assembled whole is its own state, uncopied."""
    outputs = [
        o.load() if isinstance(o, _SpilledChunkOutput) else o for o in outputs
    ]
    if outputs and all(o.walked is outputs[0].walked for o in outputs) \
            and sum(o.num_rows for o in outputs) == outputs[0].walked.num_rows:
        return [outputs[0].walked]  # chunks are disjoint: this is all of it
    return [o.state for o in outputs]


def restrict_chunk_output(
    output: _ChunkOutput, filters: Sequence
) -> _ChunkOutput:
    """A chunk output with rows failing the given pushed filters removed.

    Turns a chunk walked under a looser plan into the stricter plan's exact
    chunk: pruning mid-walk versus filtering the finished rows select the
    same rows (pure row selection on purely derived rows), and the parked
    side state is plan-independent, so it is shared unchanged.
    """
    state = output.state
    if not filters or state.num_rows == 0:
        return output
    mask = conjunction_mask(
        state.columns, list(filters), state.num_rows
    )
    if mask.all():
        return output
    return _ChunkOutput(
        walked=state.take(np.flatnonzero(mask)), acc=output.acc
    )


@dataclass(frozen=True)
class _JoinVocab:
    """One string column's vocabulary for the span of a join.

    ``vocab`` is the table's vocabulary (``table_vocab``, its store's) with
    the codec values it lacks appended, so real codes index it unchanged
    and real and synthesized parts concatenate by codes.  ``from_codec``
    maps a codec value's position to its position in ``vocab`` (None when
    the codec's values have another dtype).
    """

    table_vocab: np.ndarray
    vocab: np.ndarray
    from_codec: Optional[np.ndarray]


@dataclass
class _JoinWorkerSpec:
    """Everything a process worker needs to rebuild this join — picklable.

    ``model`` is a :class:`~repro.core.models.CompletionSnapshot`: the
    float32 networks plus the path layout, instead of the parameter module
    and its training state.
    """

    model: object
    approximate_replacement: bool
    replace_synthesized: bool
    seed: int
    tables: Tuple[str, ...]
    plan: Optional[PushdownPlan] = None
    spill_dir: Optional[str] = None


def _build_worker_join(spec: _JoinWorkerSpec):
    """Process-pool initializer hook: a worker-local join from the spec.

    Built once per worker, so per-table caches (child indexes, key orders,
    replacers) amortize across all chunks the worker executes.
    """
    join = IncompletenessJoin(
        spec.model,
        approximate_replacement=spec.approximate_replacement,
        replace_synthesized=spec.replace_synthesized,
        seed=spec.seed,
    )
    return join, list(spec.tables), spec.plan, None, spec.spill_dir


def _walk_pass_task(
    state, tasks: List[Tuple[int, int]]
) -> List[AnyChunkOutput]:
    """Executor task: walk a pass of root-row chunks (any backend).

    The fourth payload element is the dispatching caller's trace context:
    contextvars do not flow into pool threads, so the context rides along
    explicitly and each pass becomes a child span of the dispatch
    (process workers get ``None`` — their tracer is off by default).
    With a spill directory, each chunk's walked rows are written to disk
    *on the worker* and only a small handle travels back.
    """
    join, tables, plan, ctx, spill_dir = state
    if not tracing_enabled():
        outputs = join._walk_pass(tasks, tables, plan)
        return _maybe_spill_outputs(outputs, spill_dir, tasks)
    with activate(ctx):
        with trace(
            "join.chunk",
            chunk=f"{tasks[0][0]}:{tasks[-1][1]}",
            chunks=len(tasks),
            rows_scanned=sum(stop - start for start, stop in tasks),
        ) as span:
            outputs = join._walk_pass(tasks, tables, plan)
            span.set("rows_out", sum(o.num_rows for o in outputs))
            return _maybe_spill_outputs(outputs, spill_dir, tasks)


def _maybe_spill_outputs(
    outputs: List[_ChunkOutput],
    spill_dir: Optional[str],
    tasks: List[Tuple[int, int]],
) -> List[AnyChunkOutput]:
    if spill_dir is None:
        return outputs
    os.makedirs(spill_dir, exist_ok=True)
    spilled: List[AnyChunkOutput] = []
    for output, (start, stop) in zip(outputs, tasks):
        path = os.path.join(spill_dir, f"chunk_{start}_{stop}.spill")
        spilled.append(_SpilledChunkOutput(
            path=path, index=_spill_state(output.state, path),
            acc=output.acc, num_rows=output.num_rows,
        ))
    return spilled


class IncompletenessJoin:
    """Executes Algorithm 1 for one completion model.

    Parameters
    ----------
    model:
        A fitted AR or SSAR completion model; its layout supplies the
        database, annotation, path and codecs.
    approximate_replacement:
        Use the random-projection approximate nearest-neighbour mode.
    replace_synthesized:
        Disable to keep synthesized tuples even for complete tables
        (used by ablation benchmarks; the paper always replaces).
    seed:
        Folds into every per-row random stream; two runs with the same seed
        produce identical output.
    chunk_size:
        Bound one walk pass to this many root evidence rows: ``run()``
        chunks the root table this finely and every pass walks one chunk
        (``None`` = single pass: all chunks a worker is given are walked
        together).  The output is the same set of rows (bitwise, weights
        included) for any chunk size; row order, peak memory and batching
        granularity are what change.
    n_workers / parallel_backend:
        Fan walk passes out over an executor (``"serial"``, ``"thread"``
        or ``"process"``; see :mod:`repro.runtime.parallel`).  Output rows
        are identical (up to order) for every backend and worker count at a
        fixed seed.  With ``n_workers > 1`` and no explicit ``chunk_size``,
        ``run()`` chunks the root table so each worker gets a pass.
        The process backend ships the model's inference snapshot, whose
        networks are the ones the model itself samples with.
    spill_dir:
        Stream completed chunks through this directory instead of holding
        them in RAM: each worker writes its walked rows to disk and ships
        back an O(1) handle, and :meth:`assemble` concatenates the spilled
        chunks into a store-backed result without ever materializing the
        full join.  Combined with a memory-mapped database this bounds the
        join's peak RSS far below the output size.  The directory is
        scoped to one run — spilled chunk outputs are excluded from the
        partial-completion cache.
    """

    def __init__(
        self,
        model: _CompletionModelBase,
        approximate_replacement: bool = True,
        replace_synthesized: bool = True,
        seed: int = 0,
        chunk_size: Optional[int] = None,
        n_workers: int = 1,
        parallel_backend: str = "serial",
        spill_dir: Optional[str] = None,
    ):
        self.model = model
        self.layout = model.layout
        self.db = model.layout.db
        self.annotation = model.layout.annotation
        self.path = model.layout.path
        self.approximate_replacement = approximate_replacement
        self.replace_synthesized = replace_synthesized
        self.seed = int(seed)
        self.chunk_size = chunk_size
        self.n_workers = int(n_workers)
        self.parallel_backend = parallel_backend
        self.spill_dir = spill_dir
        self._executor = get_executor(parallel_backend, self.n_workers)
        self._seed64 = rt_rng.fold_seed(self.seed)
        # Built on first use.  Concurrent thread walks may each build a
        # replacer (or the model's float32 networks) once; the copies are
        # equal, so whichever is kept samples the same rows.
        self._replacers: Dict[str, EuclideanReplacer] = {}
        # String columns' vocabularies for this join, by (table, column);
        # None for a column its table does not dictionary encode.
        self._vocabs: Dict[Tuple[str, str], Optional[_JoinVocab]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, stop_table: Optional[str] = None) -> CompletedJoin:
        """Complete the join along the path: walk :meth:`chunk_tasks`, assemble.

        Passes are dispatched to the configured executor; chunk outputs are
        merged in chunk order, so any backend/worker count yields the same
        rows (up to order).  ``stop_table`` truncates the walk after that
        table is reached — a merged model trained on a longer path serves
        any prefix sub-path this way (§3.4).
        """
        tables = self.effective_tables(stop_table)
        return self.assemble(self.walk_chunks(self.chunk_tasks(tables), tables), tables)

    def effective_tables(self, stop_table: Optional[str] = None) -> List[str]:
        """The path's tables, truncated after ``stop_table`` if given."""
        tables = list(self.path.tables)
        if stop_table is not None:
            if stop_table not in tables:
                raise ValueError(f"{stop_table} is not on {self.path}")
            tables = tables[: tables.index(stop_table) + 1]
            if len(tables) < 2:
                raise ValueError("stop_table must leave at least one hop")
        return tables

    def chunk_tasks(
        self, tables: Optional[Sequence[str]] = None
    ) -> List[Tuple[int, int]]:
        """The ``(start, stop)`` root-row chunks :meth:`run` walks."""
        tables = list(tables) if tables is not None else list(self.path.tables)
        num_roots = len(self.db.table(tables[0]))
        chunk_size = self.chunk_size
        if chunk_size is None and self.n_workers > 1:
            chunk_size = default_chunk_size(num_roots, self.n_workers)
        return [(s.start, s.stop) for s in chunk_slices(num_roots, chunk_size)]

    #: Root rows per block when streaming the root table's filter columns
    #: for the qualifying-root mask.
    _ROOT_BLOCK = 1 << 18

    def qualifying_root_mask(
        self, plan: Optional[PushdownPlan]
    ) -> Optional[np.ndarray]:
        """Boolean mask of root rows passing the plan's pre-walk filters
        (None when there are none: every root qualifies).

        The root table is streamed in blocks — only the filters' own
        columns are read, one block at a time, so on a mapped store the
        mask costs O(block) transient memory regardless of table size.
        """
        if plan is None or not plan.has_root_filters:
            return None
        root = self.path.tables[0]
        table = self.db.table(root)
        num_roots = len(table)
        filters = plan.filters_at(0)
        mask = np.ones(num_roots, dtype=bool)
        prefix = f"{root}."
        for start in range(0, num_roots, self._ROOT_BLOCK):
            stop = min(start + self._ROOT_BLOCK, num_roots)
            cols = {
                p.column: table.column_range(
                    p.column[len(prefix):], start, stop
                )
                for p in filters
            }
            mask[start:stop] = conjunction_mask(cols, filters, stop - start)
        return mask

    def walk_chunks(
        self,
        tasks: List[Tuple[int, int]],
        tables: Optional[Sequence[str]] = None,
        plan: Optional[PushdownPlan] = None,
    ) -> List[AnyChunkOutput]:
        """Walk ascending, disjoint root-row chunks (no assembly) in passes.

        Returns one output per chunk, in task order.  With ``chunk_size``
        set every pass walks one chunk; otherwise the chunks are dealt into
        one contiguous pass per worker.  Either way each output is a pure
        function of (seed, chunk bounds, plan), bitwise the walk of that
        chunk alone — so the engine caches outputs by chunk bounds.
        """
        tables = list(tables) if tables is not None else list(self.path.tables)
        self._validate_plan(plan, tables)
        with trace(
            "join.walk_chunks",
            chunks=len(tasks),
            tables="/".join(tables),
            backend=self.parallel_backend,
        ):
            return self._run_chunks(tasks, tables, plan)

    def assemble(
        self,
        outputs: List[AnyChunkOutput],
        tables: Optional[Sequence[str]] = None,
        plan: Optional[PushdownPlan] = None,
    ) -> CompletedJoin:
        """Merge chunk outputs into a completed join.

        Resolves dangling-FK parents globally across the given outputs and
        runs the continuation walks.  Parked states are copied before
        resolution, so outputs stay reusable — assembling a chunk subset for
        an early estimate and later re-assembling a superset both see
        pristine chunk outputs.

        When the run spilled its chunks (``spill_dir``), the merged result
        is assembled **streaming**: chunk states are loaded from disk one
        at a time and appended to a store-backed result, so the full join
        never resides in RAM — the returned columns, codes and context are
        read-only memory maps.
        """
        tables = list(tables) if tables is not None else list(self.path.tables)
        self._validate_plan(plan, tables)
        acc = _ShardAccumulator()
        for output in outputs:  # executor order == task order: deterministic
            acc.merge(output.acc)
        extras = self._resolve_parked(acc, tables, plan)
        spilled = any(isinstance(o, _SpilledChunkOutput) for o in outputs)
        total_rows = (
            sum(o.num_rows for o in outputs) + sum(s.num_rows for s in extras)
        )
        if spilled and self.spill_dir is not None and total_rows > 0:
            columns, weights, synthesized, codes, context = (
                self._assemble_spilled(outputs, extras, total_rows)
            )
        else:
            chunks = _chunk_states(outputs) + extras
            if not chunks:
                # All chunks were skipped by pre-walk pruning: produce a
                # correctly shaped empty result by walking zero rows.
                chunks = [self._walk_pass([(0, 0)], tables, plan)[0].state]
            # One concatenation at the end — pairwise accumulation would
            # copy the growing result once per chunk (quadratic in rows).
            completed = _concat_many(chunks)
            # Strings leave their dictionary form here, once per column.
            columns = {
                name: decoded(values)
                for name, values in completed.columns.items()
            }
            weights = completed.weights
            synthesized = completed.synthesized
            codes = completed.codes
            context = completed.context
        self._check_synth_ids(acc.issued_ids)

        # The final state's synthesized flags refer to the last completed
        # table — exactly what confidence estimation (§6) needs.
        return CompletedJoin(
            result=JoinResult(columns, weights=weights),
            path=CompletionPath(tuple(tables)),
            num_synthesized=dict(acc.num_synth),
            synthesized_mask={tables[-1]: synthesized},
            codes=codes,
            context=context,
        )

    def _resolve_parked(
        self,
        acc: _ShardAccumulator,
        tables: List[str],
        plan: Optional[PushdownPlan],
    ) -> List[_WalkState]:
        """Resolve parked dangling-FK rows and walk their continuations.

        Rows that hit a dangling foreign key were parked rather than
        completed: the shared parent of key k is sampled conditioned on a
        canonical representative child, which is only known once every
        chunk (on every worker) has contributed its children.  Resolving
        after the barrier keeps all backends on the identical code path.
        """
        extras: List[_WalkState] = []
        for slot in range(1, len(tables)):
            parked = acc.parked.pop(slot, None)
            if not parked:
                continue
            resolved = self._resolve_dangling(
                _materialize_parked(parked), slot, acc
            )
            if plan is not None and resolved.num_rows:
                mask = plan.mask_at(slot, resolved.columns, resolved.num_rows)
                if mask is not None and not mask.all():
                    resolved = resolved.take(np.flatnonzero(mask))
            extras.append(
                self._walk(resolved, slot + 1, len(tables), acc, plan)
            )
        return extras

    def _assemble_spilled(
        self,
        outputs: List[AnyChunkOutput],
        extras: List[_WalkState],
        total_rows: int,
    ):
        """Concatenate chunk states into a store-backed result, streaming.

        One spilled chunk is resident at a time: its raw columns append to
        a :class:`StoreWriter` (dictionary columns as codes, remapped into
        the store's dictionary) and its codes / weights / synthesized flags
        / context stream into pre-sized ``.npy`` files.  Everything reopens
        as read-only memory maps, so the assembled join's RSS cost is one
        chunk, not the result.
        """
        assert self.spill_dir is not None
        result_dir = os.path.join(self.spill_dir, "result")
        os.makedirs(result_dir, exist_ok=True)

        def states():
            for output in outputs:
                if isinstance(output, _SpilledChunkOutput):
                    yield output.load().state
                else:
                    yield output.state
            for extra in extras:
                yield extra

        writer: Optional[StoreWriter] = None
        col_names: List[str] = []
        arrays: Dict[str, _RawColumnWriter] = {}
        with contextlib.ExitStack() as on_error:
            for state in states():
                if state.num_rows == 0:
                    continue
                if writer is None:
                    # Result schema comes from the first non-empty chunk; all
                    # chunks walk the same path, so they agree.
                    col_names = list(state.columns.keys())
                    writer = StoreWriter(
                        result_dir, "completed_join", total_rows,
                        primary_key=None,
                    )
                    on_error.callback(writer.abort)
                    for name in col_names:
                        values = state.columns[name]
                        if isinstance(values, DictColumn) or values.dtype == object:
                            writer.add_column(name, ColumnKind.CATEGORICAL)
                        elif np.issubdtype(values.dtype, np.integer):
                            writer.add_column(
                                name, ColumnKind.KEY, dtype=values.dtype
                            )
                        else:
                            writer.add_column(
                                name, ColumnKind.CONTINUOUS, dtype=values.dtype
                            )
                    for field_name in _RESULT_FIELDS:
                        values = getattr(state, field_name)
                        if values is None:  # no context
                            continue
                        arrays[field_name] = _RawColumnWriter(
                            os.path.join(result_dir, f"join_{field_name}.npy"),
                            values.dtype, total_rows, values.shape[1:],
                        )
                        on_error.callback(arrays[field_name].abort)
                for name in col_names:
                    writer.append(name, state.columns[name])
                for field_name, array_writer in arrays.items():
                    array_writer.append(getattr(state, field_name))
            assert writer is not None  # total_rows > 0 guarantees a chunk
            store = writer.finalize()
            for array_writer in arrays.values():
                array_writer.close()
            on_error.pop_all()  # success: nothing to abort
        mapped = {
            field_name: array_writer.layout.map(array_writer.path)
            for field_name, array_writer in arrays.items()
        }
        return (
            StoreColumns(store, col_names),
            mapped["weights"],
            mapped["synthesized"],
            mapped["codes"],
            mapped.get("context"),
        )

    def _validate_plan(
        self, plan: Optional[PushdownPlan], tables: Sequence[str]
    ) -> None:
        if plan is None:
            return
        if tuple(plan.path_tables) != tuple(tables):
            raise ValueError(
                f"pushdown plan was built for path {plan.path_tables}, "
                f"not {tuple(tables)}"
            )

    def _run_chunks(
        self,
        tasks: List[Tuple[int, int]],
        tables: List[str],
        plan: Optional[PushdownPlan] = None,
    ) -> List[AnyChunkOutput]:
        """Dispatch walk passes to the executor; chunk outputs in task order."""
        init = None
        if self._executor.shares_caller_state:
            # Serial/thread workers operate on this join directly; walk
            # side-state goes to pass-local accumulators.
            payload = (self, tables, plan, current_context(), self.spill_dir)
        else:
            payload = _JoinWorkerSpec(
                model=self.model.inference_snapshot(),
                approximate_replacement=self.approximate_replacement,
                replace_synthesized=self.replace_synthesized,
                seed=self.seed,
                tables=tuple(tables),
                plan=plan,
                spill_dir=self.spill_dir,
            )
            init = _build_worker_join
        walked = self._executor.map(
            _walk_pass_task, self._passes(tasks), payload=payload, init=init
        )
        return [output for outputs in walked for output in outputs]

    def _passes(
        self, tasks: List[Tuple[int, int]]
    ) -> List[List[Tuple[int, int]]]:
        """Group chunks into walk passes: one chunk per pass under an
        explicit ``chunk_size``, else one contiguous run per worker."""
        if self.chunk_size is not None:
            return [[task] for task in tasks]
        per_pass = max(1, -(-len(tasks) // self.n_workers))
        return [
            list(tasks[i:i + per_pass]) for i in range(0, len(tasks), per_pass)
        ]

    def _walk_pass(
        self,
        tasks: Sequence[Tuple[int, int]],
        tables: Sequence[str],
        plan: Optional[PushdownPlan] = None,
    ) -> List[_ChunkOutput]:
        """Walk ascending, disjoint root-row chunks in one pass; one output
        per chunk."""
        acc = _ShardAccumulator() if len(tasks) == 1 else _PassAccumulator(tasks)
        rows = np.concatenate(
            [np.arange(start, stop, dtype=np.int64) for start, stop in tasks]
        )
        if plan is not None and plan.has_root_filters and len(rows):
            # Pre-walk pruning: drop non-qualifying roots before any model
            # sampling.  Only the filters' own columns are gathered.
            root = tables[0]
            table = self.db.table(root)
            filters = plan.filters_at(0)
            prefix = f"{root}."
            cols = {
                p.column: table.gather_encoded(p.column[len(prefix):], rows)
                for p in filters
            }
            rows = rows[conjunction_mask(cols, filters, len(rows))]
        return acc.split(
            self._walk(self._initial_state(rows), 1, len(tables), acc, plan)
        )

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _initial_state(self, rows: np.ndarray) -> _WalkState:
        """Root evidence state for an explicit array of root-row indices.

        Each row's stream is derived from its index alone, so a pruned row
        set yields streams identical to the same rows of a full run.  The
        root's tuples are attached like every later hop's
        (:meth:`_fill_real_table`): the chunk gathers and encodes only its
        own rows, so peak memory scales with the chunk, not the table.
        """
        rows = np.asarray(rows, dtype=np.int64)
        state = _WalkState(
            codes=np.zeros((len(rows), self.layout.num_variables), dtype=np.int64),
            columns={},
            weights=np.ones(len(rows)),
            synthesized=np.zeros(len(rows), dtype=bool),
            current_rows=rows,
            context=self.model.context_for_roots(rows),
            streams=rt_rng.root_streams(rows),
            counters=np.zeros(len(rows), dtype=np.uint64),
            roots=rows,
        )
        self._fill_real_table(state, 0, self.path.tables[0], rows)
        return state

    def _replacer(self, table_name: str) -> EuclideanReplacer:
        if table_name not in self._replacers:
            # Seeded from (join seed, table name) — not from a shared walk
            # generator — so replacement is identical across chunkings.
            seed = zlib.crc32(f"{self.seed}:{table_name}".encode())
            self._replacers[table_name] = EuclideanReplacer(
                self.db.table(table_name),
                approximate=self.approximate_replacement,
                seed=seed,
            )
        return self._replacers[table_name]

    def _draw(self, state: _WalkState, k: int) -> np.ndarray:
        """``(rows, k)`` uniforms from the rows' streams; advances counters."""
        return rt_rng.draw(self._seed64, state.streams, state.counters, k)

    # ------------------------------------------------------------------
    # Hops
    # ------------------------------------------------------------------
    def _walk(self, state: _WalkState, start_slot: int, num_slots: int,
              acc: _ShardAccumulator,
              plan: Optional[PushdownPlan] = None) -> _WalkState:
        for slot in range(start_slot, num_slots):
            state = self._hop(state, slot, acc)
            if plan is not None and state.num_rows:
                # Mid-walk pruning: rows failing a predicate decidable at
                # this slot never sample any downstream hop.  Parked
                # dangling-FK rows bypass this (they left the state in
                # _n_to_1_hop) and are filtered after global resolution —
                # the planner guarantees no filter prunes before the last
                # dangling-capable slot, so parked sets stay
                # plan-independent.
                mask = plan.mask_at(slot, state.columns, state.num_rows)
                if mask is not None and not mask.all():
                    state = state.take(np.flatnonzero(mask))
        return state

    def _hop(self, state: _WalkState, slot: int, acc: _ShardAccumulator) -> _WalkState:
        prev = self.path.tables[slot - 1]
        new = self.path.tables[slot]
        if self.db.is_fan_out_step(prev, new):
            out = self._fan_out_hop(state, slot, prev, new, acc)
        else:
            out = self._n_to_1_hop(state, slot, prev, new, acc)
        return out

    def _fan_out_hop(self, state: _WalkState, slot: int, prev: str, new: str,
                     acc: _ShardAccumulator) -> _WalkState:
        fk = self.layout.fan_out_hops[slot]
        tf_idx = self.layout.tf_variable_index(slot)
        index = child_index(self.db, fk)
        existing_counts = np.zeros(state.num_rows, dtype=np.int64)
        real = state.current_rows >= 0
        existing_counts[real] = index.counts()[state.current_rows[real]]

        # Total tuple factor: annotated truth where available, else sampled.
        # Every row consumes one uniform (used only where unknown) so draw
        # accounting never depends on which rows share a chunk.
        u_tf = self._draw(state, 1)[:, 0]
        annotated = self.layout.annotated_tfs(slot)
        totals = np.full(state.num_rows, TF_UNKNOWN, dtype=np.int64)
        totals[real] = annotated[state.current_rows[real]]
        unknown = totals == TF_UNKNOWN
        if unknown.any():
            prefix = state.codes[unknown]
            ctx = None if state.context is None else state.context[unknown]
            sampled = self.model.predict_tuple_factors(
                prefix, slot, context=ctx,
                min_counts=existing_counts[unknown], draws=u_tf[unknown],
                context_ids=state.roots[unknown],
            )
            totals[unknown] = sampled
        totals = np.maximum(totals, existing_counts)
        tf_codes = self.layout.tf_codec_for(slot).encode(totals)

        # ---- existing part: join available children ----
        parts: List[_WalkState] = []
        if real.any():
            rows_real = np.flatnonzero(real)
            child_rows, local_owner = gather_children(
                index, state.current_rows[rows_real]
            )
            owners = rows_real[local_owner]
            if len(child_rows):
                existing = state.take(owners)
                # Fresh streams: siblings joined from the same parent must
                # not share their parent's draw sequence.
                existing.streams = rt_rng.derive_streams(
                    state.streams[owners], rt_rng.TAG_CHILD, child_rows
                )
                existing.counters = np.zeros(len(owners), dtype=np.uint64)
                existing.codes[:, tf_idx] = tf_codes[owners]
                self._fill_real_table(existing, slot, new, child_rows)
                parts.append(existing)

        # ---- synthesized part ----
        missing = np.maximum(totals - existing_counts, 0)
        owners_syn = np.repeat(np.arange(state.num_rows), missing)
        if len(owners_syn):
            offsets = np.concatenate([[0], np.cumsum(missing)[:-1]])
            ordinals = np.arange(len(owners_syn)) - offsets[owners_syn]
            synth = state.take(owners_syn)
            synth.streams = rt_rng.derive_streams(
                state.streams[owners_syn], rt_rng.TAG_SYNTH, ordinals
            )
            synth.counters = np.zeros(len(owners_syn), dtype=np.uint64)
            synth.codes[:, tf_idx] = tf_codes[owners_syn]
            self._synthesize_table(synth, slot, new, acc)
            # The synthesized child's FK to its evidence parent is known.
            parent_keys = self._parent_keys_for(state, prev, fk.parent_column)
            synth.columns[f"{new}.{fk.child_column}"] = np.where(
                state.synthesized[owners_syn],
                MISSING_KEY,
                parent_keys[owners_syn],
            )
            synth = self._maybe_replace(synth, slot, new)
            parts.append(synth)

        if not parts:
            return self._empty_after_slot(state, slot, new)
        return _concat_many(parts)

    def _n_to_1_hop(self, state: _WalkState, slot: int, prev: str, new: str,
                    acc: _ShardAccumulator) -> _WalkState:
        fk = self.db.fk_between(prev, new)
        fk_values = state.columns[f"{prev}.{fk.child_column}"]
        partner = lookup(
            self.db, new, fk.parent_column, np.asarray(fk_values, dtype=np.int64)
        )

        parts: List[_WalkState] = []
        has_partner = partner >= 0
        if has_partner.any():
            idx = np.flatnonzero(has_partner)
            existing = state.take(idx)
            self._fill_real_table(existing, slot, new, partner[idx])
            parts.append(existing)

        needs_synth = ~has_partner
        # Children whose FK is a real key reference a *removed* parent: the
        # missing tuple's key is known, so all children sharing it must get
        # one shared synthesized parent (keyed by that FK value).  They are
        # parked here and resolved globally after every chunk has walked —
        # see :meth:`_resolve_dangling`.  Children that are themselves
        # synthetic (sentinel FK) get per-row parents with the §4.3
        # over-generation weight correction.
        dangling = needs_synth & (np.asarray(fk_values) >= 0)
        orphan = needs_synth & ~dangling

        if dangling.any():
            acc.park(slot, state.take(np.flatnonzero(dangling)))

        if orphan.any():
            idx = np.flatnonzero(orphan)
            synth = state.take(idx)
            self._synthesize_table(synth, slot, new, acc)
            from_synth = state.synthesized[idx]
            if from_synth.any():
                correction = self._orphan_weight(fk)
                synth.weights = synth.weights * np.where(from_synth, correction, 1.0)
            synth = self._maybe_replace(synth, slot, new)
            parts.append(synth)

        if not parts:
            return self._empty_after_slot(state, slot, new)
        return _concat_many(parts)

    def _resolve_dangling(self, state: _WalkState, slot: int,
                          acc: _ShardAccumulator) -> _WalkState:
        """Synthesize shared parents for parked dangling-FK rows.

        One parent is sampled per unique key, conditioned on a *canonical*
        representative child — the one with the smallest stream id, which is
        a pure lineage property — and on key-derived draws.  Both choices
        are independent of chunk boundaries (and of which worker walked
        which chunk), so splitting a key's children across chunks
        materializes the same parent tuple.  The parent's slot codes and
        columns are grafted onto every child row, which keeps its own
        evidence prefix.
        """
        prev = self.path.tables[slot - 1]
        new = self.path.tables[slot]
        fk = self.db.fk_between(prev, new)
        keys = np.asarray(state.columns[f"{prev}.{fk.child_column}"], dtype=np.int64)
        order = np.lexsort((state.streams, keys))
        sorted_keys = keys[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        rep_rows = order[first]
        unique_keys = sorted_keys[first]

        reps = state.take(rep_rows)
        reps.streams = rt_rng.key_streams(self._key_tag(slot), unique_keys)
        reps.counters = np.zeros(len(unique_keys), dtype=np.uint64)
        # One representative per key: shared parents count once per
        # missing key, not once per child row.
        self._synthesize_table(reps, slot, new, acc)

        shared = reps.take(np.searchsorted(unique_keys, keys))
        start, stop = self.layout.slot_range(slot)
        state.codes[:, start:stop] = shared.codes[:, start:stop]
        for column in self.db.table(new).column_names:
            state.columns[f"{new}.{column}"] = shared.columns[f"{new}.{column}"]
        pk = self.db.table(new).primary_key
        if pk is not None:
            state.columns[f"{new}.{pk}"] = keys
        state.synthesized = np.ones(state.num_rows, dtype=bool)
        state.current_rows = np.full(state.num_rows, -1, dtype=np.int64)
        return state

    def _key_tag(self, slot: int) -> np.uint64:
        """Per-slot lineage tag for key-derived shared-parent streams."""
        with np.errstate(over="ignore"):
            return rt_rng.TAG_KEY + np.uint64(2 * slot + 1)

    def _check_synth_ids(
        self, issued_ids: Dict[str, List[np.ndarray]]
    ) -> None:
        """Fail loudly on synthetic-id hash collisions (~n²/2⁶³ likely).

        Every `_synthesize_table` call issues ids for distinct logical
        tuples, so any duplicate across a run is a stream-hash collision
        that would silently merge two different tuples in projection.
        """
        for table_name, id_arrays in issued_ids.items():
            ids = np.sort(np.concatenate(id_arrays))
            if (ids[1:] == ids[:-1]).any():
                raise RuntimeError(
                    f"synthetic id collision for table {table_name!r} "
                    f"(seed {self.seed}); re-run with a different seed"
                )

    # ------------------------------------------------------------------
    # Row materialization helpers
    # ------------------------------------------------------------------
    def _fill_real_table(self, part: _WalkState, slot: int, table_name: str,
                         rows: np.ndarray) -> None:
        """Attach real tuples of ``table_name`` (by row) to the state part.

        Rows are gathered, not sliced from a materialized column: a mapped
        table reads only the touched rows, and the gathered block is reused
        for encoding rather than read twice.  Contiguous rows come back as
        views of the table's columns; no walk writes into a column array.
        String columns stay codes (:meth:`_gather`), and the encoder reads
        them through their vocabulary.
        """
        gathered = {
            c: self._gather(table_name, c, rows)
            for c in self.db.table(table_name).column_names
        }
        for column, values in gathered.items():
            part.columns[f"{table_name}.{column}"] = values
        start, stop = self.layout.slot_range(slot)
        tf_idx = self.layout.tf_variable_index(slot)
        col_start = start if tf_idx is None else tf_idx + 1
        encoder = self.layout.encoders[table_name]
        if encoder.columns:
            part.codes[:, col_start:stop] = encoder.encode_columns(
                {c: gathered[c] for c in encoder.columns}
            )
        part.synthesized = np.zeros(part.num_rows, dtype=bool)
        part.current_rows = np.asarray(rows, dtype=np.int64)

    def _gather(self, table_name: str, column: str, rows: np.ndarray):
        """A column's values at ``rows``, a string column as codes into
        the join's vocabulary for it (:meth:`_vocab`)."""
        values = self.db.table(table_name).gather_encoded(column, rows)
        if isinstance(values, DictColumn):
            vocab = self._vocab(table_name, column)
            if vocab is not None and values.vocab is vocab.table_vocab:
                # The table's codes index the join's vocabulary unchanged.
                return DictColumn(values.codes, vocab.vocab)
        return values

    def _vocab(self, table_name: str, column: str) -> Optional["_JoinVocab"]:
        key = (table_name, column)
        if key not in self._vocabs:
            self._vocabs.setdefault(key, self._build_vocab(table_name, column))
        return self._vocabs[key]

    def _build_vocab(self, table_name: str, column: str) -> Optional["_JoinVocab"]:
        """The table's vocabulary of a string column, extended by the codec
        values it lacks, and the map of codec values into it."""
        current = self.db.table(table_name).gather_encoded(column, _NO_ROWS)
        if not isinstance(current, DictColumn):
            return None
        vocab = current.vocab
        values = self.layout.encoders[table_name].codec(column).values
        if values.dtype != vocab.dtype:
            return _JoinVocab(vocab, vocab, None)
        position = dict(zip(vocab.tolist(), range(len(vocab))))
        lacking = [v for v in values.tolist() if v not in position]
        if lacking:
            position.update(zip(lacking, range(len(vocab), len(vocab) + len(lacking))))
            vocab = np.concatenate([vocab, object_array(lacking)])
        from_codec = np.fromiter(
            map(position.__getitem__, values.tolist()),
            code_dtype(len(vocab)), count=len(values),
        )
        return _JoinVocab(current.vocab, vocab, from_codec)

    def _synthesize_table(self, part: _WalkState, slot: int, table_name: str,
                          acc: _ShardAccumulator) -> None:
        """Sample the slot's columns and materialize raw values/keys.

        Consumes ``2 * num_slot_columns`` uniforms per row from the part's
        streams: one per sampled variable, one per decoded column
        (dequantization jitter).
        """
        num_vars = self.model.slot_sample_width(slot)
        draws = self._draw(part, 2 * num_vars) if num_vars else None
        sampled = self.model.sample_slot(
            part.codes, slot, context=part.context,
            draws=None if draws is None else draws[:, :num_vars],
            context_ids=part.roots,
        )
        part.codes = sampled
        start, stop = self.layout.slot_range(slot)
        tf_idx = self.layout.tf_variable_index(slot)
        col_start = start if tf_idx is None else tf_idx + 1
        decoded = self.layout.decode_slot_codes(
            slot, sampled[:, col_start:stop],
            uniforms=None if draws is None else draws[:, num_vars:],
        )
        table = self.db.table(table_name)
        ids = None
        for column in table.column_names:
            if column in decoded:
                part.columns[f"{table_name}.{column}"] = self._synthesized_values(
                    table_name, column, decoded[column]
                )
            elif column == table.primary_key:
                # Negative ids below the -1 sentinel, derived from the row's
                # stream so chunked and unchunked runs assign the same id to
                # the same logical tuple.  Streams are 64-bit hashes, so ids
                # are unique only up to hash collisions — run() verifies
                # uniqueness at the end and fails loudly rather than letting
                # two distinct tuples silently merge during projection.
                ids = (-2 - (part.streams & _SYNTH_ID_MASK).astype(np.int64))
                part.columns[f"{table_name}.{column}"] = ids
            else:
                part.columns[f"{table_name}.{column}"] = np.full(
                    part.num_rows, MISSING_KEY, dtype=np.int64
                )
        part.synthesized = np.ones(part.num_rows, dtype=bool)
        part.current_rows = np.full(part.num_rows, -1, dtype=np.int64)
        acc.record_synth(table_name, part, ids)

    def _synthesized_values(self, table_name: str, column: str, values):
        """Decoded model values of a column, in the form the table's real
        values take: sampled strings (codec value positions) become codes
        into the join's vocabulary."""
        if not isinstance(values, DictColumn):
            return values
        vocab = self._vocab(table_name, column)
        if vocab is None or vocab.from_codec is None:
            return values.decode()
        return DictColumn(vocab.from_codec[values.codes], vocab.vocab)

    def _maybe_replace(self, part: _WalkState, slot: int, table_name: str) -> _WalkState:
        """Euclidean replacement for synthesized tuples of complete tables."""
        if not self.replace_synthesized or not self.annotation.is_complete(table_name):
            return part
        if part.num_rows == 0:
            return part
        replacer = self._replacer(table_name)
        synth_cols = {
            c: part.columns[f"{table_name}.{c}"] for c in replacer.space.columns
        }
        rows = replacer.replace(synth_cols)
        self._fill_real_table(part, slot, table_name, rows)
        return part

    def _parent_keys_for(self, state: _WalkState, table_name: str,
                         key_column: str) -> np.ndarray:
        column = f"{table_name}.{key_column}"
        if column in state.columns:
            return state.columns[column]
        return np.full(state.num_rows, MISSING_KEY, dtype=np.int64)

    def _empty_after_slot(self, state: _WalkState, slot: int, new: str) -> _WalkState:
        columns = {k: v[:0] for k, v in state.columns.items()}
        for column in self.db.table(new).column_names:
            columns[f"{new}.{column}"] = self._gather(new, column, _NO_ROWS)
        return _WalkState(
            codes=state.codes[:0],
            columns=columns,
            weights=state.weights[:0],
            synthesized=state.synthesized[:0],
            current_rows=state.current_rows[:0],
            context=None if state.context is None else state.context[:0],
            streams=state.streams[:0],
            counters=state.counters[:0],
            roots=state.roots[:0],
        )

    def _orphan_weight(self, fk) -> float:
        """§4.3 over-generation correction for keyless synthesized children.

        A synthesized child row spawns a parent tuple, but a missing parent
        re-appears once per child, and — when the available links still
        carry dangling keys — most synthesized links actually point at
        *existing* parents.  A random link references a missing parent with
        the observed dangling fraction ``d``, and each missing parent is hit
        ``mean children`` times, so the weight is ``d / mean``.  When the
        removal protocol dropped the dangling links (``d == 0`` observed but
        children of missing parents are known to be gone), every synthesized
        child stands for a missing parent: weight ``1 / mean``.
        """
        index = child_index(self.db, fk)
        refs = np.asarray(self.db.table(fk.child_table)[fk.child_column])
        valid = refs >= 0
        if not valid.any():
            return 1.0
        dangling = (index.parent_of[valid] < 0).mean()
        counts = index.counts()
        positive = counts[counts > 0]
        mean_children = float(positive.mean()) if len(positive) else 1.0
        if dangling > 0:
            return float(dangling) / mean_children
        return 1.0 / mean_children
