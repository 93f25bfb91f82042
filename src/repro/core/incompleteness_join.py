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

**Walk order.**  Every hop splits its input rows into an existing part
and a synthesized (n:1: orphan) part, each keeping its input order, and
emits the existing part first; dangling rows leave for the parked set in
their input order.  Each row records its side of every hop as one bit of
``_WalkState.hops`` (bit ``h - 1`` for hop ``h``), so a walk's rows are
always the stable sort of its roots' rows by (hop bits read as an
integer, latest hop most significant; root row), and so is each slot's
parked set.  A root row's own rows, their order, streams and synthesized
tuples depend on that root alone, which is why the walk of some of a
chunk's roots can replace their share of the chunk's cached output
(:func:`splice_chunk_outputs`): the engine re-walks only the root rows a
root-table update touched.

String columns walk as dictionary columns
(:class:`~repro.relational.DictColumn`): a table's rows are read as codes
into its store's vocabulary, which the join extends once by the codec
values the table lacks, so sampled strings take codes in the same
vocabulary and every part of a column concatenates by codes.  Chunks
cached by an earlier join (or database) unite their vocabularies by value;
a spliced chunk takes the vocabularies of the walk spliced into it.
Strings are decoded only when an in-RAM join is assembled; a spilled join
hands the codes to its result store.

With a ``spill_dir``, rows go to a store-backed result under
``<spill_dir>/result`` as they are walked, and each is written once.
Every walk hands its chunk outputs back the same way, over the executor,
in task order: the caller appends each one to the result store's column
writers as soon as the executor yields it and keeps only a handle, so
only the caller's thread writes under ``spill_dir`` whatever the backend.
A pool holds at most ``2 * n_workers`` walked passes for the caller (see
:mod:`repro.runtime.parallel`).  Assembly appends the parked rows'
continuations last and closes the store; its files learn their row
counts then.

The result is a :class:`~repro.query.JoinResult` with fractional row
weights, directly consumable by the shared filter/aggregate operators.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
    recode,
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
    #: the root row of every output row (an SSAR context is a function of
    #: it); None for a spilled join, whose rows are in its result store.
    roots: Optional[np.ndarray] = None

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
    of each row) splits a multi-chunk pass back into chunks.  ``hops`` has
    bit ``h - 1`` set when the row went to the synthesized (or orphan)
    part of hop ``h`` rather than its existing part; with ``roots`` it
    states the walk order (module docstring).  Columns of ``str`` values
    are :class:`~repro.relational.DictColumn`, not object arrays.
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
    hops: np.ndarray                  # (R,) bit h-1 set: synthesized part of hop h

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
            hops=self.hops[idx],
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
        hops=np.concatenate([s.hops for s in non_empty]),
    )


@dataclass
class _ShardAccumulator:
    """Synthesis side-state produced while walking one shard of rows.

    Walks write here instead of mutating the join object, which is what
    makes a chunk walk a pure function — safe to run on any worker — and
    gives the post-barrier merge one explicit, deterministic code path.

    ``synth_keys`` ties every synthesized tuple to its root row: per table
    and record, the tuples' root rows and hop bits, aligned with the
    count and the issued ids, so :func:`splice_chunk_outputs` can take a
    root's share out.  A spilled walk's handles drop them (never spliced).
    """

    parked: Dict[int, List[_WalkState]] = field(default_factory=dict)
    num_synth: Dict[str, int] = field(default_factory=dict)
    issued_ids: Dict[str, List[np.ndarray]] = field(default_factory=dict)
    synth_keys: Dict[str, List[Tuple[np.ndarray, np.ndarray]]] = field(
        default_factory=dict
    )

    def park(self, slot: int, state: _WalkState) -> None:
        self.parked.setdefault(slot, []).append(state)

    def record_synth(
        self, table_name: str, part: _WalkState, ids: Optional[np.ndarray]
    ) -> None:
        """Count ``part``'s rows as synthesized tuples; keep issued ids."""
        self.record(table_name, part.num_rows, ids, (part.roots, part.hops))

    def record(
        self, table_name: str, count: int, ids: Optional[np.ndarray],
        keys: Tuple[np.ndarray, np.ndarray],
    ) -> None:
        self.num_synth[table_name] = self.num_synth.get(table_name, 0) + count
        if ids is not None:
            self.issued_ids.setdefault(table_name, []).append(ids)
        self.synth_keys.setdefault(table_name, []).append(keys)

    def merge(self, other: "_ShardAccumulator") -> None:
        """Fold another shard's side-state into this one (order-preserving)."""
        for slot, states in other.parked.items():
            self.parked.setdefault(slot, []).extend(states)
        for table_name, count in other.num_synth.items():
            self.num_synth[table_name] = self.num_synth.get(table_name, 0) + count
        for table_name, ids in other.issued_ids.items():
            self.issued_ids.setdefault(table_name, []).extend(ids)
        for table_name, keys in other.synth_keys.items():
            self.synth_keys.setdefault(table_name, []).extend(keys)

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
        self.record_keys(table_name, part.roots, part.hops, ids)

    def record_keys(
        self, table_name: str, roots: np.ndarray, hops: np.ndarray,
        ids: Optional[np.ndarray],
    ) -> None:
        """Synthesized tuples by their (root row, hop bits) keys, in walk
        order, with their issued ids."""
        order, ranges = self._by_chunk(roots)
        if ids is not None:
            ids = ids[order]
        roots, hops = roots[order], hops[order]
        for acc, start, stop in ranges:
            if stop > start:
                acc.record(
                    table_name, stop - start,
                    None if ids is None else ids[start:stop],
                    (roots[start:stop], hops[start:stop]),
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


@dataclass
class _SpilledChunkOutput:
    """A chunk output whose walked rows went to its walk's result store.

    Produced when the join runs with a ``spill_dir``: only the synthesis
    side-state and the row count stay in RAM.  The rows exist once, in the
    store that :meth:`IncompletenessJoin.assemble` finishes, so a spilled
    walk's outputs assemble once.
    """

    walk: "_SpilledWalk"
    acc: _ShardAccumulator
    num_rows: int


AnyChunkOutput = Union[_ChunkOutput, _SpilledChunkOutput]


def _chunk_states(outputs: Sequence[_ChunkOutput]) -> List[_WalkState]:
    """The outputs' rows as walk states to concatenate, in output order:
    adjacent ranges of one walked state become one view of it, and a
    walked state covered whole is itself, uncopied."""
    pieces: List[list] = []
    for o in outputs:
        rows = slice(0, o.walked.num_rows) if o.rows is None else o.rows
        if pieces and pieces[-1][0] is o.walked \
                and pieces[-1][1].stop == rows.start:
            pieces[-1][1] = slice(pieces[-1][1].start, rows.stop)
        else:
            pieces.append([o.walked, rows])
    return [
        walked if rows.stop - rows.start == walked.num_rows
        else walked.take(rows)
        for walked, rows in pieces
    ]


class _ResultSink:
    """A spilled join's result store, written as its states arrive.

    A :class:`StoreWriter` takes the columns (dictionary columns as codes,
    remapped into the store's dictionary), and one ``join_<field>.npy``
    per field of :data:`_RESULT_FIELDS` takes the codes, weights,
    synthesized flags and context; the files learn their row count when
    :meth:`finish` closes them.  The schema is the first non-empty
    state's: every chunk walks the same path, so the states agree.
    """

    def __init__(self, directory: str, state: _WalkState):
        self.names = list(state.columns)
        self.store = StoreWriter(
            directory, "completed_join", None, primary_key=None
        )
        self.arrays: Dict[str, _RawColumnWriter] = {}
        try:
            for name in self.names:
                values = state.columns[name]
                if isinstance(values, DictColumn) or values.dtype == object:
                    self.store.add_column(name, ColumnKind.CATEGORICAL)
                elif np.issubdtype(values.dtype, np.integer):
                    self.store.add_column(name, ColumnKind.KEY, dtype=values.dtype)
                else:
                    self.store.add_column(
                        name, ColumnKind.CONTINUOUS, dtype=values.dtype
                    )
            for field_name in _RESULT_FIELDS:
                values = getattr(state, field_name)
                if values is not None:  # no context
                    self.arrays[field_name] = _RawColumnWriter(
                        os.path.join(directory, f"join_{field_name}.npy"),
                        values.dtype, None, values.shape[1:],
                    )
        except BaseException:
            self.discard()
            raise

    def append(self, state: _WalkState) -> None:
        for name in self.names:
            self.store.append(name, state.columns[name])
        for field_name, writer in self.arrays.items():
            writer.append(getattr(state, field_name))

    def finish(self):
        """Close every file; the result reopens as read-only maps."""
        store = self.store.finalize()
        for writer in self.arrays.values():
            writer.close()
        mapped = {
            field_name: writer.layout.map(writer.path)
            for field_name, writer in self.arrays.items()
        }
        return (
            StoreColumns(store, self.names),
            mapped["weights"],
            mapped["synthesized"],
            mapped["codes"],
            mapped.get("context"),
        )

    def discard(self) -> None:
        """Close every file and remove every file the sink made."""
        for writer in self.arrays.values():
            writer.discard()
        self.store.discard()


class _SpilledWalk:
    """The rows of one spilled walk, on their way to ``<spill_dir>/result``.

    The caller appends each chunk output to the result store as the
    executor yields it, in task order (:meth:`append`), and keeps only
    the handle.  The store opens on the first non-empty state; ``empty``
    keeps the first state without rows, the schema of an in-RAM empty
    result.
    """

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.sink: Optional[_ResultSink] = None
        self.empty: Optional[_WalkState] = None
        self.rows = 0

    def append(self, output: _ChunkOutput) -> _SpilledChunkOutput:
        state = output.state
        self.add(state)
        # A spilled output is never spliced: its tuples' root keys go.
        acc = replace(output.acc, synth_keys={})
        return _SpilledChunkOutput(self, acc, state.num_rows)

    def add(self, state: _WalkState) -> None:
        if state.num_rows == 0:
            if self.empty is None:
                self.empty = state
            return
        if self.sink is None:
            self.sink = _ResultSink(os.path.join(self.spill_dir, "result"), state)
        self.sink.append(state)
        self.rows += state.num_rows

    def discard(self) -> None:
        """Close and remove every file the walk made."""
        if self.sink is not None:
            self.sink.discard()


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


def splice_chunk_outputs(
    tasks: Sequence[Tuple[int, int]],
    old: Sequence[_ChunkOutput],
    fresh: Sequence[_ChunkOutput],
    roots: np.ndarray,
) -> List[_ChunkOutput]:
    """Cached chunk outputs with the share of stale root rows replaced.

    ``old[i]`` is the output of chunk ``tasks[i]`` (ascending, disjoint),
    ``roots`` the stale root rows (sorted, each inside one of the chunks)
    and ``fresh`` the outputs of a walk of exactly those roots.  A walk is
    a pure function of each root row's lineage and keeps the walk order
    (module docstring), so dropping the stale roots' old rows, parked rows
    and synthesized tuples (count, ids) and merging the fresh ones in by
    (hop bits, root row) gives each chunk bitwise the walk of the whole
    chunk on the database ``fresh`` was walked on, in order.  Dictionary
    columns take the fresh walk's vocabularies.  The chunks are regrouped
    together, as one walk pass is (:class:`_PassAccumulator`).
    """
    vocabs = {
        name: values.vocab for name, values in fresh[0].state.columns.items()
        if isinstance(values, DictColumn)
    }

    def merged(old_states: List[_WalkState], new_states: List[_WalkState]):
        """The old states' kept rows and the new ones, in walk order."""
        state = _concat_many(old_states + new_states)
        state = state.take(_splice_order(
            state.roots, state.hops, sum(s.num_rows for s in old_states), roots
        ))
        for name, vocab in vocabs.items():
            values = state.columns.get(name)
            if isinstance(values, DictColumn) and values.vocab is not vocab:
                state.columns[name] = recode(values, vocab) or values
        return state

    acc = _PassAccumulator(tasks)
    outputs = acc.split(merged(_chunk_states(old), _chunk_states(fresh)))
    sources = [o.acc for o in old] + [f.acc for f in fresh]
    for slot in sorted(set().union(*(a.parked for a in sources))):
        acc.park(slot, merged(
            [s for o in old for s in o.acc.parked.get(slot, [])],
            [s for f in fresh for s in f.acc.parked.get(slot, [])],
        ))
    for table_name in sorted(set().union(*(a.num_synth for a in sources))):
        keys = [k for a in sources for k in a.synth_keys.get(table_name, [])]
        synth_roots = np.concatenate([r for r, _ in keys])
        hops = np.concatenate([h for _, h in keys])
        num_old = sum(
            len(r) for o in old for r, _ in o.acc.synth_keys.get(table_name, [])
        )
        order = _splice_order(synth_roots, hops, num_old, roots)
        ids = [i for a in sources for i in a.issued_ids.get(table_name, [])]
        acc.record_keys(
            table_name, synth_roots[order], hops[order],
            np.concatenate(ids)[order] if ids else None,
        )
    return outputs


def _splice_order(
    roots: np.ndarray, hops: np.ndarray, num_old: int, stale: np.ndarray
) -> np.ndarray:
    """Positions of a splice's rows in walk order (stable by hop bits, then
    root row), without the first ``num_old`` (the old output's) whose root
    is in ``stale`` (sorted)."""
    live = np.ones(len(roots), dtype=bool)
    old = roots[:num_old]
    at = np.minimum(np.searchsorted(stale, old), len(stale) - 1)
    live[:num_old] = stale[at] != old
    rows = np.flatnonzero(live)
    return rows[np.lexsort((roots[rows], hops[rows]))]


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
    return join, list(spec.tables), spec.plan, None


def _walk_pass_task(state, tasks: List[Tuple[int, int]]) -> List[_ChunkOutput]:
    """Executor task: walk a pass of root-row chunks (any backend).

    The fourth payload element is the dispatching caller's trace context:
    contextvars do not flow into pool threads, so the context rides along
    explicitly and each pass becomes a child span of the dispatch
    (process workers get ``None`` — their tracer is off by default).
    """
    join, tables, plan, ctx = state
    if not tracing_enabled():
        return join._walk_pass(tasks, tables, plan)
    with activate(ctx):
        with trace(
            "join.chunk",
            chunk=f"{tasks[0][0]}:{tasks[-1][1]}",
            chunks=len(tasks),
            rows_scanned=sum(stop - start for start, stop in tasks),
        ) as span:
            outputs = join._walk_pass(tasks, tables, plan)
            span.set("rows_out", sum(o.num_rows for o in outputs))
            return outputs


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
        Stream completed chunks into a store-backed result under
        ``<spill_dir>/result`` instead of holding them in RAM: the caller
        appends each chunk's rows to the result store as soon as the
        executor yields the chunk, in task order, whatever the backend,
        and keeps an O(1) handle.  A pool holds at most ``2 * n_workers``
        walked passes for the caller, so ``chunk_size`` bounds the
        caller's memory as it bounds a serial walk's.  :meth:`assemble`
        appends the parked rows' continuations and closes the store, so
        the full join never resides in RAM; combined with a memory-mapped
        database this bounds the join's peak RSS far below the output
        size.  A run leaves only ``result/`` in the directory, and a run
        that raises removes what it wrote there.  A spilled walk must be
        assembled before the next one, and its outputs assemble once.
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
        # The spilled walk whose rows await assemble(), if any.
        self._spilled: Optional[_SpilledWalk] = None
        # One bit per hop of the path (see _WalkState.hops).
        self._hop_dtype = np.min_scalar_type((1 << (len(self.path.tables) - 1)) - 1)

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

        With a ``spill_dir`` the rows go to the result store as they are
        walked and the outputs are handles (see ``spill_dir``); a walk that
        raises removes every file it made before re-raising.
        """
        tables = list(tables) if tables is not None else list(self.path.tables)
        self._validate_plan(plan, tables)
        with trace(
            "join.walk_chunks",
            chunks=len(tasks),
            tables="/".join(tables),
            backend=self.parallel_backend,
        ):
            if self.spill_dir is None:
                return self._run_chunks(tasks, tables, plan)
            if self._spilled is not None:
                raise StorageError(
                    f"{self.spill_dir}: the previous spilled walk has not "
                    "been assembled; a walk would overwrite its result"
                )
            walk = self._spilled = _SpilledWalk(self.spill_dir)
            try:
                return self._run_chunks(tasks, tables, plan, walk.append)
            except BaseException:
                self._spilled = None
                walk.discard()
                raise

    def assemble(
        self,
        outputs: List[AnyChunkOutput],
        tables: Optional[Sequence[str]] = None,
        plan: Optional[PushdownPlan] = None,
    ) -> CompletedJoin:
        """Merge chunk outputs into a completed join.

        Resolves dangling-FK parents globally across the given outputs and
        runs the continuation walks.  Parked states are copied before
        resolution, so in-RAM outputs stay reusable — assembling a chunk
        subset for an early estimate and later re-assembling a superset
        both see pristine chunk outputs.

        The outputs of a spilled walk (``spill_dir``) are handles whose
        rows are already in the result store: the continuations are
        appended after every chunk and the store is closed, so the full
        join never resides in RAM — the returned columns, codes and
        context are read-only memory maps.  They assemble once, all of
        them together; an assembly that raises removes the store.  A
        spilled walk without rows assembles in RAM, as an empty result.
        """
        tables = list(tables) if tables is not None else list(self.path.tables)
        self._validate_plan(plan, tables)
        walk, self._spilled = self._spilled, None
        try:
            if any(
                isinstance(o, _SpilledChunkOutput) and o.walk is not walk
                for o in outputs
            ) or (walk is not None
                  and sum(o.num_rows for o in outputs) != walk.rows):
                raise StorageError(
                    "a spilled walk's outputs assemble once, all together"
                )
            acc = _ShardAccumulator()
            for output in outputs:  # executor order == task order: deterministic
                acc.merge(output.acc)
            extras = self._resolve_parked(acc, tables, plan)
            self._check_synth_ids(acc.issued_ids)
            stored = None
            if walk is not None:
                for extra in extras:
                    walk.add(extra)
                if walk.sink is not None:
                    stored = walk.sink.finish()
        except BaseException:
            if walk is not None:
                walk.discard()
            raise
        roots = None
        if stored is not None:
            columns, weights, synthesized, codes, context = stored
        else:
            if walk is None:
                chunks = _chunk_states(outputs) + extras
            else:
                chunks = [walk.empty] if walk.empty is not None else []
                chunks += extras
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
            roots = completed.roots

        # The final state's synthesized flags refer to the last completed
        # table — exactly what confidence estimation (§6) needs.
        return CompletedJoin(
            result=JoinResult(columns, weights=weights),
            path=CompletionPath(tuple(tables)),
            num_synthesized=dict(acc.num_synth),
            synthesized_mask={tables[-1]: synthesized},
            codes=codes,
            context=context,
            roots=roots,
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
        plan: Optional[PushdownPlan],
        consume: Optional[Callable[[_ChunkOutput], AnyChunkOutput]] = None,
    ) -> List[AnyChunkOutput]:
        """Dispatch walk passes to the executor; chunk outputs in task order.

        ``consume`` takes each output as the executor yields it and
        returns what to keep in its place; nothing here holds an output
        it has handed on while the next pass is awaited.
        """
        init = None
        if self._executor.shares_caller_state:
            # Serial/thread workers operate on this join directly; walk
            # side-state goes to pass-local accumulators.
            payload = (self, tables, plan, current_context())
        else:
            payload = _JoinWorkerSpec(
                model=self.model.inference_snapshot(),
                approximate_replacement=self.approximate_replacement,
                replace_synthesized=self.replace_synthesized,
                seed=self.seed,
                tables=tuple(tables),
                plan=plan,
            )
            init = _build_worker_join
        passes = self._executor.map(
            _walk_pass_task, self._passes(tasks), payload=payload, init=init
        )
        with contextlib.closing(passes):
            outputs = itertools.chain.from_iterable(passes)
            return list(outputs if consume is None else map(consume, outputs))

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
            hops=np.zeros(len(rows), dtype=self._hop_dtype),
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
            synth.hops |= self._hop_bit(slot)
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
            synth.hops |= self._hop_bit(slot)
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
        state.hops = state.hops | self._hop_bit(slot)
        return state

    def _hop_bit(self, slot: int):
        """The hop-bits flag of a row in the synthesized part of ``slot``'s hop."""
        return self._hop_dtype.type(1 << (slot - 1))

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
            hops=state.hops[:0],
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
