#!/usr/bin/env python3
"""Digests of the results a change to the completion path must keep bitwise.

    python benchmarks/same_bits.py

Run from a checkout, this imports the program from that checkout's
``src/`` and prints one JSON line mapping each result to a digest:

* ``answer/<dataset>/<query>/cold`` and ``.../pushed`` — the Table 1
  answers (float hex of every group) of the ten cold-query engines, each
  answered with the cache cleared, without and with ``pushdown=True``;
* ``join/<dataset>/<query>`` — each cold answer's completed join in
  canonical row order;
* ``training/<query>/<kind>/<path>`` — the matrix and row positions
  ``assemble_training_data`` gives every candidate model of those engines
  (each engine named after the first query it answers);
* ``refresh/<i>`` — six live-refresh recompletions (``apply_mutations``
  then ``recomplete``) over perfbench's live-refresh stream at seed 1;
* ``scale-join/seed5`` — the spilled SF-1 join at seed 5: its canonical
  rows, every chunk spill as the walk state read back from it (string
  columns decoded, so the digest does not depend on the spill file
  format), and its result files byte for byte.

The set-ups are perfbench's (``perfbench/workloads.py``), so the engines,
databases and streams are the benchmark's own.  Two checkouts that print
the same line complete, answer and train identically on all of them; two
runs of one checkout must print the same line too.  BLAS is pinned to one
thread, as in perfbench, before numpy loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402

from perfbench.workloads import ColdQuery, LiveRefresh, ScaleJoin  # noqa: E402
from repro.core import IncompletenessJoin, assemble_training_data  # noqa: E402
from repro.experiments.exp4_perf import canonical_rows  # noqa: E402

REFRESH_SEED = 1
REFRESH_WRITES = 6
SCALE_JOIN_SEED = 5


def _update(h, value) -> None:
    """Feed one value (array, scalar, bytes or a dict of them) to ``h``."""
    if isinstance(value, dict):
        for key in sorted(value, key=repr):
            _update(h, repr(key))
            _update(h, value[key])
    elif isinstance(value, list):
        h.update(f"list{len(value)}".encode())
        for item in value:
            _update(h, item)
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        if value.dtype == object:
            h.update(repr(value.tolist()).encode())
        else:
            h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        h.update(value.hex().encode())
    elif isinstance(value, bytes):
        h.update(value)
    else:
        h.update(repr(value).encode())
    h.update(b"\x00")


def digest(*values) -> str:
    h = hashlib.blake2b(digest_size=12)
    for value in values:
        _update(h, value)
    return h.hexdigest()


def _answer_values(answer) -> dict:
    return {key: float(v) for key, v in answer.result.values.items()}


def _completed(completed) -> str:
    columns, weights = canonical_rows(completed)
    return digest(columns, weights)


def cold_query(workdir: str) -> dict:
    workload = ColdQuery(workdir)
    workload.setup()
    out = {}
    engines = {}
    try:
        for name, _dataset, engine, query in workload.queries:
            engines.setdefault(id(engine), (name, engine))
            for mode, pushdown in (("cold", False), ("pushed", True)):
                engine.clear_cache()
                answer = engine.answer(query, pushdown=pushdown)
                out[f"answer/{name}/{mode}"] = digest(_answer_values(answer))
                if mode == "cold":
                    out[f"join/{name}"] = _completed(answer.completed)
        for first_query, engine in engines.values():
            for target, scores in sorted(engine.candidate_scores().items()):
                for score in scores:
                    model = score.model
                    data = assemble_training_data(model.layout)
                    path = "->".join(model.layout.path.tables)
                    out[f"training/{first_query}/{model.kind}/{path}"] = digest(
                        data.matrix, data.row_positions)
    finally:
        workload.teardown()
    return out


def live_refresh(workdir: str) -> dict:
    workload = LiveRefresh(workdir)
    workload.setup()
    out = {}
    try:
        stream = workload.stream(REFRESH_SEED)
        for index in range(REFRESH_WRITES):
            batch, reads = next(stream)
            out[f"refresh/{index}"] = _completed(workload._write(batch))
            for read in reads:
                workload.engine.answer(workload.reads[read])
    finally:
        workload.teardown()
    return out


#: The arrays of a walk state, in the order a chunk spill stores them.
WALK_FIELDS = ("codes", "weights", "synthesized", "current_rows", "streams",
               "counters", "roots", "context")


def _walk_state(state) -> dict:
    """A walk state's arrays, string columns decoded to values."""
    return {
        "fields": {name: getattr(state, name) for name in WALK_FIELDS},
        "column_order": list(state.columns),
        "columns": {name: np.asarray(values)
                    for name, values in state.columns.items()},
    }


def scale_join(workdir: str) -> dict:
    workload = ScaleJoin(workdir)
    workload.setup()
    try:
        spill_dir = os.path.join(workdir, "scale-join-spill")
        join = IncompletenessJoin(
            workload.model, seed=SCALE_JOIN_SEED,
            chunk_size=workload.CHUNK_SIZE, spill_dir=spill_dir,
        )
        # run() is assemble(walk_chunks(chunk_tasks())); the handles give
        # each chunk spill's state back.
        outputs = join.walk_chunks(join.chunk_tasks())
        chunks = [_walk_state(output.load().state) for output in outputs]
        completed = join.assemble(outputs)
        result_dir = os.path.join(spill_dir, "result")
        files = {}
        for name in sorted(os.listdir(result_dir)):
            with open(os.path.join(result_dir, name), "rb") as fh:
                files[name] = digest(fh.read())
        rows = completed.num_rows
        key = f"scale-join/seed{SCALE_JOIN_SEED}"
        return {key: digest(rows, _completed(completed), chunks, files)}
    finally:
        workload.teardown()


def main() -> None:
    digests = {}
    with tempfile.TemporaryDirectory(prefix="same-bits-") as workdir:
        for part in (cold_query, live_refresh, scale_join):
            digests.update(part(workdir))
    print(json.dumps({"count": len(digests), "digests": digests},
                     sort_keys=True))


if __name__ == "__main__":
    main()
