#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

* ``BENCHMARK.json`` names exactly the metrics the code reports.
* Seeded inputs: one seed yields one input stream, a different seed a
  different one (every workload).
* Deterministic counts: for the single-client workloads, two traced runs
  of the same operations at one seed give identical program counts — join
  rows out, synthesized tuples, chunks walked and cached, child-index
  builds, kernel calls and rows.

Prints one line per test and exits non-zero if any fails.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import run

#: Stream items per deterministic-count run: one Table 1 round, a few
#: mutation batches, one streamed join.
COUNT_OPS = {"cold-query": 1, "live-refresh": 4, "scale-join": 1}
STREAM_ITEMS = 50


def check_benchmark_json() -> None:
    from layers import PER_LAYER_UNITS

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END_UNITS, (declared, run.END_TO_END_UNITS)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == PER_LAYER_UNITS, set(declared) ^ set(PER_LAYER_UNITS)


def check_seeded_inputs(workload) -> None:
    def head(seed: int) -> str:
        return repr(list(itertools.islice(workload.stream(seed), STREAM_ITEMS)))

    assert head(1) == head(1), "one seed gave two input streams"
    assert head(1) != head(2), "two seeds gave one input stream"


def traced_counts(workload, seed: int, ops: int) -> dict:
    import repro.obs
    from layers import KERNEL_METRICS, Patch, Recorder
    from workloads import Phase

    recorder = Recorder()
    recorder.phase = "timed"
    patch = Patch(recorder)
    before = workload.counters()
    patch.install()
    try:
        with repro.obs.profile_kernels() as kernels:
            workload.measure(float("inf"),
                             itertools.islice(workload.stream(seed), ops),
                             Phase(recorder))
    finally:
        patch.restore()
    after = workload.counters()
    counts = {name: recorder.count("timed", name) for name in
              ("join.rows_out", "join.synthesized_rows", "join.chunks_walked")}
    counts["forest.build_child_index.calls"] = recorder.total(
        "timed", "forest.build_child_index")[0]
    counts["cache.partial.hits"] = (after.get("cache.partial.hits", 0)
                                    - before.get("cache.partial.hits", 0))
    snapshot = kernels.snapshot()
    for kernel in {k for _metric, k, _field in KERNEL_METRICS}:
        entry = snapshot.get(kernel, {})
        counts[f"kernel.{kernel}.calls"] = entry.get("calls", 0)
        counts[f"kernel.{kernel}.rows"] = entry.get("rows", 0)
    return counts


def main() -> int:
    run.configure_environment()
    from workloads import WORKLOADS

    workdir = run.make_workdir(f"selftest-{os.getpid()}")
    failures = 0

    def test(name: str, fn, *args) -> None:
        nonlocal failures
        try:
            fn(*args)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")

    try:
        test("BENCHMARK.json metrics", check_benchmark_json)
        for name, cls in WORKLOADS.items():
            workload = cls(workdir)
            workload.setup()
            try:
                test(f"{name} seeded inputs", check_seeded_inputs, workload)
            finally:
                workload.teardown()
        for name, ops in COUNT_OPS.items():
            runs = []
            for _ in range(2):
                workload = WORKLOADS[name](workdir)
                workload.setup()
                try:
                    runs.append(traced_counts(workload, 1, ops))
                finally:
                    workload.teardown()

            def same(first=runs[0], second=runs[1]) -> None:
                assert first == second, {k: (first[k], second.get(k))
                                         for k in first
                                         if first[k] != second.get(k)}
                assert first["join.rows_out"] > 0, first

            test(f"{name} deterministic counts", same)
    finally:
        run.remove_workdir(workdir)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
