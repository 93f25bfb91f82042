#!/usr/bin/env python3
"""One benchmark run: set up a workload, measure it, check its outputs.

    python3 perfbench/run.py --workload cold-query --seed 1 --seconds 15 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), measures it untraced for ``--seconds`` and prints the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` sets up once under tracing,
measures ``--seconds`` untraced and then ``--seconds`` traced over the same
input stream, and prints the per-layer metrics.  Human-readable figures go
to the lines before the last; the last line is the JSON result.  The full
result (with the environment envelope, and the spans when traced) is
written to ``.perfbench_out/`` in the checkout.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
#: BLAS threads per process.  One: on a two-core machine a second BLAS
#: thread competes with the fleet worker, and fit times swing between
#: repeats when the count varies.
BLAS_THREADS = 1
#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: End-to-end metrics (BENCHMARK.json ``end_to_end``) and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def configure_environment() -> None:
    """Pin BLAS threads, keep git inside the checkout, find ``src/``.

    Must run before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # The envelope's git lookup must not wander above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def make_workdir(name: str) -> str:
    """A fresh directory under the checkout for the run's files.

    The program's own temp files (fleet worker sockets) go there too,
    unless the path would push a socket address past the 108-byte
    AF_UNIX limit.
    """
    workdir = os.path.join(TMP_DIR, name)
    os.makedirs(workdir, exist_ok=True)
    if len(workdir) < 64:
        os.environ["TMPDIR"] = workdir
        tempfile.tempdir = None
    return workdir


def remove_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(TMP_DIR)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else float("nan")


def tail_label(count: int) -> str:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (99, 95, 90):
        if count * (100 - q) / 100 >= 10:
            return f"p{q}"
    return "p50"


def latency_report(samples) -> dict:
    """Median and the highest tail percentile each kind of sample supports."""
    out = {}
    for kind, values in sorted(samples.items()):
        if kind == "late":
            continue
        out[f"{kind}_ms.p50"] = percentile(values, 50)
        label = tail_label(len(values))
        out[f"{kind}_ms.{label}"] = percentile(values, float(label[1:]))
        out[f"{kind}_ms.samples"] = len(values)
    return out


def run_timed(workload, seed: int, seconds: float) -> dict:
    import repro.obs
    from workloads import Phase

    setup_s = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
            gc.collect()
        started = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - started)
    gc.collect()        # the timed phase must not pay for the set-ups' garbage
    repro.obs.reset_peak_rss()
    phase = Phase()
    workload.measure(seconds, workload.stream(seed), phase)
    peak_rss = workload.peak_rss_bytes()
    problems = workload.check(phase)
    report = {
        "setup_s.repeats": setup_s,
        "failed_frac": phase.failed / max(1, phase.attempted),
        **latency_report(phase.samples),
        **workload.report(phase),
    }
    metrics = {
        "setup_s": statistics.median(setup_s),
        "op_ms.p50": report[f"{workload.primary}_ms.p50"],
        "ops_per_s": len(phase.samples[workload.primary]) / phase.busy_s,
        "peak_rss_mb": peak_rss / 1e6,
    }
    return {"phase": phase, "problems": problems, "metrics": metrics,
            "units": END_TO_END_UNITS, "report": report}


def run_traced(workload, seed: int, seconds: float, out_stem: str) -> dict:
    import repro.obs
    from layers import PER_LAYER_UNITS, Patch, Recorder, per_layer_metrics
    from workloads import Phase

    recorder = Recorder()
    patch = Patch(recorder)
    patch.install()
    try:
        started = time.perf_counter()
        workload.setup(fork_guard=patch.paused)
        setup_s = time.perf_counter() - started
    finally:
        patch.restore()

    untraced = Phase()
    workload.measure(seconds, workload.stream(seed), untraced)

    recorder.phase = "timed"
    before = workload.counters()
    traced = Phase(recorder)
    patch.install()
    try:
        with repro.obs.profile_kernels() as kernels:
            workload.measure(seconds, workload.stream(seed), traced)
    finally:
        patch.restore()
    after = workload.counters()
    problems = workload.check(traced)

    primary = workload.primary
    untraced_ms = statistics.fmean(untraced.samples[primary])
    traced_ms = statistics.fmean(traced.samples[primary])
    extra = workload.layer_extras(before, after, traced)
    extra["tracing.overhead_frac"] = traced_ms / untraced_ms - 1.0
    metrics = per_layer_metrics(recorder, traced.attempts[primary],
                                kernels.snapshot(), extra)
    recorder.write_spans(f"{out_stem}-spans.jsonl")
    report = {
        "setup_s": setup_s,
        "spans": len(recorder.spans),
        "untraced_op_ms.mean": untraced_ms,
        "traced_op_ms.mean": traced_ms,
        "failed_frac": traced.failed / max(1, traced.attempted),
        **latency_report(traced.samples),
    }
    return {"phase": traced, "problems": problems, "metrics": metrics,
            "units": PER_LAYER_UNITS, "report": report}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    configure_environment()
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import repro.obs
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    out_stem = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workdir = make_workdir(str(os.getpid()))
    workload = WORKLOADS[args.workload](workdir)
    try:
        if args.trace:
            result = run_traced(workload, args.seed, args.seconds, out_stem)
        else:
            result = run_timed(workload, args.seed, args.seconds)
    finally:
        workload.teardown()
        remove_workdir(workdir)

    phase = result["phase"]
    correct = not result["problems"]
    for problem in result["problems"]:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "problems": result["problems"],
        "attempted": phase.attempted,
        "failed": phase.failed,
        "failures": dict(phase.failures),
        "metrics": result["metrics"],
        "report": result["report"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "envelope": repro.obs.bench_envelope(),
    }
    with open(f"{out_stem}.json", "w") as fh:
        json.dump(full, fh, indent=1, default=str)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={full['nproc']} blas_threads={BLAS_THREADS}")
    for name, value in result["report"].items():
        print(f"  {name} = {value}")
    for failure, count in phase.failures.items():
        print(f"  failed x{count}: {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": float(value), "unit": result["units"][name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
