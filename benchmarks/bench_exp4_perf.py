"""Exp. 4 benches — Fig. 9 (AR vs SSAR), Fig. 10 (selection quality),
Fig. 11 (training time), Fig. 12 (completion time ± NN replacement),
plus runtime tracking: the parallel worker-scaling curve."""

import os

import numpy as np

from repro.experiments import (
    fig9_ar_vs_ssar,
    print_fig9,
    print_fig10,
    print_timings,
    print_worker_scaling,
    run_fig7,
    run_fig10,
    run_timings,
    run_worker_scaling,
)

from conftest import run_once

SETUPS = ["H1", "H4", "M1"]


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_fig9_ar_vs_ssar(benchmark, experiment_config):
    """Fig. 9: neither AR nor SSAR dominates across setups."""
    rows = run_once(benchmark, run_fig7, SETUPS, experiment_config)
    distributions = fig9_ar_vs_ssar(rows)
    print()
    print_fig9(distributions)
    # Both model families produce results on every setup that has fan-out
    # evidence; distributions overlap (no family always wins by a margin).
    assert any(d["ar"] for d in distributions.values())
    assert any(d["ssar"] for d in distributions.values())


def test_fig10_model_selection(benchmark, experiment_config):
    """Fig. 10: selection tracks the best model; the hint tracks it closely."""
    rows = run_once(benchmark, run_fig10, ["H1", "M1"], experiment_config)
    print()
    print_fig10(rows)
    sel = [r.selected for r in rows if not np.isnan(r.selected)]
    hint = [r.selected_with_hint for r in rows
            if not np.isnan(r.selected_with_hint)]
    all_means = [np.mean(r.all_models) for r in rows if r.all_models]
    # The selected model beats the average over all models, and the hint
    # does not hurt.
    assert np.mean(sel) >= np.mean(all_means) - 0.10
    assert np.mean(hint) >= np.mean(sel) - 0.10


def test_fig11_training_time(benchmark, experiment_config):
    """Fig. 11: AR trains faster than SSAR (per model, per dataset)."""
    rows = run_once(benchmark, run_timings, ["H1", "M1"], experiment_config)
    print()
    print_timings(rows)
    by_kind = {}
    for row in rows:
        by_kind.setdefault(row.model_kind, []).append(row.train_seconds)
    if "ar" in by_kind and "ssar" in by_kind:
        assert np.mean(by_kind["ar"]) < np.mean(by_kind["ssar"]) * 1.5
    assert all(t > 0 for ts in by_kind.values() for t in ts)


def test_worker_scaling(benchmark, experiment_config):
    """Parallel sharded completion: throughput for 1/2/4 workers per backend.

    Emits the full scaling curve into the benchmark JSON (``extra_info``) so
    CI archives the per-commit trajectory.  Two assertions:

    * every configuration reproduces the serial rows bitwise (up to order) —
      always enforced;
    * 4 process workers reach ≥ 2x serial throughput — enforced where the
      hardware can physically show it (≥ 4 usable cores; CI runners
      qualify).  On smaller machines the curve is still recorded.
    """
    rows = run_once(benchmark, run_worker_scaling, ["H4"], experiment_config)
    print()
    print_worker_scaling(rows)
    benchmark.extra_info["worker_scaling"] = [r.as_dict() for r in rows]
    benchmark.extra_info["available_cores"] = _available_cores()
    assert all(r.identical_rows for r in rows)
    process4 = [r for r in rows if r.backend == "process" and r.n_workers == 4]
    assert process4
    best = max(r.speedup for r in process4)
    benchmark.extra_info["process4_speedup"] = float(best)
    if _available_cores() >= 4:
        assert best >= 2.0, (
            f"4 process workers reached only {best:.2f}x serial throughput"
        )


def test_fig12_completion_time(benchmark, experiment_config):
    """Fig. 12: completion is seconds-scale; NN replacement adds overhead."""
    rows = run_once(benchmark, run_timings, ["H4"], experiment_config)
    print()
    print_timings(rows)
    for row in rows:
        assert row.completion_seconds > 0
        # Replacement cannot be (much) cheaper than skipping it.
        assert (row.completion_with_replacement_seconds
                >= row.completion_seconds * 0.5)
