"""Exp. 4 — accuracy and performance aspects (Fig. 9, 10, 11, 12).

* **Fig. 9** — distribution of bias reductions for AR vs SSAR models across
  all setups: neither dominates, motivating model selection.
* **Fig. 10** — bias reduction of (a) every model, (b) the basic-selection
  pick, (c) the pick with the suspected-bias hint.
* **Fig. 11** — training time per model (AR vs SSAR, per dataset).
* **Fig. 12** — completion time per path, with and without nearest-
  neighbour replacement.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import (
    BiasDirection,
    IncompletenessJoin,
    SuspectedBias,
)
from ..relational import ColumnKind
from ..workloads import ALL_SETUPS, base_database
from .common import (
    ExperimentConfig,
    biased_value_of,
    evaluate_candidates,
    run_setup_cell,
)
from .exp2_real import Fig7Row


# ----------------------------------------------------------------------
# Fig. 9 — AR vs SSAR distributions
# ----------------------------------------------------------------------

def fig9_ar_vs_ssar(rows: Sequence[Fig7Row]) -> Dict[str, Dict[str, List[float]]]:
    """Bias-reduction samples per setup, split by model kind.

    Accepts the Fig. 7 rows (which retain per-candidate evaluations) so the
    sweep is not recomputed.
    """
    out: Dict[str, Dict[str, List[float]]] = {}
    for row in rows:
        per_kind = out.setdefault(row.setup, {"ar": [], "ssar": []})
        for evaluation in row.candidates:
            if not np.isnan(evaluation.bias_reduction):
                per_kind.setdefault(evaluation.model_kind, []).append(
                    evaluation.bias_reduction
                )
    return out


def print_fig9(distributions: Dict[str, Dict[str, List[float]]]) -> None:
    print(f"{'setup':6s} {'AR mean':>9s} {'SSAR mean':>10s} {'winner':>7s}")
    for setup, kinds in sorted(distributions.items()):
        ar = float(np.mean(kinds["ar"])) if kinds.get("ar") else float("nan")
        ssar = float(np.mean(kinds["ssar"])) if kinds.get("ssar") else float("nan")
        winner = "-"
        if not (np.isnan(ar) or np.isnan(ssar)):
            winner = "AR" if ar > ssar else "SSAR"
        print(f"{setup:6s} {ar:9.1%} {ssar:10.1%} {winner:>7s}")


# ----------------------------------------------------------------------
# Fig. 10 — model-selection quality
# ----------------------------------------------------------------------

@dataclass
class Fig10Row:
    setup: str
    keep_rate: float
    removal_correlation: float
    all_models: List[float]
    selected: float
    selected_with_hint: float
    best_possible: float


def run_fig10(
    setups: Optional[Sequence[str]] = None,
    experiment: Optional[ExperimentConfig] = None,
) -> List[Fig10Row]:
    """Compare all models vs basic selection vs selection with the hint."""
    experiment = experiment or ExperimentConfig.default()
    names = list(setups) if setups is not None else list(ALL_SETUPS)
    rows: List[Fig10Row] = []
    db_cache: Dict[str, object] = {}
    for name in names:
        setup = ALL_SETUPS[name]
        if setup.dataset not in db_cache:
            db_cache[setup.dataset] = base_database(
                setup.dataset, seed=experiment.seed, scale=experiment.scale
            )
        db = db_cache[setup.dataset]
        for keep in experiment.keep_rates:
            for corr in experiment.removal_correlations:
                engine, dataset = run_setup_cell(setup, keep, corr, experiment,
                                                 db=db)
                evaluations = evaluate_candidates(engine, dataset, setup, keep, corr)
                by_key = {
                    (e.model_kind, e.path): e.bias_reduction for e in evaluations
                }

                target = setup.incomplete_table
                chosen = engine.select_model(target)
                selected = by_key.get(
                    (chosen.model.kind, str(chosen.path)), float("nan")
                )

                hint = _suspected_bias_for(dataset, setup)
                chosen_hint = engine.select_model(target, suspected_bias=hint)
                selected_hint = by_key.get(
                    (chosen_hint.model.kind, str(chosen_hint.path)), float("nan")
                )

                valid = [v for v in by_key.values() if not np.isnan(v)]
                rows.append(Fig10Row(
                    setup=name, keep_rate=keep, removal_correlation=corr,
                    all_models=valid,
                    selected=selected,
                    selected_with_hint=selected_hint,
                    best_possible=max(valid) if valid else float("nan"),
                ))
    return rows


def _suspected_bias_for(dataset, setup) -> SuspectedBias:
    """The oracle-ish hint a practitioner would provide: the direction the
    incomplete aggregate deviates from the (suspected) truth."""
    target = setup.incomplete_table
    attribute = setup.biased_attribute
    complete = dataset.complete.table(target)
    incomplete = dataset.incomplete.table(target)
    if complete.meta(attribute).kind is ColumnKind.CATEGORICAL:
        value = biased_value_of(dataset.complete, target, attribute)
        true_stat = float(np.mean(complete[attribute] == value))
        inc_stat = float(np.mean(incomplete[attribute] == value))
        direction = (BiasDirection.UNDERESTIMATED if inc_stat < true_stat
                     else BiasDirection.OVERESTIMATED)
        return SuspectedBias(attribute, direction, value=value)
    true_stat = float(np.mean(complete[attribute].astype(float)))
    inc_stat = float(np.mean(incomplete[attribute].astype(float)))
    direction = (BiasDirection.UNDERESTIMATED if inc_stat < true_stat
                 else BiasDirection.OVERESTIMATED)
    return SuspectedBias(attribute, direction)


def print_fig10(rows: Sequence[Fig10Row]) -> None:
    print(f"{'setup':6s} {'mean(all)':>10s} {'selected':>9s} "
          f"{'w/ hint':>9s} {'best':>9s}")
    for setup in sorted({r.setup for r in rows}):
        mine = [r for r in rows if r.setup == setup]
        all_vals = [v for r in mine for v in r.all_models]
        sel = [r.selected for r in mine if not np.isnan(r.selected)]
        hint = [r.selected_with_hint for r in mine
                if not np.isnan(r.selected_with_hint)]
        best = [r.best_possible for r in mine if not np.isnan(r.best_possible)]
        print(f"{setup:6s} {np.mean(all_vals):10.1%} {np.mean(sel):9.1%} "
              f"{np.mean(hint):9.1%} {np.mean(best):9.1%}")


# ----------------------------------------------------------------------
# Fig. 11 / Fig. 12 — training and completion time
# ----------------------------------------------------------------------

@dataclass
class TimingRow:
    dataset: str
    setup: str
    model_kind: str
    path: str
    train_seconds: float
    completion_seconds: float
    completion_with_replacement_seconds: float


def _timed_completion(model, seed: int, repeats: int = 3,
                      replace_synthesized: bool = True,
                      n_workers: int = 1, parallel_backend: str = "serial"):
    """Best-of-``repeats`` incompleteness-join wall time (plus the join).

    Completion on the float32 runtime is milliseconds-scale, where a single
    scheduler hiccup or garbage-collection pause would dominate a one-shot
    measurement; every timing in this module goes through this helper so the
    methodology stays uniform.  Parallel runs pay their full cost inside the
    timer — pool start-up, payload shipping, merging — so speedups are
    end-to-end, not kernel-only.
    """
    best = float("inf")
    completed = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            completed = IncompletenessJoin(
                model, replace_synthesized=replace_synthesized, seed=seed,
                n_workers=n_workers, parallel_backend=parallel_backend,
            ).run()
            best = min(best, time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, completed


def run_timings(
    setups: Optional[Sequence[str]] = None,
    experiment: Optional[ExperimentConfig] = None,
) -> List[TimingRow]:
    """Fig. 11 (training time) and Fig. 12 (completion time ± replacement)."""
    experiment = experiment or ExperimentConfig.default()
    names = list(setups) if setups is not None else ["H1", "H4", "M1", "M5"]
    rows: List[TimingRow] = []
    for name in names:
        setup = ALL_SETUPS[name]
        keep = experiment.keep_rates[0]
        corr = experiment.removal_correlations[0]
        engine, dataset = run_setup_cell(setup, keep, corr, experiment)
        for candidate in engine.candidates(setup.incomplete_table):
            model = candidate.model
            train_time = (model.train_result.wall_time_s
                          if model.train_result else float("nan"))

            plain, _ = _timed_completion(
                model, experiment.seed, replace_synthesized=False
            )
            with_replacement, _ = _timed_completion(model, experiment.seed)

            rows.append(TimingRow(
                dataset=setup.dataset, setup=name, model_kind=model.kind,
                path=str(model.layout.path),
                train_seconds=train_time,
                completion_seconds=plain,
                completion_with_replacement_seconds=with_replacement,
            ))
    return rows


def print_timings(rows: Sequence[TimingRow]) -> None:
    print(f"{'setup':6s} {'kind':5s} {'train s':>8s} {'complete s':>11s} "
          f"{'(+NN repl) s':>13s}  path")
    for row in rows:
        print(f"{row.setup:6s} {row.model_kind:5s} {row.train_seconds:8.2f} "
              f"{row.completion_seconds:11.3f} "
              f"{row.completion_with_replacement_seconds:13.3f}  {row.path}")


# ----------------------------------------------------------------------
# Worker-scaling curve (parallel sharded completion throughput)
# ----------------------------------------------------------------------

@dataclass
class WorkerScalingRow:
    """Completion throughput of one executor configuration.

    ``identical_rows`` certifies that this configuration produced bitwise
    the same completed rows (up to order) as the serial baseline — the
    determinism contract of the sharded incompleteness join.
    """

    dataset: str
    setup: str
    model_kind: str
    path: str
    backend: str
    n_workers: int
    seconds: float
    rows_per_second: float
    speedup: float
    completed_rows: int
    identical_rows: bool

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "setup": self.setup,
            "model_kind": self.model_kind,
            "path": self.path,
            "backend": self.backend,
            "n_workers": self.n_workers,
            "seconds": self.seconds,
            "rows_per_second": self.rows_per_second,
            "speedup": self.speedup,
            "completed_rows": self.completed_rows,
            "identical_rows": self.identical_rows,
        }


def canonical_rows(completed):
    """Columns + weights sorted into a content-defined row order."""
    columns = completed.result.columns
    names = sorted(columns)
    weights = completed.result.effective_weights()
    order = np.lexsort(
        tuple(np.asarray(columns[name]) for name in names) + (weights,)
    )
    return (
        {name: np.asarray(columns[name])[order] for name in names},
        weights[order],
    )


def joins_bitwise_identical(a, b) -> bool:
    """Same completed rows, bitwise, up to row order."""
    if a.num_rows != b.num_rows:
        return False
    cols_a, w_a = canonical_rows(a)
    cols_b, w_b = canonical_rows(b)
    if set(cols_a) != set(cols_b):
        return False
    return (
        all(np.array_equal(cols_a[k], cols_b[k]) for k in cols_a)
        and np.array_equal(w_a, w_b)
    )


def run_worker_scaling(
    setups: Optional[Sequence[str]] = None,
    experiment: Optional[ExperimentConfig] = None,
    n_workers: Sequence[int] = (1, 2, 4),
    backends: Sequence[str] = ("thread", "process"),
    repeats: int = 3,
    min_scale: float = 48.0,
    max_epochs: int = 6,
) -> List[WorkerScalingRow]:
    """Completion throughput for serial vs thread/process worker counts.

    One AR model per setup (the curve measures the executor, not the model
    zoo — and the model architecture is scale-independent, so training is
    deliberately kept short via ``max_epochs`` while ``min_scale`` floors
    the *database* size: sharding a 50-row walk would measure pool start-up,
    not completion throughput).  Every parallel configuration is also
    checked for bitwise row identity against the serial baseline, so the
    benchmark doubles as a determinism audit.
    """
    experiment = experiment or ExperimentConfig.default()
    experiment = replace(
        experiment,
        scale=max(experiment.scale, min_scale),
        epochs=min(experiment.epochs, max_epochs),
    )
    names = list(setups) if setups is not None else ["H4"]
    rows: List[WorkerScalingRow] = []
    for name in names:
        setup = ALL_SETUPS[name]
        keep = experiment.keep_rates[0]
        corr = experiment.removal_correlations[0]
        engine, dataset = run_setup_cell(setup, keep, corr, experiment,
                                         use_ssar=False)
        model = engine.candidates(setup.incomplete_table)[0].model

        serial_s, serial_join = _timed_completion(model, experiment.seed, repeats)
        num_rows = serial_join.num_rows
        rows.append(WorkerScalingRow(
            dataset=setup.dataset, setup=name, model_kind=model.kind,
            path=str(model.layout.path), backend="serial", n_workers=1,
            seconds=serial_s, rows_per_second=num_rows / max(serial_s, 1e-12),
            speedup=1.0, completed_rows=num_rows, identical_rows=True,
        ))
        for backend in backends:
            for workers in n_workers:
                seconds, join = _timed_completion(
                    model, experiment.seed, repeats,
                    n_workers=workers, parallel_backend=backend,
                )
                rows.append(WorkerScalingRow(
                    dataset=setup.dataset, setup=name, model_kind=model.kind,
                    path=str(model.layout.path), backend=backend,
                    n_workers=workers, seconds=seconds,
                    rows_per_second=join.num_rows / max(seconds, 1e-12),
                    speedup=serial_s / max(seconds, 1e-12),
                    completed_rows=join.num_rows,
                    identical_rows=joins_bitwise_identical(serial_join, join),
                ))
    return rows


def print_worker_scaling(rows: Sequence[WorkerScalingRow]) -> None:
    print(f"{'setup':6s} {'kind':5s} {'backend':8s} {'workers':>7s} "
          f"{'seconds':>9s} {'rows/s':>10s} {'speedup':>8s} {'same rows':>9s}")
    for row in rows:
        print(f"{row.setup:6s} {row.model_kind:5s} {row.backend:8s} "
              f"{row.n_workers:7d} {row.seconds:9.3f} "
              f"{row.rows_per_second:10.0f} {row.speedup:7.2f}x "
              f"{str(row.identical_rows):>9s}")
