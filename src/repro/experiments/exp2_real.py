"""Exp. 2 — data completion on the real-world schemas (Fig. 7a/7b).

For every completion setup H1–H5 / M1–M5, sweep keep rate × removal
correlation, complete with every candidate model and report the best
model's bias reduction (Fig. 7a) and cardinality correction (Fig. 7b).
The per-candidate evaluations are retained — Exp. 4 (Fig. 9/10) reuses
them for the AR-vs-SSAR and model-selection analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import ReStore
from ..incomplete import registry
from ..metrics import cardinality_correction
from ..workloads import ALL_SETUPS, base_database
from .common import (
    ExperimentConfig,
    SetupEvaluation,
    evaluate_candidates,
    run_setup_cell,
)


@dataclass
class Fig7Row:
    """One cell of the Fig. 7 grids (best candidate per cell)."""

    setup: str
    keep_rate: float
    removal_correlation: float
    bias_reduction: float
    cardinality_correction: float
    best_model: str
    candidates: List[SetupEvaluation] = field(default_factory=list)


def run_fig7(
    setups: Optional[Sequence[str]] = None,
    experiment: Optional[ExperimentConfig] = None,
) -> List[Fig7Row]:
    """Fig. 7a/7b sweep over the requested setups (default: all ten)."""
    experiment = experiment or ExperimentConfig.default()
    names = list(setups) if setups is not None else list(ALL_SETUPS)
    rows: List[Fig7Row] = []
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
                engine, dataset = run_setup_cell(
                    setup, keep, corr, experiment, db=db
                )
                evaluations = evaluate_candidates(
                    engine, dataset, setup, keep, corr
                )
                # "Optimal model and path selection" (§7.2): report the best
                # candidate per metric, as the paper plots each metric under
                # optimal selection.
                best = max(
                    evaluations,
                    key=lambda e: (np.nan_to_num(e.bias_reduction, nan=-10.0)),
                )
                best_card = max(
                    evaluations,
                    key=lambda e: np.nan_to_num(e.cardinality_correction, nan=-10.0),
                )
                rows.append(Fig7Row(
                    setup=name,
                    keep_rate=keep,
                    removal_correlation=corr,
                    bias_reduction=best.bias_reduction,
                    cardinality_correction=best_card.cardinality_correction,
                    best_model=f"{best.model_kind}:{best.path}",
                    candidates=evaluations,
                ))
    return rows


@dataclass
class ScenarioMatrixRow:
    """Completion quality of one registry scenario (best candidate)."""

    scenario: str
    dataset: str
    mechanisms: str
    target: str
    keep_rate: float
    true_cardinality: int
    incomplete_cardinality: int
    completed_cardinality: float
    cardinality_correction: float


def run_scenario_matrix(
    scenarios: Optional[Sequence[str]] = None,
    experiment: Optional[ExperimentConfig] = None,
    keep_rate: float = 0.5,
) -> List[ScenarioMatrixRow]:
    """Sweep the named scenario matrix of :mod:`repro.incomplete.registry`.

    For every registry scenario (default: all of them), instantiate the
    incomplete dataset, fit the engine on the scenario's primary target and
    report how well the completion restores the target's cardinality.  This
    is the experiment-side consumer of the registry: new scenarios join the
    sweep by registration, without touching experiment code.
    """
    experiment = experiment or ExperimentConfig.default()
    names = list(scenarios) if scenarios is not None else registry.names()
    rows: List[ScenarioMatrixRow] = []
    db_cache: Dict[str, object] = {}
    for name in names:
        entry = registry.get(name)
        if entry.dataset not in db_cache:
            db_cache[entry.dataset] = base_database(
                entry.dataset, seed=experiment.seed, scale=experiment.scale
            )
        db = db_cache[entry.dataset]
        scenario = entry.build(keep_rate=keep_rate)
        dataset = scenario.instantiate(db, seed=experiment.seed)
        target = scenario.primary_table
        engine = ReStore.from_dataset(dataset, experiment.engine_config())
        engine.fit(targets=[target])
        best = engine.candidates(target)[0]
        completed = engine.completed_join(best.model)
        projected = engine.project_to_tables(completed, (target,), ())
        completed_card = float(projected.effective_weights().sum())
        true_card = len(db.table(target))
        incomplete_card = len(dataset.incomplete.table(target))
        rows.append(ScenarioMatrixRow(
            scenario=name,
            dataset=entry.dataset,
            mechanisms="+".join(entry.mechanisms),
            target=target,
            keep_rate=keep_rate,
            true_cardinality=true_card,
            incomplete_cardinality=incomplete_card,
            completed_cardinality=completed_card,
            cardinality_correction=cardinality_correction(
                true_card, incomplete_card, completed_card
            ),
        ))
    return rows


def print_scenario_matrix(rows: Sequence[ScenarioMatrixRow]) -> None:
    print(f"{'scenario':26s} {'mechanisms':22s} {'target':10s} "
          f"{'true':>6s} {'incomp':>7s} {'completed':>10s} {'corr':>7s}")
    for row in rows:
        print(f"{row.scenario:26s} {row.mechanisms:22s} {row.target:10s} "
              f"{row.true_cardinality:6d} {row.incomplete_cardinality:7d} "
              f"{row.completed_cardinality:10.1f} "
              f"{row.cardinality_correction:7.1%}")


def summarize_fig7(rows: Sequence[Fig7Row]) -> Dict[str, Dict[str, float]]:
    """Per-setup mean bias reduction and cardinality correction."""
    summary: Dict[str, Dict[str, float]] = {}
    for setup in sorted({r.setup for r in rows}):
        mine = [r for r in rows if r.setup == setup]
        reductions = [r.bias_reduction for r in mine
                      if not np.isnan(r.bias_reduction)]
        corrections = [r.cardinality_correction for r in mine
                       if not np.isnan(r.cardinality_correction)]
        summary[setup] = {
            "bias_reduction": float(np.mean(reductions)) if reductions else float("nan"),
            "cardinality_correction": (
                float(np.mean(corrections)) if corrections else float("nan")
            ),
            "cells": float(len(mine)),
        }
    return summary


def print_fig7(rows: Sequence[Fig7Row]) -> None:
    """Paper-style series: one line per (setup, keep rate) over correlations."""
    print(f"{'setup':6s} {'keep':>5s} " + " ".join(
        f"corr={c:.1f}" for c in sorted({r.removal_correlation for r in rows})
    ))
    for setup in sorted({r.setup for r in rows}):
        for keep in sorted({r.keep_rate for r in rows}):
            cells = sorted(
                (r for r in rows if r.setup == setup and r.keep_rate == keep),
                key=lambda r: r.removal_correlation,
            )
            if not cells:
                continue
            series = " ".join(f"{r.bias_reduction:8.1%}" for r in cells)
            print(f"{setup:6s} {keep:5.0%} {series}")
