"""Shared experiment scaffolding: configs, per-setup evaluation helpers.

All experiment runners accept an :class:`ExperimentConfig`; the default is
sized for CPU-only smoke runs (a few minutes for the full bench suite).
Setting the environment variable ``RESTORE_BENCH_FULL=1`` switches to the
paper's full parameter grid.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core import ModelConfig, ReStore, ReStoreConfig
from ..incomplete import IncompleteDataset
from ..metrics import (
    bias_reduction,
    cardinality_correction,
    categorical_fraction,
    weighted_average,
)
from ..nn import TrainConfig
from ..relational import ColumnKind, Database
from ..workloads import CompletionSetup, base_database


def full_grid() -> bool:
    """Whether the full paper grid was requested via RESTORE_BENCH_FULL."""
    return os.environ.get("RESTORE_BENCH_FULL", "") == "1"


@dataclass
class ExperimentConfig:
    """Knobs every experiment runner shares."""

    keep_rates: Tuple[float, ...] = (0.4, 0.8)
    removal_correlations: Tuple[float, ...] = (0.2, 0.6)
    scale: float = 0.5
    seed: int = 0
    epochs: int = 15
    hidden: Tuple[int, ...] = (64, 64)
    max_path_length: int = 4

    @classmethod
    def default(cls) -> "ExperimentConfig":
        if full_grid():
            return cls(
                keep_rates=(0.2, 0.4, 0.6, 0.8),
                removal_correlations=(0.2, 0.4, 0.6, 0.8),
                scale=1.0,
                epochs=30,
            )
        return cls()

    def engine_config(self, use_ssar: bool = True) -> ReStoreConfig:
        return ReStoreConfig(
            model=ModelConfig(
                hidden=self.hidden,
                train=TrainConfig(
                    epochs=self.epochs, batch_size=256, lr=5e-3, patience=4,
                    seed=self.seed,
                ),
            ),
            use_ssar=use_ssar,
            max_path_length=self.max_path_length,
            seed=self.seed,
        )


def biased_value_of(db: Database, table: str, attribute: str):
    """The categorical value the removal targets (mode of the true data)."""
    values = db.table(table)[attribute]
    uniques, counts = np.unique(values, return_counts=True)
    return uniques[counts.argmax()]


@dataclass
class SetupEvaluation:
    """Target-level quality of one completion run under one sweep cell."""

    setup: str
    keep_rate: float
    removal_correlation: float
    model_kind: str
    path: str
    bias_reduction: float
    cardinality_correction: float
    true_statistic: float
    incomplete_statistic: float
    completed_statistic: float


def evaluate_candidates(
    engine: ReStore,
    dataset: IncompleteDataset,
    setup: CompletionSetup,
    keep_rate: float,
    removal_correlation: float,
) -> List[SetupEvaluation]:
    """Fig. 7-style statistics for every trained candidate of the setup.

    The biased statistic is the average of the biased attribute (continuous)
    or the fraction of the biased value (categorical), measured on the
    projection of the completed join to the incomplete table.
    """
    target = setup.incomplete_table
    attribute = setup.biased_attribute
    complete_table = dataset.complete.table(target)
    incomplete_table = dataset.incomplete.table(target)
    kind = complete_table.meta(attribute).kind

    if kind is ColumnKind.CATEGORICAL:
        value = biased_value_of(dataset.complete, target, attribute)
        true_stat = categorical_fraction(complete_table[attribute], value)
        inc_stat = categorical_fraction(incomplete_table[attribute], value)
    else:
        value = None
        true_stat = weighted_average(complete_table[attribute])
        inc_stat = weighted_average(incomplete_table[attribute])

    evaluations: List[SetupEvaluation] = []
    for candidate in engine.candidates(target):
        completed = engine.completed_join(candidate.model)
        column = f"{target}.{attribute}"
        projected = engine.project_to_tables(completed, (target,), (column,))
        values = projected.resolve(column)
        weights = projected.effective_weights()
        if value is not None:
            comp_stat = categorical_fraction(values, value, weights)
        else:
            comp_stat = weighted_average(values, weights)
        evaluations.append(
            SetupEvaluation(
                setup=setup.name,
                keep_rate=keep_rate,
                removal_correlation=removal_correlation,
                model_kind=candidate.model.kind,
                path=str(candidate.path),
                bias_reduction=bias_reduction(true_stat, inc_stat, comp_stat),
                cardinality_correction=cardinality_correction(
                    len(complete_table), len(incomplete_table), float(weights.sum())
                ),
                true_statistic=true_stat,
                incomplete_statistic=inc_stat,
                completed_statistic=comp_stat,
            )
        )
    return evaluations


def run_setup_cell(
    setup: CompletionSetup,
    keep_rate: float,
    removal_correlation: float,
    config: ExperimentConfig,
    db: Optional[Database] = None,
    use_ssar: bool = True,
) -> Tuple[ReStore, IncompleteDataset]:
    """Instantiate one sweep cell: removal + engine fit."""
    if db is None:
        db = base_database(setup.dataset, seed=config.seed, scale=config.scale)
    dataset = setup.make(db, keep_rate, removal_correlation, seed=config.seed)
    engine = ReStore.from_dataset(dataset, config.engine_config(use_ssar))
    engine.fit(targets=[setup.incomplete_table])
    return engine, dataset
