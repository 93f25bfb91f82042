"""Mini-batch training loop with validation-based early stopping.

The loop is generic over a :class:`TrainStepper`, which owns one
optimization step, held-out evaluation and parameter snapshots.  The
completion models train through
:class:`repro.runtime.training.FusedTrainStepper` (fused float32 kernels
over a flat parameter buffer); the loop itself only schedules batches,
tracks losses and restores the best epoch.

The held-out validation loss doubles as the paper's *model-selection
criterion* (§5, Fig. 5b): models whose attributes are unpredictable from the
evidence show a high test loss and are pruned before completion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..obs import trace


@dataclass
class TrainConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 20
    batch_size: int = 256
    lr: float = 5e-3
    weight_decay: float = 0.0
    val_fraction: float = 0.1
    patience: int = 5
    grad_clip: float = 5.0
    seed: int = 0
    min_epochs: int = 3
    verbose: bool = False


@dataclass
class TrainResult:
    """Loss trajectory and timing of a training run."""

    train_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)
    best_val_loss: float = float("inf")
    epochs_run: int = 0
    wall_time_s: float = 0.0
    val_indices: Optional[np.ndarray] = None
    epoch_wall_times_s: List[float] = field(default_factory=list)
    #: True when training warm-started from already-fitted parameters
    #: (incremental fine-tuning) instead of a fresh initialization.
    warm_start: bool = False

    @property
    def final_train_loss(self) -> float:
        return self.train_losses[-1] if self.train_losses else float("nan")


class TrainStepper:
    """Step/evaluate/snapshot over a fixed model, driven by :func:`train`.

    ``step`` performs a full optimization step (forward, backward, clip,
    update) on a batch of example indices and returns the batch loss;
    ``evaluate`` returns the mean held-out per-example NLL; ``snapshot`` /
    ``restore`` capture and reinstate the current parameters (opaque to the
    loop — each stepper chooses its own representation); ``finalize`` runs
    once after training, e.g. to write a float32 buffer back into the
    module's float64 parameters.
    """

    def step(self, indices: np.ndarray) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def evaluate(self, indices: np.ndarray) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def snapshot(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def restore(self, state) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def finalize(self) -> None:
        return None


def batch_bounds(num_rows: int, batch_size: int) -> List[Tuple[int, int]]:
    """Mini-batch ``[start, stop)`` bounds covering all ``num_rows`` rows.

    A trailing remainder of fewer than 2 rows is folded into the previous
    batch (when one exists) instead of being dropped, so every training row
    contributes each epoch — the old loop silently skipped a 1-row
    remainder, starving ``len(train) % batch_size == 1`` workloads of one
    example per epoch.
    """
    bounds = list(range(0, num_rows, batch_size)) + [num_rows]
    if len(bounds) >= 3 and bounds[-1] - bounds[-2] < 2:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def train(
    stepper: TrainStepper,
    num_examples: int,
    config: Optional[TrainConfig] = None,
) -> TrainResult:
    """Train through ``stepper`` on mini-batches of example indices.

    Parameters
    ----------
    stepper:
        Owns the model: one optimization step per index batch, held-out
        evaluation and best-epoch snapshots.
    num_examples:
        Total number of training rows; indices ``0 .. num_examples-1`` are
        split into train/validation once, deterministically from the seed.
    config:
        Training hyper-parameters; defaults are tuned for the scaled-down
        reproduction datasets.

    Returns
    -------
    TrainResult with the loss history and per-epoch wall times; the
    stepper's parameters are restored to the best-validation epoch (early
    stopping with patience).
    """
    cfg = config or TrainConfig()
    if num_examples < 2:
        raise ValueError("need at least 2 examples to train")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(num_examples)
    num_val = max(1, int(num_examples * cfg.val_fraction)) if cfg.val_fraction > 0 else 0
    val_idx, train_idx = order[:num_val], order[num_val:]
    if len(train_idx) == 0:
        train_idx, val_idx = order, order

    result = TrainResult()
    best_state = None
    epochs_without_improvement = 0
    started = time.perf_counter()

    for epoch in range(cfg.epochs):
        epoch_started = time.perf_counter()
        with trace("train.epoch", epoch=epoch) as span:
            perm = rng.permutation(train_idx)
            epoch_loss = 0.0
            batches = 0
            for start, stop in batch_bounds(len(perm), cfg.batch_size):
                epoch_loss += stepper.step(perm[start:stop])
                batches += 1
            train_loss = epoch_loss / max(batches, 1)
            result.train_losses.append(train_loss)
            result.epochs_run = epoch + 1

            val_loss = stepper.evaluate(val_idx) if num_val else train_loss
            result.val_losses.append(val_loss)
            span.set("batches", batches)
            span.set("train_loss", round(train_loss, 6))
            span.set("val_loss", round(val_loss, 6))
        result.epoch_wall_times_s.append(time.perf_counter() - epoch_started)
        if cfg.verbose:
            print(f"epoch {epoch + 1:3d}  train {train_loss:.4f}  val {val_loss:.4f}")

        if val_loss < result.best_val_loss - 1e-6:
            result.best_val_loss = val_loss
            best_state = stepper.snapshot()
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epoch + 1 >= cfg.min_epochs and epochs_without_improvement >= cfg.patience:
                break

    if best_state is not None:
        stepper.restore(best_state)
    stepper.finalize()
    result.wall_time_s = time.perf_counter() - started
    result.val_indices = val_idx
    return result
