"""Float64 graph-engine training (test oracle): Adam, clipping, a stepper.

:class:`OracleStepper` takes the constructor arguments of
:class:`repro.runtime.training.FusedTrainStepper` and trains the same
parameters through the oracle networks, so a test can swap it in for the
stepper ``fit`` builds (:func:`oracle_training`) and compare an
oracle-trained twin with the production run.  The Adam update itself is the
production :class:`~repro.nn.optim.AdamArrays`.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, List

import numpy as np

import repro.core.models
from repro.nn import AdamArrays, Module, TrainConfig, TrainStepper, clip_grad_norm_arrays

from .networks import OracleMADE, OracleTreeEncoder, parameters
from .tensor import Tensor


class Adam:
    """Adam over oracle :class:`Tensor` parameters (``AdamArrays`` update)."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.parameters: List[Tensor] = [p for p in parameters if p.requires_grad]
        if not self.parameters:
            raise ValueError("optimizer received no trainable parameters")
        self._arrays = AdamArrays(
            [p.data for p in self.parameters],
            lr=lr, betas=betas, eps=eps, weight_decay=weight_decay,
        )

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:
        self._arrays.step(
            [p.data for p in self.parameters],
            [p.grad for p in self.parameters],
        )


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    return clip_grad_norm_arrays([p.grad for p in parameters], max_norm)


class OracleStepper(TrainStepper):
    """Trains a completion model (``.made`` and, for SSAR, ``.tree_encoder``)
    on its training matrix through the float64 graph engine."""

    def __init__(
        self,
        model: Module,
        matrix: np.ndarray,
        variable_weights: Dict[int, np.ndarray],
        config: TrainConfig,
    ):
        self.model = model
        self.matrix = matrix
        self.variable_weights = variable_weights
        self.grad_clip = config.grad_clip
        params = parameters(model)
        self.made = OracleMADE(model.made, params, "made.")
        tree = getattr(model, "tree_encoder", None)
        self.tree = None if tree is None else OracleTreeEncoder(tree, params, "tree_encoder.")
        self.optimizer = Adam(
            params.values(), lr=config.lr, weight_decay=config.weight_decay
        )

    def _context(self, indices: np.ndarray):
        if self.tree is None:
            return None
        batches, batch_size = self.model._context_batches(indices)
        return self.tree(batches, batch_size)

    def step(self, indices: np.ndarray) -> float:
        self.optimizer.zero_grad()
        loss = self.made.nll(
            self.matrix[indices], context=self._context(indices),
            variable_weights={v: w[indices] for v, w in self.variable_weights.items()},
        )
        loss.backward()
        clip_grad_norm(self.optimizer.parameters, self.grad_clip)
        self.optimizer.step()
        return loss.item()

    def evaluate(self, indices: np.ndarray) -> float:
        context = self._context(indices)
        return float(self.made.per_example_nll(self.matrix[indices], context).mean())

    def snapshot(self):
        return self.model.state_dict()

    def restore(self, state) -> None:
        self.model.load_state_dict(state)


def holder(**modules: Module) -> Module:
    """A module whose attributes are ``modules`` (e.g. ``made=``,
    ``tree_encoder=``): the shape a stepper or buffer expects."""
    module = Module()
    module.__dict__.update(modules)
    return module


@contextlib.contextmanager
def oracle_training():
    """Within the block, ``fit`` trains through :class:`OracleStepper`."""
    models = repro.core.models
    fused = models.FusedTrainStepper
    models.FusedTrainStepper = OracleStepper
    try:
        yield
    finally:
        models.FusedTrainStepper = fused
