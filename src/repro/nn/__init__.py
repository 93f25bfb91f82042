"""The completion networks' parameters and the training loop.

This package replaces the paper's PyTorch dependency.  It defines the two
architectures ReStore requires — :class:`ResidualMADE` autoregressive
density estimators and :class:`EvidenceTreeEncoder` deep-sets encoders for
fan-out evidence — as named float64 parameters with their MADE masks, plus
the mini-batch training loop and the array Adam update.  The networks'
forward, backward and sampling passes are the fused float32 kernels of
:mod:`repro.runtime.training`.
"""

from .layers import Embedding, Linear, MaskedLinear, Module, Parameter
from .made import ResidualMADE
from .deepsets import EvidenceTreeEncoder, TreeNodeBatch, TreeNodeSpec
from .optim import AdamArrays, clip_grad_norm_arrays
from .train import (
    TrainConfig,
    TrainResult,
    TrainStepper,
    batch_bounds,
    train,
)

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "MaskedLinear",
    "Embedding",
    "ResidualMADE",
    "EvidenceTreeEncoder",
    "TreeNodeSpec",
    "TreeNodeBatch",
    "AdamArrays",
    "clip_grad_norm_arrays",
    "TrainConfig",
    "TrainResult",
    "TrainStepper",
    "batch_bounds",
    "train",
]
