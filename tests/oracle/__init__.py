"""The float64 reference engine the fused float32 runtime is checked against.

Test-only: nothing under ``src/`` imports it.  It holds the graph engine
(:class:`Tensor`, :mod:`functional`), graph forwards of the two networks
that read a production module's parameters by name, and the training
pieces that drive them (:class:`Adam`, :class:`OracleStepper`).  The
gradcheck and parity suites compare the fused kernels against it.
"""

from . import functional
from .networks import OracleMADE, OracleTreeEncoder, parameters
from .tensor import Tensor, concat
from .training import Adam, OracleStepper, clip_grad_norm, holder, oracle_training

__all__ = [
    "Tensor",
    "concat",
    "functional",
    "parameters",
    "OracleMADE",
    "OracleTreeEncoder",
    "Adam",
    "clip_grad_norm",
    "OracleStepper",
    "holder",
    "oracle_training",
]
