"""The Adam update and gradient clipping, on plain ndarrays.

The fused float32 runtime (:mod:`repro.runtime.training`) drives both on
its flat parameter buffer; moment buffers take the parameters' dtype, so
the float64 gradcheck buffers get float64 state.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


class AdamArrays:
    """Adam (Kingma & Ba) with bias correction, operating on plain ndarrays.

    Holds the first/second-moment state for a fixed list of parameter
    arrays (moment buffers match each parameter's dtype, so a float32
    parameter buffer gets float32 state).  ``step`` updates the parameter
    arrays in place; a ``None`` gradient skips that parameter but the step
    count still advances, matching the classic per-optimizer bias
    correction.
    """

    def __init__(self, parameters: Sequence[np.ndarray], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p) for p in parameters]
        self._v = [np.zeros_like(p) for p in parameters]
        self._scratch = [np.empty_like(p) for p in parameters]

    def step(
        self,
        parameters: Sequence[np.ndarray],
        gradients: Sequence[Optional[np.ndarray]],
    ) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for param, grad, m, v, scratch in zip(
            parameters, gradients, self._m, self._v, self._scratch
        ):
            if grad is None:
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * param
            # Classic Adam, phrased as in-place updates through one scratch
            # buffer — the flat-buffer training path calls this every
            # mini-batch, so intermediate allocations matter.
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=scratch)
            m += scratch
            v *= self.beta2
            np.multiply(grad, grad, out=scratch)
            scratch *= 1.0 - self.beta2
            v += scratch
            np.multiply(v, 1.0 / bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            np.divide(m, scratch, out=scratch)
            scratch *= self.lr / bias1
            param -= scratch


def clip_grad_norm_arrays(
    gradients: Sequence[Optional[np.ndarray]], max_norm: float
) -> float:
    """Scale gradient arrays so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.  ``None`` entries are skipped; scaling
    happens in place.
    """
    grads = [g for g in gradients if g is not None]
    total = float(np.sqrt(sum(
        float(np.dot(g.reshape(-1), g.reshape(-1))) for g in grads
    )))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for grad in grads:
            grad *= np.asarray(scale, dtype=grad.dtype)
    return total
