"""Shared test helpers (imported absolutely — the tests dir is not a package).

The float64 reference engine the fused runtime is checked against lives
next to them, in the ``oracle`` package.
"""

import numpy as np


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar-valued fn w.r.t. array x."""
    grad = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def numeric_grad_arrays(fn, arrays, eps: float = 1e-6):
    """Finite-difference gradients of a thunk w.r.t. several arrays.

    ``fn`` takes no arguments and reads the ``arrays`` in place (the
    gradcheck harness points it at live parameter buffers); each array is
    perturbed entry by entry with central differences.  Returns one
    gradient array per input, aligned by position.
    """
    grads = []
    for array in arrays:
        grad = np.zeros_like(array, dtype=float)
        flat = array.reshape(-1)
        grad_flat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = fn()
            flat[i] = orig - eps
            down = fn()
            flat[i] = orig
            grad_flat[i] = (up - down) / (2 * eps)
        grads.append(grad)
    return grads


def relative_grad_error(actual: np.ndarray, reference: np.ndarray) -> float:
    """Max absolute deviation, scaled by the reference gradient's magnitude.

    The gradcheck tolerance of the fused-vs-oracle parity suite: a flat
    1e-12 floor keeps all-zero reference gradients comparable.
    """
    scale = max(float(np.abs(reference).max()), 1e-12)
    return float(np.abs(np.asarray(actual) - np.asarray(reference)).max()) / scale
