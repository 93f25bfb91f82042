"""Differentiable operations beyond ``Tensor`` methods (test oracle).

These cover the needs of ReStore's completion models:

* :func:`embedding` — row gather from a learned embedding matrix,
* :func:`segment_sum` — sum-pooling of a variable number of child tuples per
  evidence tuple (the deep-sets aggregation of SSAR models),
* :func:`log_softmax` / :func:`cross_entropy` — the per-column categorical
  likelihood that MADE maximizes,
* :func:`softmax` — distribution extraction for sampling.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows ``weight[indices]``; gradients scatter-add back.

    Parameters
    ----------
    weight:
        ``(vocab, dim)`` embedding matrix (usually ``requires_grad=True``).
    indices:
        Integer array of arbitrary shape; output has shape
        ``indices.shape + (dim,)``.
    """
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise TypeError(f"embedding indices must be integers, got {idx.dtype}")
    data = weight.data[idx]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(weight.data)
        np.add.at(full, idx.reshape(-1), grad.reshape(-1, weight.data.shape[1]))
        weight._accum(full)

    return Tensor._make(data, (weight,), backward)


def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets.

    ``values`` is ``(n, dim)`` and ``segment_ids`` is ``(n,)`` with entries in
    ``[0, num_segments)``.  Row ``i`` of the output is the sum of all value
    rows whose segment id equals ``i``; empty segments are zero.  This is the
    permutation-invariant sum pooling used by the deep-sets tree encoder.
    """
    ids = np.asarray(segment_ids)
    if ids.ndim != 1 or len(ids) != len(values.data):
        raise ValueError("segment_ids must be 1-D and aligned with values rows")
    data = np.zeros((num_segments, values.data.shape[1]), dtype=values.data.dtype)
    np.add.at(data, ids, values.data)

    def backward(grad: np.ndarray) -> None:
        values._accum(grad[ids])

    return Tensor._make(data, (values,), backward)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(logits))`` along ``axis``."""
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - log_norm
    probs = np.exp(data)

    def backward(grad: np.ndarray) -> None:
        # d/dx log_softmax = I - softmax broadcast over the grad sum.
        logits._accum(grad - probs * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(data, (logits,), backward)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Plain-numpy stable softmax for inference-time use (no gradient)."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Mean categorical cross-entropy of integer ``targets`` under ``logits``.

    Parameters
    ----------
    logits:
        ``(batch, classes)`` unnormalized scores.
    targets:
        ``(batch,)`` integer class labels.
    weights:
        Optional ``(batch,)`` non-negative per-example weights; the loss is a
        weighted mean.  Used when some training rows carry fractional
        multiplicity (e.g. reweighted fan-out evidence).
    """
    log_probs = log_softmax(logits, axis=-1)
    batch = np.arange(len(targets))
    picked = log_probs[batch, np.asarray(targets)]
    if weights is None:
        return -picked.mean()
    weight_arr = np.asarray(weights, dtype=float)
    total = float(weight_arr.sum())
    if total <= 0:
        raise ValueError("cross_entropy weights must have positive sum")
    return -(picked * Tensor(weight_arr)).sum() * (1.0 / total)


def nll_from_logits(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-example negative log-likelihood (numpy-only, for evaluation)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return -log_probs[np.arange(len(targets)), np.asarray(targets)]
