"""Shared layer kernels of the float32 network runtime.

:mod:`repro.runtime.training` builds both of its uses from these
primitives: the hand-derived fused forward+backward passes of
``ReStore.fit()``, and the graph-free inference forwards the completion
hot path samples with (the same classes over a frozen parameter buffer).
Keeping the dense/embedding/softmax primitives in one module means there
is exactly one float32 forward — the matmul an inference forward executes
is the same line of code the training kernel differentiates.

Everything here operates on plain numpy arrays.  Backward helpers return
(or accumulate into) gradient arrays of the same dtype as their inputs, so
the fused trainer can run in float32 (the default) or float64 (the
configuration the gradcheck suite compares against its float64 oracle).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..obs import profile as _profile

#: Fixed row-tile size of inference forwards.  Dense transforms run over
#: zero-padded tiles of this many rows so a row's activations are bitwise
#: identical no matter how the batch around it is chunked: BLAS kernels pick
#: different accumulation orders for different matrix shapes, and fixed
#: tiles pin the shape.
TILE = 128

#: Default execution dtype of both inference and fused training.
DTYPE = np.float32


def tile_apply(x: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply ``fn`` over fixed-size row tiles of ``x`` (zero-padded).

    ``fn`` must be row-local (each output row a function of the matching
    input row only) — true for dense layers and elementwise nonlinearities.
    """
    n = len(x)
    if n == 0:
        probe = fn(np.zeros((TILE, x.shape[1]), dtype=DTYPE))
        return np.zeros((0, probe.shape[1]), dtype=probe.dtype)
    pieces: List[np.ndarray] = []
    for start in range(0, n, TILE):
        block = x[start:start + TILE]
        if len(block) < TILE:
            padded = np.zeros((TILE, x.shape[1]), dtype=DTYPE)
            padded[: len(block)] = block
            pieces.append(fn(padded)[: len(block)])
        else:
            pieces.append(fn(block))
    return np.concatenate(pieces, axis=0)


def dense(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    relu: bool = False,
) -> np.ndarray:
    """One affine layer ``x @ weight + bias``, optionally ReLU'd in place.

    The single dense primitive every network forward is built from (MADE's
    input, residual and output layers, the deep-sets phi/rho); MADE layers
    pass their mask-applied weight.
    """
    # Kernel profiling (repro.obs.profile) accumulates instead of
    # tracing: one attribute check when off, two clock reads when on.
    profiler = _profile.ACTIVE
    started = time.perf_counter_ns() if profiler is not None else 0
    out = x @ weight
    if bias is not None:
        out += bias
    if relu:
        np.maximum(out, 0.0, out=out)
    if profiler is not None:
        profiler.record(
            "dense", time.perf_counter_ns() - started, rows=len(x)
        )
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    profiler = _profile.ACTIVE
    started = time.perf_counter_ns() if profiler is not None else 0
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=-1, keepdims=True)
    if profiler is not None:
        profiler.record(
            "softmax", time.perf_counter_ns() - started, rows=len(logits)
        )
    return out


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(softmax(logits))`` along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def nll_rows(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row negative log-likelihood of integer ``targets`` (forward only)."""
    log_probs = log_softmax(logits)
    return -log_probs[np.arange(len(targets)), np.asarray(targets)]


# ----------------------------------------------------------------------
# Training-side fused primitives
# ----------------------------------------------------------------------

def embedding_backward(
    grad_weight: np.ndarray, indices: np.ndarray, d_out: np.ndarray
) -> None:
    """Scatter-add ``d_out`` rows into ``grad_weight`` at ``indices``.

    The adjoint of a row gather; duplicate indices accumulate
    (``np.add.at`` semantics).
    """
    np.add.at(grad_weight, np.asarray(indices), d_out)


def segment_sum_forward(
    values: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Sum ``values`` rows into ``num_segments`` buckets (deep-sets pooling)."""
    out = np.zeros((num_segments, values.shape[1]), dtype=values.dtype)
    np.add.at(out, segment_ids, values)
    return out


def segment_sum_backward(d_out: np.ndarray, segment_ids: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`segment_sum_forward`: broadcast back to the rows."""
    return d_out[segment_ids]


def softmax_nll_grad(
    logits: np.ndarray,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray]:
    """Fused weighted-mean softmax cross-entropy: loss and exact gradient.

    Implements one MADE output head's contribution to the training loss,

    ``L = -(sum_i w_i * log p_i[t_i]) / sum_i w_i``

    (uniform weights when ``weights`` is None), returning ``(L, dL/dlogits)``
    in a single pass — the softmax computed for the loss is reused for the
    gradient.
    """
    targets = np.asarray(targets)
    rows = np.arange(len(targets))
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    norm = exp.sum(axis=-1, keepdims=True)
    picked = shifted[rows, targets] - np.log(norm[:, 0])
    if weights is None:
        w = np.full(len(targets), 1.0 / max(len(targets), 1), dtype=logits.dtype)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        total = float(weights.sum())
        if total <= 0:
            raise ValueError("softmax_nll_grad weights must have positive sum")
        w = (weights / total).astype(logits.dtype)
    loss = float(-(w * picked).sum())
    d_logits = exp / norm
    d_logits[rows, targets] -= 1.0
    d_logits *= w[:, None]
    return loss, d_logits


class MultiheadNLLKernel:
    """All MADE output heads' weighted softmax-NLL in one fused pass.

    Equivalent to calling :func:`softmax_nll_grad` per head on
    ``logits[:, offsets[i]:offsets[i+1]]`` and summing, but expressed over
    the concatenated logits so the cost is a handful of full-width array
    ops instead of ``num_heads`` small ones — the inner loop of fused MADE
    training.  Per-head sums and head→column broadcasts go through a cached
    0/1 segment-indicator matrix (one small GEMM each), which beats both
    ``np.ufunc.reduceat`` and fancy-index expansion at mini-batch sizes.
    """

    def __init__(self, offsets: np.ndarray, dtype=DTYPE):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.starts = self.offsets[:-1]
        num_heads = len(self.starts)
        width = int(self.offsets[-1])
        # segments[i, k] = 1 iff column k belongs to head i.
        self.segments = np.zeros((num_heads, width), dtype=dtype)
        for i, (start, stop) in enumerate(zip(self.offsets[:-1], self.offsets[1:])):
            self.segments[i, start:stop] = 1.0

    def __call__(
        self,
        logits: np.ndarray,
        targets: np.ndarray,
        weight_matrix: np.ndarray,
    ) -> Tuple[float, np.ndarray]:
        """``(loss, dL/dlogits)`` of the summed weighted-mean head losses.

        Parameters
        ----------
        logits:
            ``(batch, sum(K_i))`` concatenated per-head scores.  The buffer
            is reused for the gradient — the caller owns it and must not
            read the raw scores afterwards.
        targets:
            ``(batch, num_heads)`` integer labels, 0-based within each head.
        weight_matrix:
            ``(batch, num_heads)`` *pre-normalized* per-example weights —
            each column must sum to that head's weighted-mean normalizer
            (1.0 for a plain mean).
        """
        profiler = _profile.ACTIVE
        started = time.perf_counter_ns() if profiler is not None else 0
        maxes = np.maximum.reduceat(logits, self.starts, axis=1)
        logits -= maxes @ self.segments                        # shifted
        rows = np.arange(len(logits))[:, None]
        target_cols = self.starts[None, :] + np.asarray(targets)
        target_shift = logits[rows, target_cols]
        np.exp(logits, out=logits)                             # exp(shifted)
        sums = logits @ self.segments.T
        picked = target_shift - np.log(sums)
        loss = float(-(weight_matrix * picked).sum())
        # (softmax - onehot) * w == (exp - onehot * sum) * (w / sum): one
        # fused rescale instead of separate normalize and weight passes.
        d_logits = logits
        d_logits[rows, target_cols] -= sums
        scale = (weight_matrix / sums).astype(logits.dtype, copy=False)
        d_logits *= scale @ self.segments
        if profiler is not None:
            profiler.record(
                "multihead_nll", time.perf_counter_ns() - started,
                rows=len(targets),
            )
        return loss, d_logits


def multihead_softmax_nll_grad(
    logits: np.ndarray,
    offsets: np.ndarray,
    targets: np.ndarray,
    weight_matrix: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """One-shot convenience wrapper around :class:`MultiheadNLLKernel`."""
    return MultiheadNLLKernel(offsets, dtype=logits.dtype)(
        logits, targets, weight_matrix
    )


def dense_scatter(
    indices: np.ndarray, d_out: np.ndarray, num_rows: int
) -> np.ndarray:
    """Scatter-add ``d_out`` rows into a fresh ``(num_rows, dim)`` array.

    Equivalent to :func:`embedding_backward` on zeros, but built from one
    ``np.bincount`` per output column — for the batch-sized scatters of
    MADE embedding gradients this runs an order of magnitude faster than
    ``np.add.at``, whose per-element dispatch dominates at these sizes.
    """
    indices = np.asarray(indices)
    out = np.empty((num_rows, d_out.shape[1]), dtype=d_out.dtype)
    for column in range(d_out.shape[1]):
        out[:, column] = np.bincount(
            indices, weights=d_out[:, column], minlength=num_rows
        )
    return out
