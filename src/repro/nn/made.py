"""Masked Autoencoder for Distribution Estimation (MADE) with residual blocks.

This is the deep autoregressive backbone of ReStore's completion models
(paper §3.1/§3.2, following Germain et al. [14] and the naru implementation
[40] the authors started from): each discrete variable is embedded, masked
dense layers enforce that the *i*-th output distribution depends only on
variables with smaller index, and conditional sampling proceeds by iterative
forward passes.

Two extensions beyond vanilla MADE are required by the paper:

* **Residual connections with ReLU** (§7.1) — all hidden layers share one
  degree assignment so identity skips preserve the autoregressive property.
* **Unmasked context input** — SSAR models feed a deep-sets embedding of the
  fan-out evidence tree; context units carry degree 0 and therefore connect
  to every hidden/output unit.

Variable ordering is *fixed* (natural order).  ReStore's model merging
(§3.4) relies on choosing a topological order of tables up front, so an
order-agnostic MADE is unnecessary.

This module defines the architecture — the parameters, the degrees and the
masks.  Its forward, likelihood, backward and sampling passes are
:class:`repro.runtime.training.FusedResidualMADE`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .layers import Embedding, MaskedLinear, Module


def _input_degrees(vocab_sizes: Sequence[int], embed_dim: int, context_dim: int) -> np.ndarray:
    """Degree of every input unit: 0 for context, i+1 for variable i."""
    degrees = [np.zeros(context_dim, dtype=int)]
    for i in range(len(vocab_sizes)):
        degrees.append(np.full(embed_dim, i + 1, dtype=int))
    return np.concatenate(degrees)


def _hidden_degrees(num_variables: int, width: int, with_context: bool) -> np.ndarray:
    """Evenly cycle hidden degrees through MADE's admissible range.

    Without context the standard range is ``1 .. n-1``.  With an unmasked
    context input we additionally allow degree-0 hidden units: they connect
    only to context inputs yet feed *every* output, so even the first
    variable's conditional ``p(x_1 | context)`` can depend on the context.
    """
    min_degree = 0 if with_context else 1
    max_degree = max(num_variables - 1, 1)
    span = max_degree - min_degree + 1
    return (np.arange(width) % span) + min_degree


def _mask(in_degrees: np.ndarray, out_degrees: np.ndarray, strict: bool) -> np.ndarray:
    """Binary connectivity mask; ``strict`` for the output layer (m_out > m_in)."""
    if strict:
        return (out_degrees[None, :] > in_degrees[:, None]).astype(float)
    return (out_degrees[None, :] >= in_degrees[:, None]).astype(float)


class ResidualMADE(Module):
    """MADE over discrete variables with embeddings and residual hidden blocks.

    Parameters
    ----------
    vocab_sizes:
        Cardinalities ``K_1 .. K_n`` of the discretized columns, in the fixed
        autoregressive order (evidence columns first — see
        :mod:`repro.core.merging`).
    embed_dim:
        Width of the learned per-variable value embeddings.
    hidden:
        Hidden widths; all layers past the first form residual blocks and
        therefore must share the first hidden width.
    context_dim:
        Width of the optional unmasked conditioning vector (0 disables it).
    rng:
        Source of initialization randomness.
    """

    def __init__(
        self,
        vocab_sizes: Sequence[int],
        embed_dim: int,
        hidden: Sequence[int],
        rng: np.random.Generator,
        context_dim: int = 0,
    ):
        if not vocab_sizes:
            raise ValueError("MADE needs at least one variable")
        if any(k < 1 for k in vocab_sizes):
            raise ValueError("vocabulary sizes must be >= 1")
        if len(set(hidden)) != 1:
            raise ValueError("residual MADE requires equal hidden widths")

        self.vocab_sizes = list(vocab_sizes)
        self.num_variables = len(vocab_sizes)
        self.embed_dim = embed_dim
        self.context_dim = context_dim

        self.embeddings = [Embedding(k, embed_dim, rng) for k in self.vocab_sizes]

        in_deg = _input_degrees(self.vocab_sizes, embed_dim, context_dim)
        hid_deg = _hidden_degrees(self.num_variables, hidden[0], with_context=context_dim > 0)

        self.input_layer = MaskedLinear(
            len(in_deg), hidden[0], _mask(in_deg, hid_deg, strict=False), rng
        )
        self.residual_layers = [
            MaskedLinear(hidden[0], hidden[0], _mask(hid_deg, hid_deg, strict=False), rng)
            for _ in hidden[1:]
        ]

        out_deg = np.concatenate(
            [np.full(k, i + 1, dtype=int) for i, k in enumerate(self.vocab_sizes)]
        )
        self.output_layer = MaskedLinear(
            hidden[0], int(out_deg.size), _mask(hid_deg, out_deg, strict=True), rng
        )
        self._logit_offsets = np.concatenate([[0], np.cumsum(self.vocab_sizes)])
