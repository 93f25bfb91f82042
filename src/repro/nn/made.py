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
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from . import functional as F
from .layers import Embedding, MaskedLinear, Module
from .tensor import Tensor, concat


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

    # ------------------------------------------------------------------
    # Forward / likelihood
    # ------------------------------------------------------------------
    def _encode_inputs(self, x: np.ndarray, context: Optional[Tensor]) -> Tensor:
        parts: List[Tensor] = []
        if self.context_dim:
            if context is None:
                raise ValueError("model was built with context_dim > 0; pass context")
            parts.append(context)
        for i, emb in enumerate(self.embeddings):
            parts.append(emb(x[:, i]))
        return concat(parts, axis=-1)

    def forward(self, x: np.ndarray, context: Optional[Tensor] = None) -> Tensor:
        """All per-variable logits, concatenated to ``(batch, sum(K_i))``.

        ``x`` is an integer matrix ``(batch, n)``.  Entries for variables that
        have not been sampled yet may hold any valid index — masking
        guarantees they cannot influence their own (or earlier) outputs.
        """
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.num_variables:
            raise ValueError(
                f"expected input of shape (batch, {self.num_variables}), got {x.shape}"
            )
        h = self.input_layer(self._encode_inputs(x, context)).relu()
        for layer in self.residual_layers:
            h = layer(h).relu() + h
        return self.output_layer(h)

    def logits_for(self, outputs: Tensor, variable: int) -> Tensor:
        """Slice the logits of one variable out of a forward result."""
        start = int(self._logit_offsets[variable])
        stop = int(self._logit_offsets[variable + 1])
        return outputs[:, start:stop]

    def nll(
        self,
        x: np.ndarray,
        context: Optional[Tensor] = None,
        weights: Optional[np.ndarray] = None,
        variables: Optional[Sequence[int]] = None,
        variable_weights: Optional[dict] = None,
    ) -> Tensor:
        """Mean negative log-likelihood ``-log p(x)`` (optionally re-weighted).

        ``variables`` restricts the sum to a subset of conditionals — used
        when evidence columns are always observed and their likelihood terms
        are irrelevant to the completion task.  ``variable_weights`` maps a
        variable index to its own per-example weight vector, overriding
        ``weights``; path models use this to undo the size bias that joins
        introduce (a parent appearing once per child would otherwise have
        its marginal and tuple-factor conditionals weighted by child count).
        """
        outputs = self.forward(x, context)
        selected = range(self.num_variables) if variables is None else variables
        total: Optional[Tensor] = None
        for i in selected:
            w = weights
            if variable_weights is not None and i in variable_weights:
                w = variable_weights[i]
            term = F.cross_entropy(self.logits_for(outputs, i), x[:, i], w)
            total = term if total is None else total + term
        if total is None:
            raise ValueError("nll over an empty variable set")
        return total

    def per_example_nll(self, x: np.ndarray, context: Optional[Tensor] = None,
                        variables: Optional[Sequence[int]] = None) -> np.ndarray:
        """Per-row NLL without building a gradient graph (evaluation only)."""
        outputs = self.forward(x, context).data
        selected = range(self.num_variables) if variables is None else variables
        total = np.zeros(len(x))
        for i in selected:
            start, stop = int(self._logit_offsets[i]), int(self._logit_offsets[i + 1])
            total += F.nll_from_logits(outputs[:, start:stop], x[:, i])
        return total

    # ------------------------------------------------------------------
    # Sampling / conditionals
    # ------------------------------------------------------------------
    def conditional_probs(
        self,
        x: np.ndarray,
        variable: int,
        context: Optional[Tensor] = None,
    ) -> np.ndarray:
        """``P(x_variable | x_<variable>, context)`` as a ``(batch, K)`` array."""
        outputs = self.forward(x, context).data
        start, stop = int(self._logit_offsets[variable]), int(self._logit_offsets[variable + 1])
        return F.softmax(outputs[:, start:stop], axis=-1)

    def sample(
        self,
        evidence: np.ndarray,
        start_variable: int,
        rng: np.random.Generator,
        context: Optional[Tensor] = None,
        temperature: float = 1.0,
        stop_variable: Optional[int] = None,
        draws: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Iterative forward sampling of variables ``start_variable .. stop-1``.

        ``evidence`` is ``(batch, n)``; columns before ``start_variable`` are
        treated as observed and copied through, columns in
        ``[start_variable, stop_variable)`` are overwritten with samples from
        the learned conditionals (paper §3.1).  ``stop_variable`` defaults to
        all remaining variables; ReStore's hop-by-hop incompleteness join
        samples one table slot at a time.  ``draws`` optionally supplies the
        ``(batch, stop - start)`` uniforms used for the categorical draws
        (the runtime's counter-based streams) instead of ``rng``.
        """
        stop = self.num_variables if stop_variable is None else stop_variable
        if not 0 <= start_variable <= stop <= self.num_variables:
            raise ValueError("sampling range out of bounds")
        x = np.array(evidence, dtype=np.int64, copy=True)
        for step, variable in enumerate(range(start_variable, stop)):
            probs = self.conditional_probs(x, variable, context)
            if temperature != 1.0:
                # Sharpen/flatten in log space to avoid underflow at low T.
                log_probs = np.log(np.maximum(probs, 1e-300)) / temperature
                probs = F.softmax(log_probs, axis=-1)
            u = None if draws is None else draws[:, step]
            x[:, variable] = _sample_rows(probs, rng, u)
        return x

    def trainable_summary(self) -> str:
        """Human-readable one-line description, handy for logging."""
        return (
            f"ResidualMADE(vars={self.num_variables}, params={self.num_parameters()}, "
            f"context_dim={self.context_dim})"
        )


def _sample_rows(
    probs: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    draws: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized categorical sampling: one draw per row of ``probs``.

    ``draws`` supplies precomputed per-row uniforms (counter-based streams);
    otherwise one uniform per row is taken from ``rng``.  The CDF inversion
    itself is shared with the float32 runtime so the oracle and the runtime
    stay in lockstep (imported lazily: the runtime package imports this
    module).
    """
    if draws is None:
        if rng is None:
            raise ValueError("_sample_rows needs either rng or draws")
        draws = rng.random(len(probs))
    from ..runtime.rng import sample_categorical

    return sample_categorical(probs, draws)
