"""Float64 graph-engine forwards of the two completion networks (test oracle).

The production networks are the fused float32 classes of
:mod:`repro.runtime.training`; these are the reference they are checked
against.  Each oracle network reads a production module's parameters by
name — the same names ``state_dict`` and artifacts use — as trainable
:class:`~oracle.tensor.Tensor` views that share the module's arrays, so a
training step taken here updates the module in place.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn import EvidenceTreeEncoder, Module, ResidualMADE, TreeNodeBatch
from repro.runtime.rng import _sample_rows

from . import functional as F
from .tensor import Tensor, concat


def parameters(module: Module) -> Dict[str, Tensor]:
    """Name → trainable tensor over each of ``module``'s parameter arrays."""
    return {
        name: Tensor(param.data, requires_grad=True)
        for name, param in module.named_parameters()
    }


def _scoped(module: Module, params: Optional[Dict[str, Tensor]], prefix: str):
    """``params`` (default: ``module``'s own) under ``prefix``, prefix stripped."""
    params = parameters(module) if params is None else params
    return {
        name[len(prefix):]: tensor
        for name, tensor in params.items() if name.startswith(prefix)
    }


def _dense(layer, params: Dict[str, Tensor], name: str):
    """(weight, bias, mask) tensors of a ``Linear``/``MaskedLinear`` layer."""
    mask = getattr(layer, "mask", None)
    return (
        params[f"{name}.weight"],
        params.get(f"{name}.bias"),
        None if mask is None else Tensor(mask),
    )


def _apply(layer, x: Tensor) -> Tensor:
    weight, bias, mask = layer
    out = x @ (weight if mask is None else weight * mask)
    return out if bias is None else out + bias


class OracleMADE:
    """Forward, likelihood and sampling of a :class:`ResidualMADE`.

    ``params`` is a name → tensor map over the module holding ``made``
    (defaults to ``parameters(made)``) and ``prefix`` the path of ``made``
    within it (``"made."`` for a completion model).
    """

    def __init__(self, made: ResidualMADE,
                 params: Optional[Dict[str, Tensor]] = None, prefix: str = ""):
        named = _scoped(made, params, prefix)
        self.num_variables = made.num_variables
        self.context_dim = made.context_dim
        self._logit_offsets = made._logit_offsets
        self.embeddings = [
            named[f"embeddings.{i}.weight"] for i in range(made.num_variables)
        ]
        self.input_layer = _dense(made.input_layer, named, "input_layer")
        self.residual_layers = [
            _dense(layer, named, f"residual_layers.{i}")
            for i, layer in enumerate(made.residual_layers)
        ]
        self.output_layer = _dense(made.output_layer, named, "output_layer")

    def _encode_inputs(self, x: np.ndarray, context: Optional[Tensor]) -> Tensor:
        parts: List[Tensor] = []
        if self.context_dim:
            if context is None:
                raise ValueError("model was built with context_dim > 0; pass context")
            parts.append(context)
        for i, weight in enumerate(self.embeddings):
            parts.append(F.embedding(weight, x[:, i]))
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
        h = _apply(self.input_layer, self._encode_inputs(x, context)).relu()
        for layer in self.residual_layers:
            h = _apply(layer, h).relu() + h
        return _apply(self.output_layer, h)

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

        ``variables`` restricts the sum to a subset of conditionals and
        ``variable_weights`` maps a variable index to its own per-example
        weight vector, overriding ``weights`` — the size-debiasing weights
        completion models train with.
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

    def conditional_probs(self, x: np.ndarray, variable: int,
                          context: Optional[Tensor] = None) -> np.ndarray:
        """``P(x_variable | x_<variable>, context)`` as a ``(batch, K)`` array."""
        outputs = self.forward(x, context).data
        start, stop = int(self._logit_offsets[variable]), int(self._logit_offsets[variable + 1])
        return F.softmax(outputs[:, start:stop], axis=-1)

    def sample(
        self,
        evidence: np.ndarray,
        start_variable: int,
        rng: Optional[np.random.Generator],
        context: Optional[Tensor] = None,
        temperature: float = 1.0,
        stop_variable: Optional[int] = None,
        draws: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Iterative forward sampling of variables ``start_variable .. stop-1``.

        Columns before ``start_variable`` are copied through as evidence;
        ``draws`` optionally supplies the ``(batch, stop - start)`` uniforms
        of the categorical draws instead of ``rng``.
        """
        stop = self.num_variables if stop_variable is None else stop_variable
        if not 0 <= start_variable <= stop <= self.num_variables:
            raise ValueError("sampling range out of bounds")
        x = np.array(evidence, dtype=np.int64, copy=True)
        for step, variable in enumerate(range(start_variable, stop)):
            probs = self.conditional_probs(x, variable, context)
            if temperature != 1.0:
                log_probs = np.log(np.maximum(probs, 1e-300)) / temperature
                probs = F.softmax(log_probs, axis=-1)
            u = None if draws is None else draws[:, step]
            x[:, variable] = _sample_rows(probs, rng, u)
        return x


class _OracleNode:
    """One tree node's phi/rho pair, mirroring ``repro.nn.deepsets._NodeEncoder``."""

    def __init__(self, encoder, named: Dict[str, Tensor], prefix: str):
        self.name = encoder.spec.name
        self.num_columns = len(encoder.spec.vocab_sizes)
        self.embeddings = [
            named[f"{prefix}.embeddings.{i}.weight"]
            for i in range(len(encoder.embeddings))
        ]
        self.children = [
            _OracleNode(child, named, f"{prefix}.child_encoders.{i}")
            for i, child in enumerate(encoder.child_encoders)
        ]
        self.phi = _dense(encoder.phi, named, f"{prefix}.phi")
        self.rho = _dense(encoder.rho, named, f"{prefix}.rho")

    def encode(self, batch: Optional[TreeNodeBatch], num_parents: int) -> Tensor:
        """Pool this node's rows into a per-parent context ``(num_parents, d)``."""
        if batch is None:
            batch = TreeNodeBatch(
                values=np.zeros((0, self.num_columns), dtype=np.int64),
                parent_ids=np.zeros(0, dtype=np.int64),
            )
        parts: List[Tensor] = [
            F.embedding(weight, batch.values[:, i])
            for i, weight in enumerate(self.embeddings)
        ]
        for child in self.children:
            parts.append(child.encode(batch.children.get(child.name), batch.num_rows))
        if parts:
            features = concat(parts, axis=-1)
        else:  # a node with no columns and no children: constant feature
            features = Tensor(np.zeros((batch.num_rows, 1)))
        encoded = _apply(self.phi, features).relu()
        pooled = F.segment_sum(encoded, batch.parent_ids, num_parents)
        return _apply(self.rho, pooled).relu()


class OracleTreeEncoder:
    """Forward of an :class:`EvidenceTreeEncoder` (``params``/``prefix`` as
    for :class:`OracleMADE`; ``"tree_encoder."`` for an SSAR model)."""

    def __init__(self, encoder: EvidenceTreeEncoder,
                 params: Optional[Dict[str, Tensor]] = None, prefix: str = ""):
        named = _scoped(encoder, params, prefix)
        self.nodes = [
            _OracleNode(node, named, f"encoders.{i}")
            for i, node in enumerate(encoder.encoders)
        ]

    def __call__(self, batches: Dict[str, TreeNodeBatch], batch_size: int) -> Tensor:
        """Contexts ``(batch_size, context_dim)`` for a batch of evidence tuples.

        ``batches`` maps top-level spec names to their row batches; missing
        relations are treated as empty (all-zero pooled contribution).
        """
        return concat(
            [node.encode(batches.get(node.name), batch_size) for node in self.nodes],
            axis=-1,
        )
