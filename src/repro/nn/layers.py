"""Parameter containers of the completion networks.

The layer set mirrors what the ReStore paper needs and nothing more: dense
layers (plain and MADE-masked) and embeddings.  A layer holds its float64
:class:`Parameter` arrays and, for masked layers, the fixed connectivity
mask; the forward and backward passes live in the float32 runtime
(:mod:`repro.runtime.training`), which reads the parameters by name.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


class Parameter:
    """A trainable float64 array, identified by its name in the module."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)


class Module:
    """Minimal module base class with recursive parameter discovery."""

    def named_parameters(self) -> Iterator[tuple]:
        """Yield ``(name, parameter)`` for every trainable parameter.

        Names are attribute paths ("made.embeddings.0.weight") built from
        the module's construction structure, so the same architecture always
        produces the same names — the stable identity that serialized
        artifacts (:mod:`repro.serving.artifacts`) key model weights on.
        Shared parameters appear once, under the first path reaching them.
        """
        seen: set[int] = set()
        for attr, value in self.__dict__.items():
            yield from _named_parameters_of(value, attr, seen)

    def state_dict(self) -> dict:
        """Name → array snapshot of all parameters (copy)."""
        return {
            name: np.array(p.data, copy=True)
            for name, p in self.named_parameters()
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore parameters saved by :meth:`state_dict`.

        Entries are matched by parameter name; missing, unexpected or
        shape-mismatched entries raise ``ValueError`` naming the offender.
        """
        params = dict(self.named_parameters())
        missing = sorted(set(params) - set(state))
        unexpected = sorted(set(state) - set(params))
        if missing or unexpected:
            raise ValueError(
                f"state dict does not match model parameters "
                f"(missing {missing or 'none'}, unexpected {unexpected or 'none'})"
            )
        for name, param in params.items():
            value = state[name]
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for parameter {name!r}: "
                    f"state {value.shape} vs model {param.data.shape}"
                )
            param.data[...] = value


def _named_parameters_of(value, prefix: str, seen: set[int]) -> Iterator[tuple]:
    if isinstance(value, Parameter):
        if id(value) not in seen:
            seen.add(id(value))
            yield prefix, value
    elif isinstance(value, Module):
        for name, param in value.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield f"{prefix}.{name}", param
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _named_parameters_of(item, f"{prefix}.{i}", seen)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _named_parameters_of(item, f"{prefix}.{key}", seen)


def _kaiming_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """He-style uniform initialization appropriate for ReLU networks."""
    bound = float(np.sqrt(6.0 / max(fan_in, 1)))
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    """Affine transform ``x @ W + b`` with He-uniform initialization."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            _kaiming_uniform(rng, in_features, (in_features, out_features))
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None


class MaskedLinear(Module):
    """A dense layer whose weight is elementwise-multiplied by a fixed mask.

    This is the MADE [Germain et al. 2015] building block: the binary mask
    encodes autoregressive connectivity so that output unit *j* only sees
    input units whose variable index precedes (or equals, for hidden layers)
    the degree assigned to *j*.  The mask is a plain array, not a
    parameter: it never trains.
    """

    def __init__(self, in_features: int, out_features: int, mask: np.ndarray,
                 rng: np.random.Generator, bias: bool = True):
        if mask.shape != (in_features, out_features):
            raise ValueError(
                f"mask shape {mask.shape} != ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.mask = mask.astype(float)
        self.weight = Parameter(
            _kaiming_uniform(rng, in_features, (in_features, out_features))
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None


class Embedding(Module):
    """Learned per-value embeddings, as used for attribute values in ReStore."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        self.vocab_size = vocab_size
        self.dim = dim
        scale = 1.0 / np.sqrt(dim)
        self.weight = Parameter(rng.normal(0.0, scale, size=(vocab_size, dim)))
