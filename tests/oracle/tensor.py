"""Reverse-mode automatic differentiation on top of numpy arrays (test oracle).

The float64 reference engine the fused float32 runtime
(:mod:`repro.runtime.training`) is checked against: gradchecks compare the
hand-derived kernels with the gradients this engine derives, and parity
tests compare forwards and training runs.  It supports exactly what
MADE-style autoregressive models and deep-sets tree encoders need:

* broadcasting-aware elementwise arithmetic,
* matrix multiplication,
* gather / scatter primitives (embeddings, segment sums — see ``functional``),
* a ``backward()`` pass over the dynamically recorded graph.

Each operation records a closure that accumulates gradients directly into its
parents' ``.grad`` buffers; ``backward()`` walks the graph in reverse
topological order.  All computation uses ``float64`` which keeps
finite-difference gradient checks tight.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

Arrayish = Union["Tensor", np.ndarray, float, int]

DEFAULT_DTYPE = np.float64


def _as_array(value: Arrayish, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Coerce a scalar/sequence/Tensor into a numpy array of the engine dtype."""
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape``, undoing numpy broadcasting.

    Broadcasting may both prepend dimensions and stretch size-1 axes; the
    adjoint of a broadcast is a sum over the broadcasted axes.
    """
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the autograd graph wrapping a numpy array.

    Parameters
    ----------
    data:
        Numeric payload (scalar, sequence or ndarray).
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    name:
        Optional label used in debugging output.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward_fn", "_parents")

    def __init__(self, data: Arrayish, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """A tensor sharing this data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    # ------------------------------------------------------------------
    # Graph construction / backward
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Optional[Callable[[np.ndarray], None]],
    ) -> "Tensor":
        """Create an interior node; gradient tracking only if any parent needs it."""
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    def _accum(self, grad: np.ndarray, shape: Optional[Tuple[int, ...]] = None) -> None:
        """Accumulate an upstream gradient (unbroadcasting to ``shape``)."""
        if not self.requires_grad:
            return
        if shape is not None:
            grad = _unbroadcast(grad, shape)
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones, which is the conventional seed for scalar
        losses.  Gradients accumulate into ``.grad`` of every tensor with
        ``requires_grad=True`` reachable from this node.
        """
        seed = np.ones_like(self.data) if grad is None else np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accum(seed)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                # Interior gradients are not needed after propagation; free
                # them so that repeated backward calls start clean.
                node.grad = None

    # ------------------------------------------------------------------
    # Arithmetic (broadcasting aware)
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayish) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accum(grad, self.shape)
            other_t._accum(grad, other_t.shape)

        return Tensor._make(data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: Arrayish) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other_t)

    def __rsub__(self, other: Arrayish) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other: Arrayish) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accum(grad * other_t.data, self.shape)
            other_t._accum(grad * self.data, other_t.shape)

        return Tensor._make(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayish) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        return self * other_t.pow(-1.0)

    def __rtruediv__(self, other: Arrayish) -> "Tensor":
        return Tensor(other) * self.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accum(grad * exponent * self.data ** (exponent - 1.0), self.shape)

        return Tensor._make(data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        return self.pow(exponent)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accum(grad @ other_t.data.T)
            if other_t.requires_grad:
                other_t._accum(self.data.T @ grad)

        return Tensor._make(data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        original = self.data.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accum(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self) -> "Tensor":
        data = self.data.T

        def backward(grad: np.ndarray) -> None:
            self._accum(grad.T)

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":  # noqa: N802 - numpy-style alias
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accum(full)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accum(grad * mask)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accum(grad * (1.0 - data * data))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accum(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accum(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accum(grad / self.data)

        return Tensor._make(data, (self,), backward)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing via slicing."""
    tensor_list = list(tensors)
    data = np.concatenate([t.data for t in tensor_list], axis=axis)
    norm_axis = axis if axis >= 0 else data.ndim + axis
    sizes = [t.data.shape[norm_axis] for t in tensor_list]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensor_list, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[norm_axis] = slice(int(start), int(stop))
            tensor._accum(grad[tuple(index)])

    return Tensor._make(data, tensor_list, backward)
