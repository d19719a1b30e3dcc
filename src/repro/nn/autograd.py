"""Minimal reverse-mode automatic differentiation over NumPy arrays.

The accuracy experiments (Tables 1-4, 6) need trainable transformers, so this
module provides a small, dependency-free autograd engine: a :class:`Tensor`
wrapping a float32 ``ndarray`` plus the backward rules for the operations the
transformer stack uses (broadcasted arithmetic, matmul, reductions, indexing,
exp/log/tanh/erf, softmax building blocks).

Design notes
------------
* Gradients are accumulated into ``Tensor.grad`` (a plain ndarray).  The
  first accumulation copies, except for an array the backward closure has
  just allocated, which the node adopts as it is (see
  :meth:`Tensor._accumulate`).
* Graphs are built eagerly; :meth:`Tensor.backward` topologically sorts the
  graph and runs the stored backward closures.  Each interior node's
  gradient and closure are released as soon as the node has run, so the
  graph's gradients never all live at once; leaves keep their gradients.
  A released graph cannot be walked again.
* Broadcasting is handled by summing gradients back onto the original shape
  (:func:`_unbroadcast`).
* Only float32 data participates in differentiation; integer arrays (token
  ids, gather indices) stay plain ndarrays.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.sanitize import check_adopted
from repro.profile.tracer import phase_scope

ArrayLike = Union[np.ndarray, float, int, "Tensor"]


def _released() -> None:
    """The backward closure of an interior node whose backward has run."""
    raise RuntimeError(
        "backward() through a graph that was already back-propagated: its "
        "interior gradients and closures are released as the first backward "
        "walks it; rebuild the graph with a new forward pass"
    )


#: The graph of every running :meth:`Tensor.backward`, innermost last: an
#: adopted gradient is checked against its live gradients (sanitize mode).
_walks: List[List["Tensor"]] = []


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcasted dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # remove leading added dims
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum over dims that were size-1 in the original
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float32 array with gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")
    __array_priority__ = 1000  # make `ndarray + Tensor` dispatch to Tensor

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _prev: Sequence["Tensor"] = (),
        name: str = "",
    ):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[], None]] = None
        self._prev: Tuple["Tensor", ...] = tuple(_prev)
        self.name = name

    # ------------------------------------------------------------- properties
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, name={self.name!r})"

    # ---------------------------------------------------------------- helpers
    @staticmethod
    def _wrap(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _accumulate(self, grad: np.ndarray, adopt: bool = False) -> None:
        """Add ``grad`` into :attr:`grad`.

        The adoption rule.  The first accumulation stores a copy: a
        pass-through gradient (``add``, ``reshape``, ``transpose``,
        :func:`_unbroadcast`) is the outgoing node's gradient or a view of
        it, and later accumulations write into the stored array in place.
        A backward closure that has just allocated ``grad`` and keeps no
        other reference to it passes ``adopt=True`` (``linear``'s dx,
        ``gelu``, ``layer_norm``'s dx, ``sum``'s broadcast, the attention
        nodes' dQ, dK and dV): the first accumulation then stores that array itself.  An
        adopted array must share no memory with the node's incoming
        gradient or any other live gradient; under ``REPRO_SANITIZE=1`` a
        backward walk checks that and raises
        :class:`~repro.analysis.sanitize.SanitizerError`.
        """
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=np.float32)
        if self.grad is not None:
            self.grad += grad
        elif adopt:
            if _walks:
                live = (t.grad for t in _walks[-1] if t is not self and t.grad is not None)
                check_adopted(grad, live, self.name or "tensor")
            self.grad = grad
        else:
            self.grad = grad.copy()

    def _make(self, data: np.ndarray, parents: Iterable["Tensor"], backward, name="") -> "Tensor":
        parents = tuple(parents)
        out = Tensor(
            data,
            requires_grad=any(p.requires_grad for p in parents),
            _prev=parents,
            name=name,
        )
        if out.requires_grad:
            out._backward = backward(out)
        return out

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)

        def backward(out):
            def fn():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad, other.shape))

            return fn

        return self._make(self.data + other.data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(out):
            def fn():
                if self.requires_grad:
                    self._accumulate(-out.grad)

            return fn

        return self._make(-self.data, (self,), backward, "neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)

        def backward(out):
            def fn():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

            return fn

        return self._make(self.data * other.data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)

        def backward(out):
            def fn():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(
                        _unbroadcast(-out.grad * self.data / (other.data**2), other.shape)
                    )

            return fn

        return self._make(self.data / other.data, (self, other), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(out):
            def fn():
                if self.requires_grad:
                    self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

            return fn

        return self._make(self.data**exponent, (self,), backward, "pow")

    # --------------------------------------------------------------- matmul
    def matmul(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)

        def backward(out):
            def fn():
                if self.requires_grad:
                    grad = np.matmul(out.grad, np.swapaxes(other.data, -1, -2))
                    self._accumulate(_unbroadcast(grad, self.shape))
                if other.requires_grad:
                    grad = np.matmul(np.swapaxes(self.data, -1, -2), out.grad)
                    other._accumulate(_unbroadcast(grad, other.shape))

            return fn

        return self._make(np.matmul(self.data, other.data), (self, other), backward, "matmul")

    __matmul__ = matmul

    # ------------------------------------------------------------ unary ops
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(out):
            def fn():
                if self.requires_grad:
                    self._accumulate(out.grad * data)

            return fn

        return self._make(data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        def backward(out):
            def fn():
                if self.requires_grad:
                    self._accumulate(out.grad / self.data)

            return fn

        return self._make(np.log(self.data), (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(out):
            def fn():
                if self.requires_grad:
                    self._accumulate(out.grad * (1.0 - data**2))

            return fn

        return self._make(data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(out):
            def fn():
                if self.requires_grad:
                    self._accumulate(out.grad * data * (1.0 - data))

            return fn

        return self._make(data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(out):
            def fn():
                if self.requires_grad:
                    self._accumulate(out.grad * mask)

            return fn

        return self._make(self.data * mask, (self,), backward, "relu")

    def erf(self) -> "Tensor":
        from scipy.special import erf as _erf

        data = _erf(self.data).astype(np.float32)

        def backward(out):
            def fn():
                if self.requires_grad:
                    self._accumulate(
                        out.grad * (2.0 / np.sqrt(np.pi)) * np.exp(-self.data**2)
                    )

            return fn

        return self._make(data, (self,), backward, "erf")

    # ------------------------------------------------------------ reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(out):
            def fn():
                if not self.requires_grad:
                    return
                grad = out.grad
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis=axis)
                # the broadcast copy is fresh: adopt it rather than copy it again
                self._accumulate(np.broadcast_to(grad, self.shape).copy(), adopt=True)

            return fn

        return self._make(data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int = -1, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=True)
        argmax_mask = (self.data == data).astype(np.float32)
        # distribute ties equally to keep the gradient well defined
        argmax_mask /= np.maximum(argmax_mask.sum(axis=axis, keepdims=True), 1.0)
        out_data = data if keepdims else np.squeeze(data, axis=axis)

        def backward(out):
            def fn():
                if not self.requires_grad:
                    return
                grad = out.grad
                if not keepdims:
                    grad = np.expand_dims(grad, axis=axis)
                self._accumulate(grad * argmax_mask)

            return fn

        return self._make(out_data, (self,), backward, "max")

    # ------------------------------------------------------------ shape ops
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(out):
            def fn():
                if self.requires_grad:
                    self._accumulate(out.grad.reshape(original))

            return fn

        return self._make(self.data.reshape(shape), (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)

        def backward(out):
            def fn():
                if self.requires_grad:
                    self._accumulate(out.grad.transpose(inverse))

            return fn

        return self._make(self.data.transpose(axes), (self,), backward, "transpose")

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        def backward(out):
            def fn():
                if self.requires_grad:
                    grad = np.zeros_like(self.data)
                    np.add.at(grad, index, out.grad)
                    self._accumulate(grad)

            return fn

        return self._make(self.data[index], (self,), backward, "getitem")

    # ----------------------------------------------------------- composites
    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Set entries where ``mask`` is True to ``value`` (no gradient there)."""
        mask = np.asarray(mask, dtype=bool)
        data = np.where(mask, np.float32(value), self.data)

        def backward(out):
            def fn():
                if self.requires_grad:
                    self._accumulate(
                        _unbroadcast(out.grad * (~mask), self.shape)
                    )

            return fn

        return self._make(data, (self,), backward, "masked_fill")

    # ------------------------------------------------------------- backward
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor (default seed gradient: ones).

        Interior nodes (results of an op, this tensor included) drop their
        ``grad`` and backward closure as soon as they have run, so only the
        leaves' gradients survive the call.  Calling ``backward()`` again
        through any part of the released graph raises ``RuntimeError``.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")

        topo: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor"):
            stack = [(node, iter(node._prev))]
            visited.add(id(node))
            while stack:
                current, it = stack[-1]
                advanced = False
                for child in it:
                    if id(child) not in visited and child.requires_grad:
                        visited.add(id(child))
                        stack.append((child, iter(child._prev)))
                        advanced = True
                        break
                if not advanced:
                    topo.append(current)
                    stack.pop()

        visit(self)
        if any(node._backward is _released for node in topo):
            _released()
        if grad is None:
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=np.float32).copy()
        # Kernels dispatched from inside backward closures are attributed to
        # the bwd phase on the trace timeline (no-op when tracing is off).
        _walks.append(topo)
        try:
            with phase_scope("bwd"):
                for node in reversed(topo):
                    if node._backward is None:
                        continue  # a leaf: its gradient is the result
                    if node.grad is not None:
                        node._backward()
                    node.grad = None
                    node._backward = _released
        finally:
            _walks.pop()


def parameter(data, name: str = "") -> Tensor:
    """Create a trainable tensor."""
    return Tensor(data, requires_grad=True, name=name)


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [Tensor._wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward(out):
        def fn():
            splits = np.cumsum(sizes)[:-1]
            grads = np.split(out.grad, splits, axis=axis)
            for t, g in zip(tensors, grads):
                if t.requires_grad:
                    t._accumulate(g)

        return fn

    parents = tuple(tensors)
    out = Tensor(data, requires_grad=any(t.requires_grad for t in tensors), _prev=parents)
    if out.requires_grad:
        out._backward = backward(out)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [Tensor._wrap(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(out):
        def fn():
            grads = np.split(out.grad, len(tensors), axis=axis)
            for t, g in zip(tensors, grads):
                if t.requires_grad:
                    t._accumulate(np.squeeze(g, axis=axis))

        return fn

    out = Tensor(data, requires_grad=any(t.requires_grad for t in tensors), _prev=tuple(tensors))
    if out.requires_grad:
        out._backward = backward(out)
    return out
