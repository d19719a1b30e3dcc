"""Minimal reverse-mode automatic differentiation over NumPy arrays.

The accuracy experiments (Tables 1-4, 6) need trainable transformers, so this
module provides a small, dependency-free autograd engine: a :class:`Tensor`
wrapping a float32 ``ndarray`` plus the backward rules for the operations the
transformer stack uses (broadcasted arithmetic, matmul, reductions, indexing,
exp/log/tanh/erf, softmax building blocks).

Design notes
------------
* The graph is made of :class:`Node` objects, not of tensors.  A
  :class:`Tensor` is its ``data`` array plus its node; the node holds the
  gradient, ``requires_grad``, the backward closure, the parents' nodes,
  the name and the shape, and no array of the tensor.  No node reaches its
  own tensor.
* A graph keeps only what its backward closures read.  Each closure
  captures the arrays its gradient formula reads and the parents' nodes it
  accumulates into, never a :class:`Tensor`, and it receives its incoming
  gradient as its argument.  It keeps a parent's array only when the
  gradient that reads it is required: ``x * c`` with a constant ``c`` keeps
  ``c`` and nothing of ``x``, ``a + b`` keeps no array.  An activation that
  no backward reads (a residual sum, a LayerNorm input, an output
  projection) is freed by reference counting as soon as the forward drops
  its last name for it, also with the cycle collector disabled.
* A node may carry a *rebuild recipe* (:attr:`Node.rebuild`): a
  zero-argument callable that rebuilds its tensor's data bit for bit from
  arrays the node's own backward already keeps.  ``layer_norm`` (``x̂·w +
  b``) and ``gelu`` (``x·Φ(x)``) set one; a ``linear`` fed by such a node
  captures the recipe instead of its input and rebuilds the input in its
  backward for ``dW``, so its input dies with the forward, at the price of
  one elementwise rebuild per consuming ``linear``: an encoder layer's Q, K
  and V projections each rebuild the LN1 output, so a layer pays five
  rebuilds (LN1's three times, LN2's and GELU's once).  This is recomputation for memory (Chen et al.,
  "Training Deep Nets with Sublinear Memory Cost") without a GEMM or an
  ``erf``.
* Gradients are accumulated into ``Node.grad`` (a plain ndarray, read and
  written as ``Tensor.grad``).  The first accumulation copies, except for
  an array the backward closure has just allocated, which the node adopts
  as it is (see :meth:`Node.accumulate`).
* Graphs are built eagerly; :meth:`Tensor.backward` topologically sorts the
  nodes and runs their backward closures.  Each interior node's gradient
  and closure are released as soon as the node has run, so the graph's
  gradients, saved arrays and rebuild recipes never all live at once;
  leaves keep their gradients.  A released graph cannot be walked again.
* Broadcasting is handled by summing gradients back onto the original shape
  (:func:`_unbroadcast`).
* Only float32 data participates in differentiation; integer arrays (token
  ids, gather indices) stay plain ndarrays.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.sanitize import check_adopted
from repro.profile.tracer import phase_scope

ArrayLike = Union[np.ndarray, float, int, "Tensor"]


def _released(grad: Optional[np.ndarray] = None) -> None:
    """The backward closure of an interior node whose backward has run."""
    raise RuntimeError(
        "backward() through a graph that was already back-propagated: its "
        "interior gradients and closures are released as the first backward "
        "walks it; rebuild the graph with a new forward pass"
    )


#: The nodes of every running :meth:`Tensor.backward`, innermost last: an
#: adopted gradient is checked against their live gradients (sanitize mode).
_walks: List[List["Node"]] = []


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


class Node:
    """A tensor's place in the autograd graph, without the tensor's array.

    ``backward`` is ``None`` for a leaf; for an op's result it is a closure
    taking this node's gradient and accumulating into ``parents``, and
    ``_released`` once a backward walk has run it.  ``rebuild`` is ``None``
    or a zero-argument callable returning the tensor's data, bit for bit,
    from arrays ``backward`` already keeps; it is set only on a node that
    requires a gradient, and the walk clears it with the closure, so the
    recipe never keeps those arrays alive past the node's own backward.
    """

    __slots__ = ("grad", "requires_grad", "backward", "parents", "name", "shape", "rebuild")

    def __init__(self, shape: Tuple[int, ...], requires_grad: bool = False, name: str = ""):
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.backward: Optional[Callable[[np.ndarray], None]] = None
        self.parents: Tuple["Node", ...] = ()
        self.name = name
        self.shape = shape
        self.rebuild: Optional[Callable[[], np.ndarray]] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node(shape={self.shape}, requires_grad={self.requires_grad}, name={self.name!r})"

    def accumulate(self, grad: np.ndarray, adopt: bool = False) -> None:
        """Add ``grad`` into :attr:`grad`.

        The adoption rule.  The first accumulation stores a copy: a
        pass-through gradient (``add``, ``reshape``, ``transpose``,
        :func:`_unbroadcast`) is the outgoing node's gradient or a view of
        it, and later accumulations write into the stored array in place.
        A backward closure that has just allocated ``grad`` and keeps no
        other reference to it passes ``adopt=True`` (``linear``'s dx,
        ``gelu``, ``layer_norm``'s dx, ``sum``'s broadcast, the attention
        nodes' dQ, dK and dV): the first accumulation then stores that array
        itself.  An adopted array must share no memory with the node's
        incoming gradient or any other live gradient; under
        ``REPRO_SANITIZE=1`` a backward walk checks that and raises
        :class:`~repro.analysis.sanitize.SanitizerError`.
        """
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=np.float32)
        if self.grad is not None:
            self.grad += grad
        elif adopt:
            if _walks:
                live = (n.grad for n in _walks[-1] if n is not self and n.grad is not None)
                check_adopted(grad, live, self.name or "tensor")
            self.grad = grad
        else:
            self.grad = grad.copy()


class Tensor:
    """A float32 array with gradient tracking through its :class:`Node`."""

    __slots__ = ("data", "node", "__weakref__")
    __array_priority__ = 1000  # make `ndarray + Tensor` dispatch to Tensor

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float32)
        self.node = Node(self.data.shape, requires_grad, name)

    # ------------------------------------------------------------- properties
    @property
    def grad(self) -> Optional[np.ndarray]:
        return self.node.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self.node.grad = value

    @property
    def requires_grad(self) -> bool:
        return self.node.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        self.node.requires_grad = bool(value)

    @property
    def name(self) -> str:
        return self.node.name

    @name.setter
    def name(self, value: str) -> None:
        self.node.name = value

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
        self.node.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, name={self.name!r})"

    # ---------------------------------------------------------------- helpers
    @staticmethod
    def _wrap(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        name: str = "",
        rebuild: Optional[Callable[[], np.ndarray]] = None,
    ) -> "Tensor":
        """The tensor of ``data`` computed from ``parents``.

        Its node keeps ``backward``, the parents' nodes and the ``rebuild``
        recipe only when a parent requires a gradient; neither callable may
        capture a Tensor.
        """
        nodes = tuple(p.node for p in parents)
        out = Tensor(data, requires_grad=any(n.requires_grad for n in nodes), name=name)
        if out.node.requires_grad:
            out.node.parents = nodes
            out.node.backward = backward
            out.node.rebuild = rebuild
        return out

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        a, b = self.node, other.node

        def backward(grad):
            if a.requires_grad:
                a.accumulate(_unbroadcast(grad, a.shape))
            if b.requires_grad:
                b.accumulate(_unbroadcast(grad, b.shape))

        return self._make(self.data + other.data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self.node

        def backward(grad):
            a.accumulate(-grad)

        return self._make(-self.data, (self,), backward, "neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        a, b = self.node, other.node
        # each operand is kept only for the other operand's gradient
        x = self.data if b.requires_grad else None
        y = other.data if a.requires_grad else None

        def backward(grad):
            if a.requires_grad:
                a.accumulate(_unbroadcast(grad * y, a.shape))
            if b.requires_grad:
                b.accumulate(_unbroadcast(grad * x, b.shape))

        return self._make(self.data * other.data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        a, b = self.node, other.node
        x = self.data if b.requires_grad else None
        y = other.data

        def backward(grad):
            if a.requires_grad:
                a.accumulate(_unbroadcast(grad / y, a.shape))
            if b.requires_grad:
                b.accumulate(_unbroadcast(-grad * x / (y**2), b.shape))

        return self._make(self.data / other.data, (self, other), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a, x = self.node, self.data

        def backward(grad):
            a.accumulate(grad * exponent * x ** (exponent - 1))

        return self._make(self.data**exponent, (self,), backward, "pow")

    # --------------------------------------------------------------- matmul
    def matmul(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        a, b = self.node, other.node
        x = self.data if b.requires_grad else None
        y = other.data if a.requires_grad else None

        def backward(grad):
            if a.requires_grad:
                a.accumulate(_unbroadcast(np.matmul(grad, np.swapaxes(y, -1, -2)), a.shape))
            if b.requires_grad:
                b.accumulate(_unbroadcast(np.matmul(np.swapaxes(x, -1, -2), grad), b.shape))

        return self._make(np.matmul(self.data, other.data), (self, other), backward, "matmul")

    __matmul__ = matmul

    # ------------------------------------------------------------ unary ops
    def exp(self) -> "Tensor":
        a, data = self.node, np.exp(self.data)

        def backward(grad):
            a.accumulate(grad * data)

        return self._make(data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        a, x = self.node, self.data

        def backward(grad):
            a.accumulate(grad / x)

        return self._make(np.log(self.data), (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        a, data = self.node, np.tanh(self.data)

        def backward(grad):
            a.accumulate(grad * (1.0 - data**2))

        return self._make(data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        a, data = self.node, 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            a.accumulate(grad * data * (1.0 - data))

        return self._make(data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        a, mask = self.node, self.data > 0

        def backward(grad):
            a.accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward, "relu")

    def erf(self) -> "Tensor":
        from scipy.special import erf as _erf

        a, x = self.node, self.data

        def backward(grad):
            a.accumulate(grad * (2.0 / np.sqrt(np.pi)) * np.exp(-x**2))

        return self._make(_erf(x).astype(np.float32), (self,), backward, "erf")

    # ------------------------------------------------------------ reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a, shape = self.node, self.shape

        def backward(grad):
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            # the broadcast copy is fresh: adopt it rather than copy it again
            a.accumulate(np.broadcast_to(grad, shape).copy(), adopt=True)

        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int = -1, keepdims: bool = False) -> "Tensor":
        a = self.node
        data = self.data.max(axis=axis, keepdims=True)
        argmax_mask = (self.data == data).astype(np.float32)
        # distribute ties equally to keep the gradient well defined
        argmax_mask /= np.maximum(argmax_mask.sum(axis=axis, keepdims=True), 1.0)
        out_data = data if keepdims else np.squeeze(data, axis=axis)

        def backward(grad):
            if not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            a.accumulate(grad * argmax_mask)

        return self._make(out_data, (self,), backward, "max")

    # ------------------------------------------------------------ shape ops
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a, original = self.node, self.shape

        def backward(grad):
            a.accumulate(grad.reshape(original))

        return self._make(self.data.reshape(shape), (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        a, inverse = self.node, np.argsort(axes)

        def backward(grad):
            a.accumulate(grad.transpose(inverse))

        return self._make(self.data.transpose(axes), (self,), backward, "transpose")

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        a, shape = self.node, self.shape

        def backward(grad):
            full = np.zeros(shape, dtype=np.float32)
            np.add.at(full, index, grad)
            a.accumulate(full)

        return self._make(self.data[index], (self,), backward, "getitem")

    # ----------------------------------------------------------- composites
    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Set entries where ``mask`` is True to ``value`` (no gradient there)."""
        mask = np.asarray(mask, dtype=bool)
        a, shape = self.node, self.shape

        def backward(grad):
            a.accumulate(_unbroadcast(grad * (~mask), shape))

        data = np.where(mask, np.float32(value), self.data)
        return self._make(data, (self,), backward, "masked_fill")

    # ------------------------------------------------------------- backward
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor (default seed gradient: ones).

        Interior nodes (results of an op, this tensor's included) drop their
        ``grad``, backward closure and rebuild recipe as soon as they have
        run, so only the leaves' gradients survive the call.  Calling
        ``backward()`` again through any part of the released graph raises
        ``RuntimeError``.
        """
        root = self.node
        if not root.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")

        topo: List[Node] = []
        visited = {id(root)}
        stack = [(root, iter(root.parents))]
        while stack:
            current, it = stack[-1]
            for child in it:
                if id(child) not in visited and child.requires_grad:
                    visited.add(id(child))
                    stack.append((child, iter(child.parents)))
                    break
            else:
                topo.append(current)
                stack.pop()

        if any(node.backward is _released for node in topo):
            _released()
        if grad is None:
            grad = np.ones_like(self.data)
        root.grad = np.asarray(grad, dtype=np.float32).copy()
        # Kernels dispatched from inside backward closures are attributed to
        # the bwd phase on the trace timeline (no-op when tracing is off).
        _walks.append(topo)
        try:
            with phase_scope("bwd"):
                for node in reversed(topo):
                    if node.backward is None:
                        continue  # a leaf: its gradient is the result
                    if node.grad is not None:
                        node.backward(node.grad)
                    node.grad = None
                    node.backward = _released
                    node.rebuild = None
        finally:
            _walks.pop()


def parameter(data, name: str = "") -> Tensor:
    """Create a trainable tensor."""
    return Tensor(data, requires_grad=True, name=name)


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [Tensor._wrap(t) for t in tensors]
    nodes = [t.node for t in tensors]
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(grad):
        for node, g in zip(nodes, np.split(grad, splits, axis=axis)):
            node.accumulate(g)

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tensors, backward, "concatenate")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [Tensor._wrap(t) for t in tensors]
    nodes = [t.node for t in tensors]

    def backward(grad):
        for node, g in zip(nodes, np.split(grad, len(nodes), axis=axis)):
            node.accumulate(np.squeeze(g, axis=axis))

    data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tensors, backward, "stack")
