"""Differentiable functional building blocks on top of the autograd Tensor."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.autograd import Tensor
from repro.utils.seeding import attention_dropout_keep, draw_dropout_seed

#: Large negative number used to mask logits (kept finite for fp32 stability).
NEG_INF = -1e9


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax that assigns zero probability where ``mask`` is False.

    ``mask`` is a plain boolean ndarray (it is data-dependent but treated as a
    constant of the graph, exactly like the DFSS pruning decision which is not
    differentiated through).

    A row whose mask is entirely False gets *zero* attention everywhere: the
    finite ``NEG_INF`` fill alone would make such a row a uniform ``1/n``
    distribution, silently leaking weight onto pruned positions.  The zeroing
    multiplies by a 0/1 constant, so gradients stay finite.
    """
    mask = np.asarray(mask, dtype=bool)
    filled = x.masked_fill(~mask, NEG_INF)
    weights = softmax(filled, axis=axis)
    row_alive = np.any(mask, axis=axis, keepdims=True)
    if not row_alive.all():
        weights = weights * row_alive.astype(np.float32)
    return weights


def dense_masked_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask,
    dropout_p: float = 0.0,
    dropout_rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """The dense ground truth of every mask-based core: ``masked_softmax(QKᵀ/√d) @ V``.

    ``mask`` is a boolean ndarray broadcastable to the score matrix, or a
    callable deriving it from the detached scores (the mask is a constant of
    the graph either way).  Dropout with ``dropout_p > 0`` draws one seed from
    ``dropout_rng`` and hashes it with the dense position of every weight, the
    keep mask the compressed ops of :mod:`repro.nn.sparse_attention` evaluate
    on their stored nonzeros — so a seeded core and this oracle drop the same
    (row, column) entries.
    """
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    if callable(mask):
        mask = mask(scores.data)
    weights = masked_softmax(scores, mask, axis=-1)
    if dropout_p > 0.0:
        seed = draw_dropout_seed(dropout_rng)
        positions = np.arange(weights.data.size, dtype=np.uint64).reshape(weights.shape)
        weights = weights * Tensor(attention_dropout_keep(seed, dropout_p, positions))
    return weights @ v


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def relu(x: Tensor) -> Tensor:
    return x.relu()


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` over the last axis, as one graph node.

    The node keeps ``weight`` only for ``dx`` and ``x`` only for ``dW``.
    When ``x``'s node carries a rebuild recipe (the output of ``layer_norm``
    or ``gelu``), it keeps the recipe instead of ``x`` and calls it in the
    backward, so ``x`` dies with the forward and ``dW`` reads a bitwise
    copy of it rebuilt from the producer's saved arrays.  Its backward runs
    on the rows of ``x`` flattened to 2-D: ``dx = grad @ weightᵀ``, ``dW``
    is one GEMM ``xᵀ @ grad`` and ``db`` a row sum of ``grad``.
    """
    in_features, out_features = weight.shape
    out = x.data.reshape(-1, in_features) @ weight.data
    if bias is not None:
        out += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    x_node, w_node = x.node, weight.node
    b_node = None if bias is None else bias.node
    x_shape = x.shape
    rebuild = x_node.rebuild if w_node.requires_grad else None
    data = x.data if w_node.requires_grad and rebuild is None else None
    w = weight.data if x_node.requires_grad else None

    def backward(grad):
        grad = grad.reshape(-1, out_features)
        # dW first: a rebuilt input dies with this expression, before dx exists
        if w_node.requires_grad:
            w_node.accumulate(
                (data if rebuild is None else rebuild()).reshape(-1, in_features).T @ grad
            )
        if x_node.requires_grad:
            x_node.accumulate((grad @ w.T).reshape(x_shape), adopt=True)
        if b_node is not None and b_node.requires_grad:
            b_node.accumulate(grad.sum(axis=0))

    return Tensor._make(out.reshape(x_shape[:-1] + (out_features,)), parents, backward, "linear")


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit ``x·Φ(x)`` (erf form, as in BERT), as one node.

    The node keeps its input and the normal CDF ``Φ(x)``; the backward is
    ``grad · (Φ(x) + x·φ(x))`` with the normal density ``φ`` computed there.
    Its rebuild recipe is the forward's own product ``x·Φ(x)`` of those two
    arrays, so a consuming ``linear`` keeps no copy of the output.
    """
    from scipy.special import erf

    x_node, data = x.node, x.data
    cdf = erf(data * np.float32(1.0 / np.sqrt(2.0)))
    cdf += 1.0
    cdf *= 0.5

    def backward(grad):
        local = data * data
        local *= -0.5
        np.exp(local, out=local)
        local *= data
        local *= np.float32(1.0 / np.sqrt(2.0 * np.pi))
        local += cdf
        local *= grad
        x_node.accumulate(local, adopt=True)

    return Tensor._make(data * cdf, (x,), backward, "gelu", rebuild=lambda: data * cdf)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis, as one graph node.

    The node keeps the normalised input ``x̂`` and the per-row ``1/σ``, not
    ``x``; the backward is ``dx = (g - mean(g) - x̂·mean(g·x̂)) / σ`` with
    ``g = grad·w``, ``dw`` the row sum of ``grad·x̂`` and ``db`` the row sum
    of ``grad``.  It holds two input-sized arrays besides ``x̂``: ``dx`` and
    ``g``, whose buffer takes ``x̂·mean(g·x̂)`` once its mean is read.  Its
    rebuild recipe repeats the forward's ``x̂·w + b``, same ops in the same
    order, so a consuming ``linear`` keeps no copy of the output.
    """
    dim = x.shape[-1]
    normed = x.data - x.data.mean(axis=-1, keepdims=True)
    inv_std = np.mean(normed * normed, axis=-1, keepdims=True)
    inv_std += eps
    np.sqrt(inv_std, out=inv_std)
    np.reciprocal(inv_std, out=inv_std)
    normed *= inv_std
    w_data, b_data = weight.data, bias.data

    def affine():
        out = normed * w_data
        out += b_data
        return out

    x_node, w_node, b_node = x.node, weight.node, bias.node
    w = w_data if x_node.requires_grad else None

    def backward(grad):
        if w_node.requires_grad:
            w_node.accumulate((grad * normed).reshape(-1, dim).sum(axis=0))
        if b_node.requires_grad:
            b_node.accumulate(grad.reshape(-1, dim).sum(axis=0))
        if x_node.requires_grad:
            g = grad * w
            dx = g - g.mean(axis=-1, keepdims=True)
            g *= normed
            dx -= np.multiply(normed, g.mean(axis=-1, keepdims=True), out=g)
            dx *= inv_std
            x_node.accumulate(dx, adopt=True)

    return Tensor._make(affine(), (x, weight, bias), backward, "layer_norm", rebuild=affine)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    keep = (rng.random(x.shape) >= p).astype(np.float32) / (1.0 - p)
    return x * keep


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``weight[ids]`` with scatter-add gradient."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError("embedding ids must be integers")
    return weight[ids]


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: Optional[int] = None) -> Tensor:
    """Mean cross-entropy between ``logits`` (..., C) and integer ``targets`` (...)."""
    targets = np.asarray(targets)
    log_probs = log_softmax(logits, axis=-1)
    flat_logp = log_probs.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        valid = flat_targets != ignore_index
        safe_targets = np.where(valid, flat_targets, 0)
    else:
        valid = np.ones_like(flat_targets, dtype=bool)
        safe_targets = flat_targets
    picked = flat_logp[np.arange(flat_targets.shape[0]), safe_targets]
    weights = valid.astype(np.float32) / max(1, int(valid.sum()))
    return -(picked * weights).sum()


def accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Classification accuracy of argmax predictions (plain ndarray helper)."""
    preds = np.argmax(np.asarray(logits), axis=-1)
    targets = np.asarray(targets)
    return float((preds == targets).mean()) if targets.size else 0.0


def perplexity_from_loss(nll: float) -> float:
    """Perplexity ``exp(nll)`` with overflow protection."""
    return float(np.exp(min(nll, 30.0)))
