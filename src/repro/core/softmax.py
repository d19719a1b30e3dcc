"""Numerically-stable softmax for dense and N:M-compressed score matrices.

Because the compressed nonzero matrix is only ``N/M`` of the dense width, the
softmax that follows the SDDMM touches half as much data (Section 3.2: "the
succeeding softmax is also accelerated").  The sparse variant normalises over
the *stored* entries only, which is mathematically identical to a dense
softmax whose pruned logits were set to ``-inf``.

:func:`sparse_softmax` is a plain function, not a registered kernel: it is
the softmax stage of the staged reference chain, the oracle of the fused
``nm_attention`` kernels and the ``dspattn`` shim's ``Softmax``.  The fused
attention kernels run their own softmax inside each tile.

N:M denominator order.  :func:`sparse_softmax` does not sum a row of
compressed probabilities left to right: each M-group's N kept values are
added first, in ascending lane order, and ``np.sum`` then reduces the
contiguous per-group sums (:func:`grouped_row_sum`).  The fused
``nm_attention`` tile sums its exponentiated lane planes, where every
dropped lane is an exact zero, with the same function; adding an exact zero
never rounds, so the tile's denominators equal the compressed ones bit for
bit.  The tile defers the divide: it normalises its ``(rows, d)`` output
after P·V, and the compressed probabilities when they are asked for, never
the planes themselves.
For 1:2 this is the plain row sum; for 2:4 a denominator can differ by a
few ulps from a plain ``np.sum`` over the compressed row.  Row-block rows
are plain row sums.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.sparse import NMSparseMatrix

#: Values at or below this threshold are treated as masked-out logits (they
#: come from blocked-ELL masking in the fused SDDMM) and receive zero weight.
MASKED_LOGIT_THRESHOLD = -1e29


def dense_softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Standard max-subtracted softmax along ``axis``."""
    scores = np.asarray(scores, dtype=np.float32)
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def masked_dense_softmax(
    scores: np.ndarray, mask: np.ndarray, axis: int = -1
) -> np.ndarray:
    """Dense softmax where positions with ``mask == False`` receive zero weight.

    A fully-masked row receives exactly zero weight everywhere (never a
    uniform distribution): pruned positions must not leak attention.
    """
    scores = np.asarray(scores, dtype=np.float32)
    mask = np.asarray(mask, dtype=bool)
    neg = np.where(mask, scores, np.float32(-np.inf))
    with np.errstate(invalid="ignore"):
        # a fully-masked row is all -inf, so shifted = -inf - (-inf) = nan and
        # the isfinite() select zeroes the entire row — together with the
        # denom clamp below this guarantees such rows get exactly zero weight
        # (never a uniform distribution); pinned by the fully-masked-row tests
        shifted = neg - np.max(neg, axis=axis, keepdims=True)
        exp = np.where(np.isfinite(shifted), np.exp(shifted), 0.0)
    denom = np.sum(exp, axis=axis, keepdims=True)
    denom = np.where(denom == 0.0, 1.0, denom)
    return exp / denom


def masked_exp_terms(values: np.ndarray, group: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """Unnormalised softmax numerator and denominator over stored nonzeros.

    Returns ``(exp, denom)`` where ``exp`` holds the max-subtracted
    exponentials (zero at masked-logit positions) and ``denom`` their row sums
    with fully-masked rows clamped to one.  ``exp / denom`` is the softmax.
    ``values`` is ``(rows, width)``; ``group`` is the number of lanes per
    denominator group (N on an N:M layout, see the module note).
    """
    masked = values <= MASKED_LOGIT_THRESHOLD
    safe_vals = np.where(masked, -np.inf, values)
    row_max = np.max(safe_vals, axis=-1, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    exp = np.where(masked, 0.0, np.exp(safe_vals - row_max))
    denom = _row_sum(exp, group)
    denom = np.where(denom == 0.0, 1.0, denom)
    return exp, denom


def grouped_row_sum(lanes) -> np.ndarray:
    """Row sums, keepdims, of groups held as lane arrays: the N:M denominator order.

    ``lanes[j]`` is a ``(rows, groups)`` array of every group's ``j``-th
    lane.  Each group's lanes are added in ascending order, then ``np.sum``
    reduces the contiguous per-group sums along the row.
    """
    sums = lanes[0].copy()
    for lane in lanes[1:]:
        sums += lane
    return np.sum(sums, axis=-1, keepdims=True)


def _row_sum(x: np.ndarray, group: int) -> np.ndarray:
    """Row sums, keepdims, of ``(rows, width)`` ``x`` whose lanes form groups
    of ``group`` consecutive entries (:func:`grouped_row_sum`); ``group=1``
    is the plain row sum."""
    if group == 1:
        return np.sum(x, axis=-1, keepdims=True)
    grouped = x.reshape(x.shape[0], x.shape[-1] // group, group)
    return grouped_row_sum([grouped[..., j] for j in range(group)])


def sparse_softmax(scores: NMSparseMatrix) -> NMSparseMatrix:
    """Row softmax over the stored nonzeros of a compressed N:M score matrix.

    The structure is carried through unchanged.  Entries produced by
    blocked-ELL masking (values ≤ ``MASKED_LOGIT_THRESHOLD``, the
    masked-score sentinel) are excluded from the normalisation and receive
    exactly zero weight.  Denominators are summed in the N:M order (see the
    module note).
    """
    vals = scores.values
    exp, denom = masked_exp_terms(vals.reshape(-1, vals.shape[-1]), scores.pattern.n)
    return scores.with_values((exp / denom).reshape(vals.shape))
