"""Numerically-stable softmax for dense and N:M-compressed score matrices.

Because the compressed nonzero matrix is only ``N/M`` of the dense width, the
softmax that follows the SDDMM touches half as much data (Section 3.2: "the
succeeding softmax is also accelerated").  The sparse variant normalises over
the *stored* entries only, which is mathematically identical to a dense
softmax whose pruned logits were set to ``-inf``.

The sparse softmax is registered as the ``masked_softmax`` kernel with two
backends: ``reference`` (row-chunked loop, mirroring the long-sequence CUDA
implementation of Appendix A.4) and ``fast`` (cache-blocked in-place passes,
:func:`masked_softmax_values`).  Both normalise a compressed N:M score
matrix; the fused attention kernels run their own softmax inside each tile.

N:M denominator order.  On an N:M layout the fast core does not sum a row of
compressed probabilities left to right: each M-group's N kept values are
added first, in ascending lane order, and ``np.sum`` then reduces the
contiguous per-group sums (:func:`grouped_row_sum`).  The fused
``nm_attention`` tile sums its exponentiated lane planes, where every
dropped lane is an exact zero, with the same function; adding an exact zero
never rounds, so the tile's denominators equal the compressed ones bit for
bit.  The tile defers the divide: it normalises its ``(rows, d)`` output
after P·V, and the compressed probabilities when they are asked for, never
the planes themselves.
The ``reference`` backend sums in the same order, so the backends agree
bit for bit on exactly representable inputs.  For 1:2 this is the plain row
sum; for 2:4 a denominator can differ by a few ulps from a plain ``np.sum``
over the compressed row.  Row-block rows are plain row sums.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.backend import FAST, REFERENCE, get_kernel, register_kernel
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
    ``group`` is :func:`denominator_group` of the layout.
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


def denominator_group(layout) -> int:
    """Lanes per group of ``layout``'s softmax denominator: N on an N:M layout
    (see the module note), else 1 (a plain row sum)."""
    return layout.pattern.n if isinstance(layout, NMSparseMatrix) else 1


def _chunked_row_softmax(
    values: np.ndarray,
    out: np.ndarray,
    group: int = 1,
    chunk_rows: int = 2048,
) -> np.ndarray:
    """Masked row softmax over full-width rows, written into ``out``.

    Rows are processed in cache-sized chunks and every elementwise op lands in
    ``out`` (which may alias ``values``), so the whole pass keeps one chunk of
    temporaries resident instead of eight full-tensor ones — this is what
    makes the fast backend beat the reference loop at default scale.
    ``group > 1`` sums each row's denominator in the N:M order
    (:func:`grouped_row_sum` over groups of ``group`` consecutive lanes).
    """
    flat = values.reshape(-1, values.shape[-1])
    oflat = out.reshape(flat.shape)
    for start in range(0, flat.shape[0], chunk_rows):
        stop = min(start + chunk_rows, flat.shape[0])
        vals = flat[start:stop]
        o = oflat[start:stop]
        masked = vals <= MASKED_LOGIT_THRESHOLD
        # without masked lanes both selects are identities; skip them
        any_masked = masked.any()
        live = np.where(masked, -np.inf, vals) if any_masked else vals
        row_max = np.max(live, axis=-1, keepdims=True)
        row_max = np.where(np.isfinite(row_max), row_max, 0.0)
        np.subtract(vals, row_max, out=o)  # repro: owns-buffer — caller-provided out
        np.exp(o, out=o)  # repro: owns-buffer — caller-provided out
        if any_masked:
            o[masked] = 0.0  # repro: owns-buffer — caller-provided out
        denom = _row_sum(o, group)
        # repro: owns-buffer — caller-provided out
        np.divide(o, np.where(denom == 0.0, 1.0, denom), out=o)
    return out


def masked_softmax_values(
    values: np.ndarray, out: Optional[np.ndarray] = None, group: int = 1
) -> np.ndarray:
    """Value-space masked row softmax of the fast kernel.

    ``out`` may alias ``values`` for in-place execution.  ``group`` is
    :func:`denominator_group` of the layout (N on N:M layouts).
    """
    if out is None:
        out = np.empty_like(values)
    return _chunked_row_softmax(values, out, group)


def sparse_softmax(scores, backend: Optional[str] = None):
    """Row softmax over the stored nonzeros of a compressed score matrix.

    ``scores`` may be any :class:`~repro.core.layout.CompressedLayout` — the
    kernel only touches ``.values`` and the structure is carried through
    unchanged.  Entries produced by blocked-ELL masking (values ≤
    ``MASKED_LOGIT_THRESHOLD``, the masked-score sentinel) are excluded from
    the normalisation and receive exactly zero weight.
    ``backend`` selects the registered ``masked_softmax`` implementation
    (default: ``$REPRO_BACKEND``, else "fast").
    """
    return get_kernel("masked_softmax", backend)(scores)


@register_kernel("masked_softmax", FAST)
def _sparse_softmax_fast(scores):
    """Cache-blocked in-place passes over the compressed rows."""
    return scores.with_values(
        masked_softmax_values(scores.values, group=denominator_group(scores))
    )


@register_kernel("masked_softmax", REFERENCE)
def _sparse_softmax_reference(scores):
    """Row-chunked loop implementation (the Appendix A.4 structure)."""
    return sparse_softmax_streaming(scores)


def sparse_softmax_streaming(scores, chunk_rows: int = 1024):
    """Chunked variant of :func:`sparse_softmax` for very long sequences.

    Mirrors the "long sequence" softmax implementation discussed in Appendix
    A.4: rows are processed in chunks so only a bounded slice of the score
    matrix is resident at once.  Numerically identical to the one-shot version.
    """
    vals = scores.values
    flat = vals.reshape(-1, vals.shape[-1])
    out = np.empty_like(flat)
    group = denominator_group(scores)
    for start in range(0, flat.shape[0], chunk_rows):
        stop = min(start + chunk_rows, flat.shape[0])
        exp, denom = masked_exp_terms(flat[start:stop], group)
        out[start:stop] = exp / denom
    return scores.with_values(out.reshape(vals.shape))
