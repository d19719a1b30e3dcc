"""Numerically-stable softmax for dense and N:M-compressed score matrices.

Because the compressed nonzero matrix is only ``N/M`` of the dense width, the
softmax that follows the SDDMM touches half as much data (Section 3.2: "the
succeeding softmax is also accelerated").  The sparse variant normalises over
the *stored* entries only, which is mathematically identical to a dense
softmax whose pruned logits were set to ``-inf``.

The sparse softmax is registered as the ``masked_softmax`` kernel with two
backends: ``reference`` (row-chunked loop, mirroring the long-sequence CUDA
implementation of Appendix A.4) and ``fast`` (cache-blocked in-place passes
that, on ragged padded-CSR layouts, reduce over the ``valid_lanes()`` segments
only instead of the full padded lane width).

:func:`masked_softmax_values` is the shared value-space core: both the fast
registry kernel and the fused :class:`~repro.core.plan.AttentionPlan` call it,
which is what makes the fused plan bitwise-identical to the kernel.

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
over the compressed row.  CSR and row-block rows are plain row sums.
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
    width: Optional[int] = None,
) -> np.ndarray:
    """Masked row softmax over full-width rows, written into ``out``.

    Rows are processed in cache-sized chunks and every elementwise op lands in
    ``out`` (which may alias ``values``), so the whole pass keeps one chunk of
    temporaries resident instead of eight full-tensor ones — this is what
    makes the fast backend beat the reference loop at default scale.
    ``group > 1`` sums each row's denominator in the N:M order
    (:func:`grouped_row_sum` over groups of ``group`` consecutive lanes).
    Given a ``width``, the lanes past it are padding: they get zero weight
    and the denominators sum the first ``width`` lanes only.
    """
    flat = values.reshape(-1, values.shape[-1])
    oflat = out.reshape(flat.shape)
    width = flat.shape[-1] if width is None else width
    for start in range(0, flat.shape[0], chunk_rows):
        stop = min(start + chunk_rows, flat.shape[0])
        vals = flat[start:stop]
        o = oflat[start:stop]
        masked = vals <= MASKED_LOGIT_THRESHOLD
        masked[:, width:] = True
        # without masked lanes both selects are identities; skip them
        any_masked = masked.any()
        live = np.where(masked, -np.inf, vals) if any_masked else vals
        row_max = np.max(live, axis=-1, keepdims=True)
        row_max = np.where(np.isfinite(row_max), row_max, 0.0)
        np.subtract(vals, row_max, out=o)  # repro: owns-buffer — caller-provided out
        np.exp(o, out=o)  # repro: owns-buffer — caller-provided out
        if any_masked:
            o[masked] = 0.0  # repro: owns-buffer — caller-provided out
        denom = _row_sum(o[:, :width], group)
        # repro: owns-buffer — caller-provided out
        np.divide(o, np.where(denom == 0.0, 1.0, denom), out=o)
    return out


def _segmented_row_softmax(
    values: np.ndarray,
    valid: np.ndarray,
    lengths: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Masked row softmax reducing over the valid-lane segments only.

    Ragged padded-CSR rows carry on average far fewer valid lanes than the
    padded width; gathering them into one flat vector and using segmented
    ``reduceat`` reductions skips the padding entirely.  Padding lanes of
    ``out`` are exactly zero, fully-masked rows get exactly zero weight.
    """
    flat_lengths = lengths.reshape(-1).astype(np.int64, copy=False)
    # gather before zeroing: ``out`` may alias ``values`` in the fused plan
    flat = values[valid]
    out[...] = 0.0  # repro: owns-buffer — caller-provided out, gathered above
    nonempty = flat_lengths > 0
    if flat.size == 0 or not nonempty.any():
        return out
    starts = np.zeros(flat_lengths.shape[0], dtype=np.int64)
    np.cumsum(flat_lengths[:-1], out=starts[1:])
    # reduceat on an empty segment returns the element at its start index, not
    # an identity — restrict the segment starts to nonempty rows (empty rows
    # stay zero via the zero-initialised output, matching the fully-masked
    # row semantics)
    seg = starts[nonempty]
    reps = flat_lengths[nonempty]
    masked = flat <= MASKED_LOGIT_THRESHOLD
    if masked.any():
        flat = np.where(masked, -np.inf, flat)
    row_max = np.maximum.reduceat(flat, seg)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    flat = flat - np.repeat(row_max, reps)
    np.exp(flat, out=flat)  # exp(-inf) = +0.0 exactly at masked valid lanes
    denom = np.add.reduceat(flat, seg)
    denom = np.where(denom == 0.0, 1.0, denom)
    np.divide(flat, np.repeat(denom, reps), out=flat)
    out[valid] = flat  # repro: owns-buffer — caller-provided out
    return out


def masked_softmax_values(
    values: np.ndarray,
    valid: Optional[np.ndarray] = None,
    lengths: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    group: int = 1,
) -> np.ndarray:
    """Value-space masked row softmax shared by the fast kernel and the plan.

    ``valid``/``lengths`` are the layout's ``valid_lanes()`` and
    ``row_lengths()`` (``valid is None`` for layouts with no padding lanes,
    e.g. N:M).  ``out`` may alias ``values`` for in-place execution — the
    fused :class:`~repro.core.plan.AttentionPlan` exploits this to reuse the
    score buffer as the probability buffer.

    On a padded layout every ``(batch·head)`` slice is normalised in the
    summation order it gets when run alone, whatever the rest of the batch:
    a slice whose rows are ragged takes the segmented pass over its valid
    lanes; one whose rows all hold the same count ``w`` takes the chunked
    pass with its denominators summed over its first ``w`` lanes (its width
    alone) and zero weight past them.  The two passes sum denominators in
    different orders (``np.add.reduceat`` vs pairwise ``np.sum``), and a
    chunked row sum also depends on the row's width, so deciding once for
    the whole batch padded to its widest slice would change a slice's bits
    with its neighbours.  Decided per slice, any cut of the batch into tiles
    gives the same result.

    ``group`` is :func:`denominator_group` of the layout (N on N:M layouts,
    which have no padding lanes).
    """
    if out is None:
        out = np.empty_like(values)
    if valid is None:
        return _chunked_row_softmax(values, out, group)
    for index in np.ndindex(values.shape[:-2]):
        rows = lengths[index]
        width = max(int(rows.max(initial=0)), 1)
        if int(rows.min(initial=width)) < width:
            _segmented_row_softmax(values[index], valid[index], rows, out[index])
        else:
            _chunked_row_softmax(values[index], out[index], width=width)
    return out


def sparse_softmax(scores, backend: Optional[str] = None):
    """Row softmax over the stored nonzeros of a compressed score matrix.

    ``scores`` may be any :class:`~repro.core.layout.CompressedLayout`
    (N:M or padded CSR) — the kernel only touches ``.values`` and the
    structure is carried through unchanged.  Entries produced by blocked-ELL
    or padded-CSR masking (values ≤ ``MASKED_LOGIT_THRESHOLD``, e.g. the
    padding-lane sentinel) are excluded from the normalisation and receive
    exactly zero weight.
    ``backend`` selects the registered ``masked_softmax`` implementation
    (default: ``$REPRO_BACKEND``, else "fast").
    """
    return get_kernel("masked_softmax", backend)(scores)


@register_kernel("masked_softmax", FAST)
def _sparse_softmax_fast(scores):
    """Cache-blocked pass; segmented over ``valid_lanes()`` on ragged layouts."""
    valid = scores.valid_lanes()
    lengths = None if valid is None else scores.row_lengths()
    return scores.with_values(
        masked_softmax_values(
            scores.values, valid, lengths, group=denominator_group(scores)
        )
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
