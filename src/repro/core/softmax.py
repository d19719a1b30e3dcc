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
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.backend import FAST, REFERENCE, get_kernel, register_kernel

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


def masked_exp_terms(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unnormalised softmax numerator and denominator over stored nonzeros.

    Returns ``(exp, denom)`` where ``exp`` holds the max-subtracted
    exponentials (zero at masked-logit positions) and ``denom`` their row sums
    with fully-masked rows clamped to one.  ``exp / denom`` is the softmax.
    """
    masked = values <= MASKED_LOGIT_THRESHOLD
    safe_vals = np.where(masked, -np.inf, values)
    row_max = np.max(safe_vals, axis=-1, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    exp = np.where(masked, 0.0, np.exp(safe_vals - row_max))
    denom = np.sum(exp, axis=-1, keepdims=True)
    denom = np.where(denom == 0.0, 1.0, denom)
    return exp, denom


def _chunked_row_softmax(
    values: np.ndarray, out: np.ndarray, chunk_rows: int = 2048
) -> np.ndarray:
    """Masked row softmax over full-width rows, written into ``out``.

    Rows are processed in cache-sized chunks and every elementwise op lands in
    ``out`` (which may alias ``values``), so the whole pass keeps one chunk of
    temporaries resident instead of eight full-tensor ones — this is what
    makes the fast backend beat the reference loop at default scale.
    """
    flat = values.reshape(-1, values.shape[-1])
    oflat = out.reshape(flat.shape)
    for start in range(0, flat.shape[0], chunk_rows):
        stop = min(start + chunk_rows, flat.shape[0])
        vals = flat[start:stop]
        o = oflat[start:stop]
        masked = vals <= MASKED_LOGIT_THRESHOLD
        row_max = np.max(np.where(masked, -np.inf, vals), axis=-1, keepdims=True)
        row_max = np.where(np.isfinite(row_max), row_max, 0.0)
        np.subtract(vals, row_max, out=o)  # repro: owns-buffer — caller-provided out
        np.exp(o, out=o)  # repro: owns-buffer — caller-provided out
        o[masked] = 0.0  # repro: owns-buffer — caller-provided out
        denom = np.sum(o, axis=-1, keepdims=True)
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
    segmented: Optional[bool] = None,
) -> np.ndarray:
    """Value-space masked row softmax shared by the fast kernel and the plan.

    ``valid``/``lengths`` are the layout's ``valid_lanes()`` and
    ``row_lengths()`` (``valid is None`` for layouts with no padding lanes,
    e.g. N:M).  ``out`` may alias ``values`` for in-place execution — the
    fused :class:`~repro.core.plan.AttentionPlan` exploits this to reuse the
    score buffer as the probability buffer.

    ``segmented`` pins the implementation choice: ``None`` keeps the
    cost-based auto dispatch; ``True``/``False`` force the segmented or
    chunked pass.  The two passes sum row denominators in different orders
    (``np.add.reduceat`` vs pairwise ``np.sum``), so a caller executing one
    logical softmax as several row tiles must decide the branch *once* on the
    global lengths and pin it for every tile to stay bitwise-identical — a
    tile's local ``lengths.min()`` can otherwise flip the dispatch.
    """
    if out is None:
        out = np.empty_like(values)
    if valid is None:
        return _chunked_row_softmax(values, out)
    if segmented is None:
        # no padding lanes anywhere: the dense chunked pass is cheaper than
        # the gather/scatter of the segmented one
        segmented = int(lengths.min()) < values.shape[-1]
    if not segmented:
        return _chunked_row_softmax(values, out)
    return _segmented_row_softmax(values, valid, lengths, out)


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
    return scores.with_values(masked_softmax_values(scores.values, valid, lengths))


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
    for start in range(0, flat.shape[0], chunk_rows):
        stop = min(start + chunk_rows, flat.shape[0])
        exp, denom = masked_exp_terms(flat[start:stop])
        out[start:stop] = exp / denom
    return scores.with_values(out.reshape(vals.shape))
