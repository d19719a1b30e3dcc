"""Dynamic N:M selection of attention scores.

The pruning rule is the one implemented by the CUDA epilogue in the paper:
for every group of M consecutive entries along the last axis keep the N
largest ones.  For attention scores "largest" means largest *value* (softmax
is monotonically increasing, so the largest scores carry the largest attention
weights); for static weight pruning the conventional criterion is largest
*absolute* value.  Both are supported via ``criterion``.

All functions are fully vectorised over arbitrary leading batch dimensions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.backend import FAST, REFERENCE, get_kernel, register_kernel
from repro.core.patterns import NMPattern, resolve_pattern

#: Selection criteria supported by :func:`nm_group_topn_indices`.
CRITERIA = ("value", "magnitude")

#: Sentinel written to score positions a mask excludes (a block a structure
#: does not allow, a padded key); large and negative so the sparse softmax
#: assigns them exactly zero weight.
MASKED_SCORE = np.float32(-1e30)


def _group_view(x: np.ndarray, pattern: NMPattern) -> np.ndarray:
    """Reshape the last axis of ``x`` into ``(groups, M)`` groups."""
    x = np.asarray(x, dtype=np.float32)
    pattern.validate_length(x.shape[-1])
    new_shape = x.shape[:-1] + (x.shape[-1] // pattern.m, pattern.m)
    return x.reshape(new_shape)


def _selection_key(groups: np.ndarray, criterion: str) -> np.ndarray:
    if criterion == "value":
        return groups
    if criterion == "magnitude":
        return np.abs(groups)
    raise ValueError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")


def nm_group_topn_indices(
    x: np.ndarray, pattern, criterion: str = "value"
) -> np.ndarray:
    """Indices (within each M-group) of the N kept entries.

    Returns an integer array of shape ``x.shape[:-1] + (groups, N)`` whose
    entries are in ``[0, M)`` and sorted ascending within each group, matching
    the hardware metadata convention (lower index stored first).  Ties are
    broken towards the lower index, which is what a left-to-right register
    comparison produces.
    """
    pattern = resolve_pattern(pattern)
    groups = _group_view(x, pattern)
    key = _selection_key(groups, criterion)
    # stable argsort of the negated key keeps the lower index on ties
    order = np.argsort(-key, axis=-1, kind="stable")
    kept = order[..., : pattern.n]
    kept.sort(axis=-1)
    return kept


def nm_prune_mask(x: np.ndarray, pattern, criterion: str = "value") -> np.ndarray:
    """Boolean mask of the same shape as ``x``: ``True`` where the entry survives."""
    pattern = resolve_pattern(pattern)
    x = np.asarray(x, dtype=np.float32)
    kept = nm_group_topn_indices(x, pattern, criterion)
    groups_shape = x.shape[:-1] + (x.shape[-1] // pattern.m, pattern.m)
    mask = np.zeros(groups_shape, dtype=bool)
    np.put_along_axis(mask, kept, True, axis=-1)
    return mask.reshape(x.shape)


def nm_prune_dense(
    x: np.ndarray,
    pattern,
    criterion: str = "value",
    fill_value: float = 0.0,
) -> np.ndarray:
    """Dense copy of ``x`` with pruned entries replaced by ``fill_value``.

    ``fill_value=-inf`` is the right choice when the result feeds a dense
    softmax (pruned logits must not contribute); ``0.0`` matches the dense
    representation of the compressed matrix after softmax.
    """
    mask = nm_prune_mask(x, pattern, criterion)
    out = np.array(x, dtype=np.float32, copy=True)
    out[~mask] = fill_value
    return out


def nm_compress(
    x: np.ndarray, pattern, criterion: str = "value"
) -> Tuple[np.ndarray, np.ndarray]:
    """Compress ``x`` to ``(values, indices)`` under an N:M pattern.

    ``values`` has shape ``x.shape[:-1] + (kept,)`` with ``kept = cols // M * N``
    and holds the surviving entries in row order.  ``indices`` (same shape,
    ``int8``) holds each surviving entry's offset within its M-group, i.e. the
    information carried by the hardware metadata.
    """
    pattern = resolve_pattern(pattern)
    groups = _group_view(x, pattern)
    kept_idx = nm_group_topn_indices(x, pattern, criterion)
    values = np.take_along_axis(groups, kept_idx, axis=-1)
    flat_shape = x.shape[:-1] + (pattern.kept(x.shape[-1]),)
    return (
        values.reshape(flat_shape).astype(np.float32),
        kept_idx.reshape(flat_shape).astype(np.int8),
    )


# --------------------------------------------------------------- fast kernels
#
# The hardware patterns (1:2 and 2:4) admit branch-free selection networks
# that replace the generic per-group argsort with a handful of vectorised
# comparisons.  Tie-breaking matches :func:`nm_group_topn_indices` exactly
# (equal keys keep the lower index), so the fast path is bit-identical to the
# reference on any input with a defined ordering (ties, blocked-ELL
# sentinels, and infinities included; only NaN scores are unspecified, as
# they already are for the argsort reference).
#
# Values are re-assembled by multiplying the *bit patterns* (viewed as
# uint32) with the boolean selection masks instead of ``np.where``, which
# avoids both np.where's slow multi-operand buffering and any float
# arithmetic on the selected values (``0 * inf`` would poison a float
# formulation).


def _group_columns(groups: np.ndarray):
    """Contiguous copies of the M columns of ``(..., G, M)`` groups."""
    return tuple(np.ascontiguousarray(groups[..., i]) for i in range(groups.shape[-1]))


def _keep_bools_24(key_cols):
    """Per-column survival masks for a 2:4 pattern from the 4 key columns.

    Element ``i`` "beats" element ``j`` when it wins the reference tie-break:
    ``key_i >= key_j`` for ``i < j`` and ``key_i > key_j`` for ``i > j``.  The
    beats relation is a total order, so the top-2 are exactly the entries
    that beat at least two of the other three (a majority of their three
    comparisons), and since exactly two survive, d survives iff an odd
    number of a, b and c do.
    """
    a, b, c, d = key_cols
    ab = a >= b
    ac = a >= c
    ad = a >= d
    bc = b >= c
    bd = b >= d
    cd = c >= d
    # on bools ``x > y`` is ``x and not y``
    keep_a = (ab & (ac | ad)) | (ac & ad)
    keep_b = (bc & bd) | ((bc | bd) > ab)
    keep_c = (cd > (ac & bc)) | ~(ac | bc)
    keep_d = keep_a ^ keep_b ^ keep_c
    return keep_a, keep_b, keep_c, keep_d


def nm_keep_lanes(lanes, pattern, criterion: str = "value") -> Tuple[np.ndarray, ...]:
    """Per-lane survival bools of N:M groups held as M lane arrays.

    ``lanes[i]`` holds the ``i``-th entry of every group (all M arrays share
    one shape); the result is one bool array per lane, ``True`` where the
    entry is among its group's N kept ones under the tie-break of
    :func:`nm_group_topn_indices`.  1:2 and 2:4 run the branch-free
    selection networks; any other pattern ranks the stacked lanes with the
    generic argsort.  This is the one selection rule of the fast kernels:
    :func:`nm_prune_mask_fast` and the fused ``nm_attention`` tile both take
    their keep bools from here.
    """
    pattern = resolve_pattern(pattern)
    keys = tuple(_selection_key(lane, criterion) for lane in lanes)
    if (pattern.n, pattern.m) == (1, 2):
        take_second = keys[1] > keys[0]
        return ~take_second, take_second
    if (pattern.n, pattern.m) == (2, 4):
        return _keep_bools_24(keys)
    kept = nm_group_topn_indices(np.stack(keys, axis=-1), pattern)
    mask = np.zeros(kept.shape[:-2] + (pattern.m,), dtype=bool)
    np.put_along_axis(mask, kept[..., 0, :], True, axis=-1)
    return tuple(mask[..., i] for i in range(pattern.m))


def nm_compress_lanes(lanes, keep, pattern) -> Tuple[np.ndarray, np.ndarray]:
    """Compressed ``(values, indices)`` of lane-held groups from their keep bools.

    ``lanes`` and ``keep`` are as :func:`nm_keep_lanes` takes and returns
    them; the result has shape ``lanes[0].shape[:-1] + (groups · N,)`` with
    every group's kept entries in ascending in-group order, exactly as
    :func:`nm_compress` lays them out.
    """
    pattern = resolve_pattern(pattern)
    if (pattern.n, pattern.m) == (1, 2):
        a, b = (lane.view(np.uint32) for lane in lanes)
        bits = a * keep[0] + b * keep[1]
        return bits.view(np.float32), keep[1].view(np.int8)
    if (pattern.n, pattern.m) == (2, 4):
        values, indices = _compress_lanes_24(lanes, keep)
    else:
        order = np.argsort(~np.stack(keep, axis=-1), axis=-1, kind="stable")
        indices = order[..., : pattern.n]
        values = np.take_along_axis(np.stack(lanes, axis=-1), indices, axis=-1)
    flat_shape = lanes[0].shape[:-1] + (lanes[0].shape[-1] * pattern.n,)
    return (
        values.reshape(flat_shape).astype(np.float32, copy=False),
        indices.reshape(flat_shape).astype(np.int8, copy=False),
    )


def _compress_lanes_24(lanes, keep):
    keep_a, keep_b, keep_c, keep_d = keep
    # kept indices in ascending order: the first kept entry is a if a
    # survives, else b if b survives, else it must be c; symmetrically for
    # the second kept entry from the high end.
    first_b = keep_b & ~keep_a
    first_c = ~(keep_a | keep_b)
    last_c = keep_c & ~keep_d
    last_b = ~(keep_c | keep_d)
    a, b, c, d = (lane.view(np.uint32) for lane in lanes)
    v0 = (a * keep_a + b * first_b + c * first_c).view(np.float32)
    v1 = (d * keep_d + c * last_c + b * last_b).view(np.float32)
    i0 = (~keep_a).view(np.uint8) + first_c
    i1 = np.uint8(1) + (keep_d.view(np.uint8) << 1) + last_c
    values = np.stack([v0, v1], axis=-1)
    indices = np.stack([i0, i1], axis=-1).view(np.int8)
    return values, indices


@register_kernel("nm_prune_mask", FAST)
def nm_prune_mask_fast(x: np.ndarray, pattern, criterion: str = "value") -> np.ndarray:
    """Drop-in replacement for :func:`nm_prune_mask` using selection networks."""
    pattern = resolve_pattern(pattern)
    x = np.asarray(x, dtype=np.float32)
    lanes = _group_columns(_group_view(x, pattern))
    keep = nm_keep_lanes(lanes, pattern, criterion)
    return np.stack(keep, axis=-1).reshape(x.shape)


register_kernel("nm_prune_mask", REFERENCE)(nm_prune_mask)


def nm_prune_mask_any_width(x: np.ndarray, pattern, backend=None) -> np.ndarray:
    """``backend``'s ``nm_prune_mask`` of scores ``x`` at any last-axis width.

    The rule the N:M kernels select by: a width that is not a multiple of M
    is padded with ``MASKED_SCORE`` lanes up to whole groups, selected, and
    cropped back, so the last group keeps its N largest real scores (all of
    them when it holds N or fewer).  A width M divides is selected as it is.
    """
    pattern = resolve_pattern(pattern)
    width = x.shape[-1]
    pad = pattern.padded(width) - width
    if pad:
        x = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, pad)], constant_values=MASKED_SCORE)
    return get_kernel("nm_prune_mask", backend)(x, pattern)[..., :width]


def nm_decompress(
    values: np.ndarray, indices: np.ndarray, pattern, cols: int, fill_value: float = 0.0
) -> np.ndarray:
    """Inverse of :func:`nm_compress`: scatter compressed values back to dense."""
    pattern = resolve_pattern(pattern)
    pattern.validate_length(cols)
    values = np.asarray(values, dtype=np.float32)
    indices = np.asarray(indices)
    if values.shape != indices.shape:
        raise ValueError(
            f"values shape {values.shape} and indices shape {indices.shape} differ"
        )
    expected_kept = pattern.kept(cols)
    if values.shape[-1] != expected_kept:
        raise ValueError(
            f"compressed width {values.shape[-1]} does not match kept({cols})={expected_kept}"
        )
    groups = cols // pattern.m
    g_vals = values.reshape(values.shape[:-1] + (groups, pattern.n))
    g_idx = indices.reshape(indices.shape[:-1] + (groups, pattern.n)).astype(np.int64)
    dense_groups = np.full(values.shape[:-1] + (groups, pattern.m), fill_value, dtype=np.float32)
    np.put_along_axis(dense_groups, g_idx, g_vals, axis=-1)
    return dense_groups.reshape(values.shape[:-1] + (cols,))


def global_column_indices(indices: np.ndarray, pattern, cols: int) -> np.ndarray:
    """Convert within-group offsets to absolute column indices in the dense matrix."""
    pattern = resolve_pattern(pattern)
    pattern.validate_length(cols)
    indices = np.asarray(indices)
    groups = cols // pattern.m
    kept = groups * pattern.n
    if indices.shape[-1] != kept:
        raise ValueError(
            f"indices width {indices.shape[-1]} does not match kept({cols})={kept}"
        )
    # int32 offsets: half the expansion cost of int64, and sequence lengths
    # are far below 2**31 columns
    group_base = np.repeat(np.arange(groups, dtype=np.int32) * pattern.m, pattern.n)
    return indices.astype(np.int32) + group_base


def density_of_mask(mask: np.ndarray) -> float:
    """Fraction of ``True`` entries in a boolean mask (the paper's density ``s``)."""
    mask = np.asarray(mask, dtype=bool)
    return float(mask.mean()) if mask.size else 0.0
