"""Ragged attention kernels with exact request-isolation for the serving engine.

The batcher's whole promise is that coalescing requests is *free* in terms of
numerics: a request served inside a mixed ragged batch must produce output
bitwise-identical to the same request served alone.  Naive dense batching
breaks that promise — numpy's pairwise summation chooses its reduction trees
from the array extents, so padding a request's rows to the widest request in
the batch would change the last bits of its output.

The fused execution paths (:func:`ragged_attention` with per-sequence
``row_blocks``/``key_blocks``, and :func:`grouped_attention` for segments
sharing a cached structure) therefore make the *sequence* the unit of shape
determinism: every reduction runs on arrays whose extents are fixed by the
sequence's own row count, its own key count and its structure's own lane
width, never by the batch around it.  Identical shapes through identical ops
give identical reduction trees, so batch composition and stacking depth
cannot perturb a bit.  Scores and the output projection go through dense
BLAS matmuls over the segment's *own* key range (selecting / scattering the
compressed lanes around them) — on CPU that is several times faster than
gather-driven lane arithmetic, and a GEMM's reduction tree is a function of
its operand shapes, which the segment fixes.

The three stage kernels (:func:`ragged_sddmm` / :func:`ragged_masked_softmax`
/ :func:`ragged_spmm`) are the stricter width-*invariant* reference
formulation: a Python left fold over lanes in ascending order, where trailing
padding lanes contribute an exact additive identity (``+0.0``; the
accumulator can never be ``-0.0`` because it starts at ``+0.0`` and
``+0.0 + ±0.0 = +0.0``), so even re-padding a structure to a wider lane count
leaves their output bit-for-bit unchanged.  They are the oracle the fused
paths are tested against and the spelled-out semantics of the pipeline.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sanitize import check_output, freeze_structure, guard_input
from repro.core.backend import MULTICORE, resolve_backend
from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.sddmm import MASKED_SCORE
from repro.profile.tracer import current_tracer


def _kernel_span(name: str, **args):
    """Manual kernel span for the serving fast paths (they bypass the registry)."""
    tracer = current_tracer()
    if tracer is None:
        return nullcontext()
    return tracer.span(name, "kernel", backend="serve", **args)

__all__ = [
    "ragged_sddmm",
    "ragged_masked_softmax",
    "ragged_spmm",
    "ragged_attention",
    "GroupedPlan",
    "grouped_plan",
    "grouped_attention",
]



def ragged_sddmm(
    q: np.ndarray,
    k: np.ndarray,
    structure: PaddedCSRMatrix,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Sampled dense-dense scores ``(q kᵀ) * scale`` on the stored lanes.

    ``q`` is ``(rows, d)``, ``k`` is ``(dense_cols, d)`` — the concatenated
    query/key rows of a ragged batch — and ``structure`` a 2-D padded-CSR
    structure whose columns index into ``k``.  Padding lanes are stamped with
    the ``MASKED_SCORE`` sentinel.  One einsum per lane keeps the ``d``
    reduction tree independent of the batch extents.
    """
    rows, d = q.shape
    if structure.batch_shape != () or structure.rows != rows:
        raise ValueError(
            f"structure rows {structure.dense_shape} do not match q rows {rows}"
        )
    if k.shape != (structure.dense_cols, d):
        raise ValueError(
            f"k shape {k.shape} != ({structure.dense_cols}, {d})"
        )
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    qs = q * np.float32(scale)
    cols = structure.cols
    scores = np.empty((rows, structure.width), dtype=np.float32)
    for lane in range(structure.width):
        scores[:, lane] = np.einsum("rd,rd->r", k[cols[:, lane]], qs)
    return np.where(structure.valid_lanes(), scores, MASKED_SCORE)


def ragged_masked_softmax(
    scores: np.ndarray, structure: PaddedCSRMatrix
) -> np.ndarray:
    """Row softmax over the valid lanes; fully masked rows get exactly zero.

    The max is width-invariant by construction (padding lanes carry the
    sentinel, and ``max`` is exactly associative); the denominator is a left
    fold over lanes so appending padding lanes appends exact ``+0.0`` terms.
    """
    valid = structure.valid_lanes()
    peak = scores.max(axis=-1, keepdims=True)
    exp = np.where(valid, np.exp(scores - peak), np.float32(0.0))
    denom = np.zeros(exp.shape[:-1], dtype=np.float32)
    for lane in range(exp.shape[-1]):
        denom = denom + exp[:, lane]
    safe = np.where(denom > np.float32(0.0), denom, np.float32(1.0))
    return exp / safe[:, None]


def ragged_spmm(
    probs: np.ndarray, structure: PaddedCSRMatrix, v: np.ndarray
) -> np.ndarray:
    """``probs @ v`` on the compressed lanes, accumulated as a left lane fold."""
    rows, width = probs.shape
    out = np.zeros((rows, v.shape[-1]), dtype=np.float32)
    cols = structure.cols
    for lane in range(width):
        out = out + probs[:, lane, None] * v[cols[:, lane]]
    return out


def _fold_attention_block(
    qs: np.ndarray,
    cols: np.ndarray,
    lengths: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """Vectorised masked attention over one sequence block (``qs`` pre-scaled).

    The block is one segment of a block-diagonal ragged batch; ``k``/``v``
    are *its own* key rows and ``cols`` indexes into them.  The lane count is
    clipped to the block's own longest row and the GEMM extents are fixed by
    the block's own ``(rows, n_k, d)``, so every array shape — and therefore
    every numpy reduction tree — is identical whether the segment shares the
    batch with one request or fifty.  That shape-determinism is what makes
    the fused path bitwise reproducible without the per-lane folds of the
    stage kernels above.

    Padding lanes can carry columns outside the block's key range (the
    block-diagonal concat clamps them to absolute column 0): they are clipped
    for the score select (then masked to the sentinel) and scattered to an
    extra sentinel column the output GEMM drops.
    """
    rows = qs.shape[0]
    n_k = k.shape[0]
    width = int(lengths.max()) if rows else 0
    if rows == 0 or width == 0:
        return np.zeros((rows, v.shape[-1]), dtype=np.float32)
    cols = np.clip(cols[:, :width], 0, n_k - 1).astype(np.int64, copy=False)
    valid = np.arange(width, dtype=lengths.dtype) < lengths[:, None]
    scores_full = np.matmul(qs, k.T)
    scores = np.take_along_axis(scores_full, cols, axis=1)
    scores = np.where(valid, scores, MASKED_SCORE)
    peak = scores.max(axis=-1, keepdims=True)
    exp = np.where(valid, np.exp(scores - peak), np.float32(0.0))
    denom = exp.sum(axis=-1)
    safe = np.where(denom > np.float32(0.0), denom, np.float32(1.0))
    probs = exp / safe[:, None]
    scatter = np.where(valid, cols, np.int64(n_k))
    dense_probs = np.zeros((rows, n_k + 1), dtype=np.float32)
    np.put_along_axis(dense_probs, scatter, probs, axis=1)
    return np.matmul(dense_probs[:, :n_k], v)


def ragged_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    structure: PaddedCSRMatrix,
    scale: Optional[float] = None,
    row_blocks: Optional[Sequence[Tuple[int, int]]] = None,
    key_blocks: Optional[Sequence[Tuple[int, int]]] = None,
) -> np.ndarray:
    """Masked attention over one ragged batch: SDDMM → softmax → SpMM.

    ``row_blocks`` names contiguous ``(start, stop)`` row ranges — the
    per-sequence blocks of a block-diagonal ragged batch (default: one block
    spanning every row) — and ``key_blocks`` the matching key-row ranges of
    each block (default: the full key range for every block).  Each block is
    computed with fully vectorised kernels whose array shapes are fixed by
    the block's own rows, its own key count and its own longest lane count,
    so the block partition is the unit of bitwise reproducibility: serving a
    sequence alone and serving it as one block of a fifty-request batch run
    the *same shapes through the same ops* and produce identical bits.  The
    serving batcher therefore always partitions per sequence, handing each
    block exactly its sequence's key range — which also keeps the GEMM
    working set cache-local however large the coalesced batch grows.
    """
    q = guard_input(q)
    k = guard_input(k)
    v = guard_input(v)
    rows, d = q.shape
    if structure.batch_shape != () or structure.rows != rows:
        raise ValueError(
            f"structure rows {structure.dense_shape} do not match q rows {rows}"
        )
    if k.shape != (structure.dense_cols, d):
        raise ValueError(f"k shape {k.shape} != ({structure.dense_cols}, {d})")
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    qs = q * np.float32(scale)
    if row_blocks is None:
        row_blocks = ((0, rows),)
    if key_blocks is None:
        key_blocks = ((0, k.shape[0]),) * len(row_blocks)
    if len(key_blocks) != len(row_blocks):
        raise ValueError(
            f"{len(key_blocks)} key blocks for {len(row_blocks)} row blocks"
        )
    out = np.empty((rows, v.shape[-1]), dtype=np.float32)
    with _kernel_span(
        "ragged_attention", shape=f"{rows}x{d}", blocks=len(row_blocks)
    ):
        for (start, stop), (k0, k1) in zip(row_blocks, key_blocks):
            out[start:stop] = _fold_attention_block(
                qs[start:stop],
                structure.cols[start:stop] - np.int32(k0),
                structure.lengths[start:stop],
                k[k0:k1],
                v[k0:k1],
            )
    return check_output(out, "ragged attention output")


@dataclass
class GroupedPlan:
    """Compiled lane geometry of one shared 2-D padded-CSR structure.

    The grouped fast path recomputes the same structure-only arrays — the
    clipped lane columns, the valid-lane mask, the scatter targets — on every
    batch flush even though they depend only on the (cached, shared)
    structure.  Compiling them once and memoising the plan on the structure's
    shared cache (:func:`grouped_plan`) makes the per-batch work pure GEMM +
    elementwise ops.  The execute path runs the *same arrays through the same
    op sequence* as the uncompiled formulation, so outputs are
    bitwise-identical.
    """

    structure: PaddedCSRMatrix
    #: lane count clipped to the longest stored row (0 for empty structures).
    width: int
    #: ``(rows, width)`` int64 columns, clipped in-range for the score select.
    cols: Optional[np.ndarray]
    #: ``(rows, width)`` valid-lane mask over the clipped width.
    valid: Optional[np.ndarray]
    #: ``(rows, width)`` scatter targets; padding lanes aim at the trash column.
    scatter: Optional[np.ndarray]

    @classmethod
    def compile(cls, structure: PaddedCSRMatrix) -> "GroupedPlan":
        lengths = structure.lengths
        n_k = structure.dense_cols
        width = int(lengths.max()) if structure.rows else 0
        if width == 0:
            return cls(structure, 0, None, None, None)
        cols = np.clip(structure.cols[:, :width], 0, n_k - 1).astype(
            np.int64, copy=False
        )
        valid = np.arange(width, dtype=lengths.dtype) < lengths[:, None]
        scatter = np.where(valid, cols, np.int64(n_k))
        return cls(
            structure,
            width,
            freeze_structure(cols),
            freeze_structure(valid),
            freeze_structure(scatter),
        )

    def __call__(self, qs: np.ndarray, k3: np.ndarray, v3: np.ndarray) -> np.ndarray:
        """Stacked attention over pre-scaled queries ``qs`` of shape ``(g, rows, d)``."""
        g, rows, _ = qs.shape
        n_k = self.structure.dense_cols
        if rows == 0 or self.width == 0:
            return np.zeros((g, rows, v3.shape[-1]), dtype=np.float32)
        scores_full = np.matmul(qs, k3.transpose(0, 2, 1))
        scores = np.take_along_axis(scores_full, self.cols[None], axis=2)
        scores = np.where(self.valid, scores, MASKED_SCORE)
        peak = scores.max(axis=-1, keepdims=True)
        exp = np.where(self.valid, np.exp(scores - peak), np.float32(0.0))
        denom = exp.sum(axis=-1)
        safe = np.where(denom > np.float32(0.0), denom, np.float32(1.0))
        probs = exp / safe[..., None]
        dense_probs = np.zeros((g, rows, n_k + 1), dtype=np.float32)
        np.put_along_axis(dense_probs, self.scatter[None], probs, axis=2)
        return np.matmul(dense_probs[:, :, :n_k], v3)


def grouped_plan(structure: PaddedCSRMatrix) -> GroupedPlan:
    """Compiled :class:`GroupedPlan` for ``structure``, memoised on its shared cache.

    The memo lives in the structure's shared cache dictionary, which
    ``with_values`` siblings share by reference — so a structure resolved
    through the serving :class:`~repro.serve.cache.StructureCache` carries its
    compiled plan across every batch (and every request) that reuses it.
    """
    plan = structure._shared.get("grouped_plan")
    if plan is None:
        plan = GroupedPlan.compile(structure)
        structure._shared["grouped_plan"] = plan
    return plan


def grouped_attention(
    q3: np.ndarray,
    k3: np.ndarray,
    v3: np.ndarray,
    structure: PaddedCSRMatrix,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Attention over ``g`` stacked sequences sharing one 2-D structure.

    ``q3`` is ``(g, rows, d)``, ``k3``/``v3`` are ``(g, dense_cols, ·)``.
    This is the structure-cache fast path: segments of *different requests*
    with the same (mechanism, config, lengths) share the cached structure, so
    one stacked GEMM pipeline replaces ``g`` separate ones — and the
    structure-only lane geometry is compiled once per structure
    (:func:`grouped_plan`) rather than per batch.  A stacked GEMM runs the
    same per-slice kernel as the 2-D case (the trailing extents the shared
    structure fixes are what choose the reduction tree), so each slice of the
    result is bitwise-identical to :func:`ragged_attention` on that slice
    alone — stacking depth, like batch composition, can never perturb a bit.
    """
    q3 = guard_input(q3)
    k3 = guard_input(k3)
    v3 = guard_input(v3)
    g, rows, d = q3.shape
    if structure.batch_shape != () or structure.rows != rows:
        raise ValueError(
            f"structure rows {structure.dense_shape} do not match q rows {rows}"
        )
    if k3.shape[:2] != (g, structure.dense_cols) or k3.shape[2] != d:
        raise ValueError(
            f"k shape {k3.shape} != ({g}, {structure.dense_cols}, {d})"
        )
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    qs = q3 * np.float32(scale)
    plan = grouped_plan(structure)
    with _kernel_span("grouped_attention", shape=f"{g}x{rows}x{d}", group=g):
        if resolve_backend(None) == MULTICORE:
            # each g-slice's reduction extents are fixed by the shared
            # structure, so tiling over g cannot perturb a bit
            from repro.core.multicore import map_tiles

            out = map_tiles(
                "grouped_attention", None, lambda _, q, k, v: plan(q, k, v), qs, k3, v3
            )
        else:
            out = plan(qs, k3, v3)
    return check_output(out, "grouped attention output")
