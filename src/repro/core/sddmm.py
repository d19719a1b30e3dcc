"""SDDMM with a fused N:M pruning epilogue (Section 3.4, Appendix A.1.2).

The paper's key kernel computes ``S = Q Kᵀ`` like an ordinary dense GEMM, but
instead of writing the dense score matrix to memory it prunes each output tile
to N:M sparsity while the accumulators are still in registers and only writes
the compressed nonzeros + metadata.  Functionally this is

    ``sddmm_nm(Q, K) == NMSparseMatrix.from_dense(Q @ K.T * scale)``

:func:`sddmm_nm` is a plain function, not a registered kernel: it loops over
batch/head slices and runs the tile-by-tile kernel (:func:`sddmm_nm_tiled`)
that mirrors the CUDA kernel's blocking (Mtile x Ntile thread-block tiles,
32 x 64-byte epilogue tiles) and doubles as the traffic-count oracle for the
performance model.  It is the first stage of the staged reference chain
that the ``reference`` ``nm_attention`` kernel runs; the fast N:M forward is
the row-tiled ``nm_attention`` kernel (:mod:`repro.core.nm_attention`),
which never writes a compressed score matrix.

The masked SDDMM (``sddmm_masked``) scores an existing compressed structure
and is a registered ``reference``/``fast`` kernel pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.backend import FAST, REFERENCE, get_kernel, register_kernel
from repro.core.blocked_ell import BlockedEllMask
from repro.core.patterns import default_pattern_for_dtype, resolve_pattern
from repro.core.precision import dtype_bytes, simulate_tensor_core_matmul
from repro.core.pruning import nm_compress
from repro.core.sparse import NMSparseMatrix
from repro.utils.shapes import as_batched_3d, restore_batch_shape

#: Sentinel written to score positions excluded by a blocked-ELL mask; large
#: and negative so the sparse softmax assigns them exactly zero weight.
MASKED_SCORE = np.float32(-1e30)


@dataclass
class SddmmTraffic:
    """Bytes moved by one SDDMM launch, used to validate the analytical model."""

    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def total(self) -> int:
        return self.bytes_read + self.bytes_written


def _prepare_inputs(q: np.ndarray, k: np.ndarray):
    q3, batch_shape = as_batched_3d(np.asarray(q, dtype=np.float32))
    k3, k_batch = as_batched_3d(np.asarray(k, dtype=np.float32))
    if batch_shape != k_batch:
        raise ValueError(f"Q batch shape {batch_shape} != K batch shape {k_batch}")
    if q3.shape[-1] != k3.shape[-1]:
        raise ValueError(
            f"Q feature dim {q3.shape[-1]} != K feature dim {k3.shape[-1]}"
        )
    return q3, k3, batch_shape


def sddmm_nm(
    q: np.ndarray,
    k: np.ndarray,
    pattern=None,
    scale: Optional[float] = None,
    dtype: str = "float32",
    criterion: str = "value",
    block_mask: Optional[BlockedEllMask] = None,
) -> NMSparseMatrix:
    """Compute ``scale * Q Kᵀ`` and prune it to N:M sparsity in one step.

    Each ``(batch, head)`` slice runs the tile-by-tile kernel
    (:func:`sddmm_nm_tiled`) in a Python loop, as ``blockIdx.z`` does in the
    CUDA kernel.

    Parameters
    ----------
    q, k:
        ``(..., seq, d)`` query and key matrices (same leading batch shape).
    pattern:
        N:M pattern; defaults to the hardware pattern for ``dtype``
        (1:2 for float32, 2:4 for bfloat16).
    scale:
        Score scaling; defaults to ``1/sqrt(d)`` as in Eq. (1).
    dtype:
        Logical element type; operands are rounded to the tensor-core input
        precision before the multiply.
    criterion:
        "value" (default, what the attention epilogue does) or "magnitude".
    block_mask:
        Optional hybrid blocked-ELL mask; score blocks outside the mask are
        never computed and their groups keep the first N entries with value
        ``-inf`` replaced by a large negative number so softmax ignores them.

    Returns
    -------
    :class:`~repro.core.sparse.NMSparseMatrix` of shape ``(..., seq_q, seq_k)``.
    """
    q3, k3, batch_shape = _prepare_inputs(q, k)
    pattern = (
        default_pattern_for_dtype(dtype) if pattern is None else resolve_pattern(pattern)
    )
    # output tiles of whole M-groups: 126 keys wide for M = 6, say
    ntile = pattern.m * max(1, 128 // pattern.m)
    slices = [
        sddmm_nm_tiled(
            q3[b],
            k3[b],
            pattern=pattern,
            scale=scale,
            dtype=dtype,
            criterion=criterion,
            ntile=ntile,
            block_mask=block_mask,
        )
        for b in range(q3.shape[0])
    ]
    values = restore_batch_shape(np.stack([s.values for s in slices]), batch_shape)
    indices = restore_batch_shape(np.stack([s.indices for s in slices]), batch_shape)
    return NMSparseMatrix(
        values=values,
        indices=indices,
        pattern=pattern,
        dense_cols=k3.shape[-2],
        dtype=dtype,
    )


def sddmm_masked(
    a: np.ndarray,
    b: np.ndarray,
    structure: "CompressedLayout",
    backend: Optional[str] = None,
) -> "CompressedLayout":
    """SDDMM restricted to an existing compressed structure: ``(A Bᵀ) ∘ mask``.

    Computes ``C[i, k] = A[i, :] · B[col(i, k), :]`` for every stored nonzero
    of ``structure`` and returns a compressed matrix sharing that structure.
    ``structure`` is a :class:`~repro.core.layout.CompressedLayout` (the
    N:M layout, whose every lane is a stored entry).  This is the backward-pass sibling of :func:`sddmm_nm`: the
    selection is a constant of the graph, so gradients such as
    ``dP = (dO Vᵀ) ∘ mask`` only ever need the already-chosen positions — no
    pruning epilogue runs here.
    """
    return get_kernel("sddmm_masked", backend)(a, b, structure)


def _check_masked_operands(a: np.ndarray, b: np.ndarray, structure):
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.shape[:-2] != structure.batch_shape or b.shape[:-2] != structure.batch_shape:
        raise ValueError(
            f"operand batch shapes {a.shape[:-2]} / {b.shape[:-2]} != "
            f"sparse batch shape {structure.batch_shape}"
        )
    if a.shape[-2] != structure.rows:
        raise ValueError(
            f"A rows ({a.shape[-2]}) must equal the sparse row count ({structure.rows})"
        )
    if b.shape[-2] != structure.dense_cols:
        raise ValueError(
            f"B rows ({b.shape[-2]}) must equal the dense column count "
            f"({structure.dense_cols})"
        )
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"feature dims differ: {a.shape[-1]} vs {b.shape[-1]}")
    return a, b


@register_kernel("sddmm_masked", REFERENCE)
def _sddmm_masked_reference(
    a: np.ndarray, b: np.ndarray, structure
):
    """Per-slice gather + einsum, walking the metadata like each thread block."""
    a, b = _check_masked_operands(a, b, structure)
    a3, batch_shape = as_batched_3d(a)
    b3, _ = as_batched_3d(b)
    cols3, _ = as_batched_3d(structure.column_indices())
    out = np.empty(cols3.shape, dtype=np.float32)
    for s in range(a3.shape[0]):
        gathered = b3[s][cols3[s]]  # (n_q, kept, d)
        out[s] = np.einsum("qd,qkd->qk", a3[s], gathered, optimize=True)
    return structure.with_values(restore_batch_shape(out, batch_shape))


@register_kernel("sddmm_masked", FAST)
def _sddmm_masked_fast(
    a: np.ndarray, b: np.ndarray, structure
):
    """Batched dense contraction followed by a gather of the stored positions."""
    a, b = _check_masked_operands(a, b, structure)
    a3, _ = as_batched_3d(a)
    b3, _ = as_batched_3d(b)
    dense = np.matmul(a3, np.swapaxes(b3, -1, -2))
    return structure.with_values(structure.gather_dense(dense))


def sddmm_dense(
    q: np.ndarray,
    k: np.ndarray,
    scale: Optional[float] = None,
    dtype: str = "float32",
) -> np.ndarray:
    """Reference dense score matrix ``scale * Q Kᵀ`` (the full-attention path)."""
    q3, k3, batch_shape = _prepare_inputs(q, k)
    d = q3.shape[-1]
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    scores = simulate_tensor_core_matmul(q3, np.swapaxes(k3, -1, -2), dtype) * scale
    return restore_batch_shape(scores, batch_shape)


def sddmm_nm_tiled(
    q: np.ndarray,
    k: np.ndarray,
    pattern=None,
    scale: Optional[float] = None,
    dtype: str = "float32",
    criterion: str = "value",
    mtile: int = 128,
    ntile: int = 128,
    ktile: int = 32,
    traffic: Optional[SddmmTraffic] = None,
    block_mask: Optional[BlockedEllMask] = None,
) -> NMSparseMatrix:
    """Tile-by-tile SDDMM mirroring the CUDA kernel's blocking.

    This is the per-slice body of :func:`sddmm_nm`; the point of the tiling is
    (a) to demonstrate that the pruning epilogue only ever needs the registers
    of one output tile, and (b) to count the DRAM traffic the kernel performs,
    which the analytical model in :mod:`repro.gpusim` must reproduce.

    Only 2-D (single head) inputs are supported; batching is the caller's
    loop, exactly as ``blockIdx.z`` is in the kernel.
    """
    q = np.asarray(q, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    if q.ndim != 2 or k.ndim != 2:
        raise ValueError("sddmm_nm_tiled expects 2-D Q and K (loop over heads outside)")
    n_q, d = q.shape
    n_k, d_k = k.shape
    if d != d_k:
        raise ValueError(f"feature dims differ: {d} vs {d_k}")
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    pattern = (
        default_pattern_for_dtype(dtype) if pattern is None else resolve_pattern(pattern)
    )
    pattern.validate_length(n_k)
    dense_mask = None
    if block_mask is not None:
        dense_mask = block_mask.dense_mask(n_q, n_k)

    elem = dtype_bytes(dtype)
    kept_total = pattern.kept(n_k)
    values = np.empty((n_q, kept_total), dtype=np.float32)
    indices = np.empty((n_q, kept_total), dtype=np.int8)

    for i0 in range(0, n_q, mtile):
        i1 = min(i0 + mtile, n_q)
        for j0 in range(0, n_k, ntile):
            j1 = min(j0 + ntile, n_k)
            if (j1 - j0) % pattern.m != 0:
                raise ValueError(
                    f"tile width {j1 - j0} not divisible by M={pattern.m}; "
                    "choose ntile as a multiple of M"
                )
            # accumulate the output tile in "registers"
            acc = np.zeros((i1 - i0, j1 - j0), dtype=np.float32)
            for p0 in range(0, d, ktile):
                p1 = min(p0 + ktile, d)
                a_frag = q[i0:i1, p0:p1]
                b_frag = k[j0:j1, p0:p1]
                acc += simulate_tensor_core_matmul(a_frag, b_frag.T, dtype)
                if traffic is not None:
                    traffic.bytes_read += a_frag.size * elem + b_frag.size * elem
            acc *= scale
            if dense_mask is not None:
                acc = np.where(dense_mask[i0:i1, j0:j1], acc, MASKED_SCORE)
            # epilogue: prune the tile while it is still "in registers"
            tile_vals, tile_idx = nm_compress(acc, pattern, criterion)
            kept_cols = tile_vals.shape[-1]
            out_j0 = pattern.kept(j0)
            values[i0:i1, out_j0 : out_j0 + kept_cols] = tile_vals
            indices[i0:i1, out_j0 : out_j0 + kept_cols] = tile_idx
            if traffic is not None:
                traffic.bytes_written += tile_vals.size * elem
                # 4-bit metadata per group
                groups = (j1 - j0) // pattern.m * (i1 - i0)
                traffic.bytes_written += groups * pattern.metadata_bits_per_group // 8

    return NMSparseMatrix(
        values=values,
        indices=indices,
        pattern=pattern,
        dense_cols=n_k,
        dtype=dtype,
    )
