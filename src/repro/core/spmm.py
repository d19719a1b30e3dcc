"""SpMM: multiply a compressed attention-weight matrix with dense V.

On the A100 this is the ``mma.sp`` sparse-tensor-core instruction consuming
the (nonzeros, metadata) pair produced by the SDDMM epilogue.  Both
functions here take an :class:`~repro.core.sparse.NMSparseMatrix` and walk
its metadata one batch/head slice at a time, gathering (or scatter-adding)
the addressed rows of the dense operand, as each thread block does.  They
are plain functions, not registered kernels: the SpMM stages of the staged
reference chain (the oracle of the fused ``nm_attention`` kernels and of
their backward) and the ``dspattn`` shim's ``SpMM``.  The fused attention
kernels contract inside their tiles, and the benefit of skipping the pruned
half on real hardware is carried by the device model in
:mod:`repro.gpusim`.
"""

from __future__ import annotations

import numpy as np

from repro.core.sparse import NMSparseMatrix
from repro.utils.shapes import as_batched_3d, restore_batch_shape


def _check_operands(weights: NMSparseMatrix, v: np.ndarray) -> np.ndarray:
    """Validate the sparse/dense operand pair and return V as float32."""
    v = np.asarray(v, dtype=np.float32)
    if v.shape[:-2] != weights.batch_shape:
        raise ValueError(
            f"V batch shape {v.shape[:-2]} != sparse batch shape {weights.batch_shape}"
        )
    if v.shape[-2] != weights.dense_cols:
        raise ValueError(
            f"V rows ({v.shape[-2]}) must equal the dense column count "
            f"({weights.dense_cols}) of the sparse matrix"
        )
    return v


def spmm(weights: NMSparseMatrix, v: np.ndarray) -> np.ndarray:
    """Compute ``A_sparse @ V`` for a compressed N:M ``A_sparse``.

    Parameters
    ----------
    weights:
        Compressed attention-weight matrix of dense shape ``(..., n_q, n_k)``.
    v:
        Dense value matrix of shape ``(..., n_k, d_v)`` with a matching batch
        shape.

    Returns
    -------
    Dense ``(..., n_q, d_v)`` output, contracted by a per-slice gather and
    einsum, one Python iteration per batch/head slice.
    """
    v = _check_operands(weights, v)
    vals3, batch_shape = as_batched_3d(weights.values)
    cols3, _ = as_batched_3d(weights.column_indices())
    v3, _ = as_batched_3d(v)

    batch, n_q, _ = vals3.shape
    d_v = v3.shape[-1]
    out = np.empty((batch, n_q, d_v), dtype=np.float32)
    for b in range(batch):
        # gather the rows of V addressed by the metadata: (n_q, kept, d_v)
        gathered = v3[b][cols3[b]]
        out[b] = np.einsum("qk,qkd->qd", vals3[b], gathered, optimize=True)
    return restore_batch_shape(out, batch_shape)


def _check_transposed_operands(weights: NMSparseMatrix, g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=np.float32)
    if g.shape[:-2] != weights.batch_shape:
        raise ValueError(
            f"G batch shape {g.shape[:-2]} != sparse batch shape {weights.batch_shape}"
        )
    if g.shape[-2] != weights.rows:
        raise ValueError(
            f"G rows ({g.shape[-2]}) must equal the sparse row count ({weights.rows})"
        )
    return g


def spmm_t(weights: NMSparseMatrix, g: np.ndarray) -> np.ndarray:
    """Transposed SpMM ``A_sparseᵀ @ G`` for a compressed N:M ``A_sparse``.

    This is the backward-pass sibling of :func:`spmm`: with ``A`` the
    compressed attention weights of dense shape ``(..., n_q, n_k)`` and ``G``
    a dense ``(..., n_q, d)`` gradient, the result is the dense
    ``(..., n_k, d)`` product ``Aᵀ G`` (e.g. ``dV = Pᵀ dO``).  The contraction
    touches only the stored nonzeros; the sparsity structure is never
    transposed or re-encoded: each slice scatter-adds its stored nonzeros'
    contributions, one Python iteration per batch/head slice.
    """
    g = _check_transposed_operands(weights, g)
    vals3, batch_shape = as_batched_3d(weights.values)
    cols3, _ = as_batched_3d(weights.column_indices())
    g3, _ = as_batched_3d(g)

    batch, n_q, _ = vals3.shape
    d = g3.shape[-1]
    out = np.zeros((batch, weights.dense_cols, d), dtype=np.float32)
    for b in range(batch):
        # each stored (row, col) nonzero contributes vals * g[row] to out[col]
        contrib = vals3[b][..., None] * g3[b][:, None, :]  # (n_q, kept, d)
        np.add.at(out[b], cols3[b].reshape(-1), contrib.reshape(-1, d))
    return restore_batch_shape(out, batch_shape)
