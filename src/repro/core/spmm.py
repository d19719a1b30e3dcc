"""SpMM: multiply a compressed attention-weight matrix with dense V.

On the A100 this is the ``mma.sp`` sparse-tensor-core instruction consuming
the (nonzeros, metadata) pair produced by the SDDMM epilogue.  Every kernel
in this module dispatches on the :class:`~repro.core.layout.CompressedLayout`
protocol of the N:M layout (:class:`~repro.core.sparse.NMSparseMatrix`).
These staged kernels serve the ``reference`` N:M chain, the ``dspattn``
API and the bench rows; the fused attention kernels contract inside their
tiles.  Two backends carry the same contraction:

* ``reference`` — a per-slice Python loop that gathers the addressed rows of
  V and contracts them with an einsum, mirroring how each thread block walks
  its metadata;
* ``fast`` — a single batched pass that scatters the compressed nonzeros into
  a zeroed dense tile and hands the contraction to BLAS, the CPU stand-in for
  the sparse tensor core.  The scatter touches only the ``N/M`` stored
  entries, and the performance benefit of skipping the pruned half on real
  hardware is carried by the device model in :mod:`repro.gpusim`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.backend import FAST, REFERENCE, get_kernel, register_kernel
from repro.core.layout import CompressedLayout
from repro.utils.shapes import as_batched_3d, restore_batch_shape


def _check_operands(weights: CompressedLayout, v: np.ndarray) -> np.ndarray:
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


def spmm(weights: CompressedLayout, v: np.ndarray, backend: Optional[str] = None) -> np.ndarray:
    """Compute ``A_sparse @ V`` for any compressed-layout ``A_sparse``.

    Parameters
    ----------
    weights:
        Compressed attention-weight matrix of dense shape ``(..., n_q, n_k)``.
    v:
        Dense value matrix of shape ``(..., n_k, d_v)`` with a matching batch
        shape.
    backend:
        Kernel backend ("reference" or "fast"); defaults to the value of
        ``$REPRO_BACKEND``, else "fast".

    Returns
    -------
    Dense ``(..., n_q, d_v)`` output.
    """
    return get_kernel("spmm", backend)(weights, v)


@register_kernel("spmm", REFERENCE)
def _spmm_reference(weights: CompressedLayout, v: np.ndarray) -> np.ndarray:
    """Per-slice gather + einsum, one Python iteration per batch/head slice."""
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


@register_kernel("spmm", FAST)
def _spmm_fast(weights: CompressedLayout, v: np.ndarray) -> np.ndarray:
    """Batched scatter + BLAS contraction, no Python-level loops."""
    v = _check_operands(weights, v)
    v3, batch_shape = as_batched_3d(v)
    dense, _ = as_batched_3d(weights.to_scattered())
    return restore_batch_shape(np.matmul(dense, v3), batch_shape)


def spmm_t(
    weights: CompressedLayout, g: np.ndarray, backend: Optional[str] = None
) -> np.ndarray:
    """Transposed SpMM ``A_sparseᵀ @ G`` for any compressed-layout ``A_sparse``.

    This is the backward-pass sibling of :func:`spmm`: with ``A`` the
    compressed attention weights of dense shape ``(..., n_q, n_k)`` and ``G``
    a dense ``(..., n_q, d)`` gradient, the result is the dense
    ``(..., n_k, d)`` product ``Aᵀ G`` (e.g. ``dV = Pᵀ dO``).  The contraction
    touches only the stored nonzeros; the sparsity structure is never
    transposed or re-encoded.
    """
    return get_kernel("spmm_t", backend)(weights, g)


def _check_transposed_operands(weights: CompressedLayout, g: np.ndarray) -> np.ndarray:
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


@register_kernel("spmm_t", REFERENCE)
def _spmm_t_reference(weights: CompressedLayout, g: np.ndarray) -> np.ndarray:
    """Per-slice scatter-add, one Python iteration per batch/head slice."""
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


@register_kernel("spmm_t", FAST)
def _spmm_t_fast(weights: CompressedLayout, g: np.ndarray) -> np.ndarray:
    """Batched scatter into a dense tile, then one transposed BLAS contraction."""
    g = _check_transposed_operands(weights, g)
    g3, batch_shape = as_batched_3d(g)
    dense, _ = as_batched_3d(weights.to_scattered())
    out = np.matmul(np.swapaxes(dense, -1, -2), g3)
    return restore_batch_shape(out, batch_shape)
