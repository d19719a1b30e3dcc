"""``dspattn`` compatibility shim — the package name used in Figure 3 of the paper.

The paper's usage example imports a package called ``dspattn`` and swaps three
lines of an attention implementation:

    from dspattn import GEMM, Softmax, SpMM          # (paper, Figure 3)
    nonzeros, metadata = GEMM(query, key)
    attn = Softmax(nonzeros)
    out = SpMM(attn, metadata, value)

This module exposes the same three-step API on top of :mod:`repro.core` so
code written against the paper's snippet runs unchanged.  The compressed
attention matrix travels between the calls as an
:class:`~repro.core.sparse.NMSparseMatrix`; ``metadata`` in the signature is
kept for drop-in compatibility (the object already carries its metadata).

It is a compatibility shim, not a performance path: ``GEMM`` runs the
tile-by-tile reference :func:`~repro.core.sddmm.sddmm_nm`.  The fast N:M
forward is one call, :func:`~repro.core.attention.dfss_attention` (or
:class:`DynamicSparseAttention`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.nm_attention import pad_keys, staged_scores
from repro.core.patterns import default_pattern_for_dtype, resolve_pattern
from repro.core.softmax import sparse_softmax
from repro.core.sparse import NMSparseMatrix
from repro.core.spmm import spmm


def GEMM(
    query: np.ndarray,
    key: np.ndarray,
    pattern=None,
    dtype: str = "float32",
    scale: Optional[float] = None,
) -> Tuple[NMSparseMatrix, np.ndarray]:
    """Fused ``Q Kᵀ`` + N:M prune, returning ``(nonzeros, metadata)`` as in Figure 3.

    ``nonzeros`` is the compressed score matrix (an
    :class:`~repro.core.sparse.NMSparseMatrix`); ``metadata`` is the packed
    uint16 metadata stream the hardware kernel would write to DRAM.  A key
    length that is not a multiple of M is padded to whole M-groups with
    masked keys, which carry zero weight, as in the N:M forward.
    """
    pattern = default_pattern_for_dtype(dtype) if pattern is None else resolve_pattern(pattern)
    sparse_scores = staged_scores(query, key, pattern, scale=scale, dtype=dtype)
    return sparse_scores, sparse_scores.packed_metadata()


def Softmax(nonzeros: NMSparseMatrix) -> NMSparseMatrix:
    """Row softmax over the compressed nonzeros."""
    if not isinstance(nonzeros, NMSparseMatrix):
        raise TypeError("dspattn.Softmax expects the compressed matrix returned by dspattn.GEMM")
    return sparse_softmax(nonzeros)


def SpMM(attn: NMSparseMatrix, metadata: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Sparse attention-weight matrix times dense ``value``.

    ``metadata`` is accepted (and sanity-checked) for signature compatibility
    with the paper's snippet; the compressed matrix already carries it.
    ``value`` is padded with zero rows to the matrix's padded key count.
    """
    if not isinstance(attn, NMSparseMatrix):
        raise TypeError("dspattn.SpMM expects the compressed matrix returned by dspattn.Softmax")
    if metadata is not None:
        expected = attn.packed_metadata()
        metadata = np.asarray(metadata)
        if metadata.shape != expected.shape:
            raise ValueError(
                f"metadata shape {metadata.shape} does not match the compressed matrix "
                f"(expected {expected.shape})"
            )
    if np.shape(value)[-2] < attn.dense_cols:
        value = pad_keys(value, attn.dense_cols)
    return spmm(attn, value)


class DynamicSparseAttention:
    """Object-style wrapper over the three-call API (one line to construct, one to call).

    A thin veneer over :class:`repro.engine.AttentionEngine` with
    ``mechanism="dfss"`` — the Figure-3 spelling of the same registry entry.
    """

    def __init__(self, pattern=None, dtype: str = "float32"):
        from repro.engine import AttentionEngine

        self.dtype = dtype
        self.pattern = (
            default_pattern_for_dtype(dtype) if pattern is None else resolve_pattern(pattern)
        )
        self._engine = AttentionEngine("dfss", pattern=self.pattern, dtype=dtype)

    def __call__(self, query: np.ndarray, key: np.ndarray, value: np.ndarray) -> np.ndarray:
        return self._engine(query, key, value)
