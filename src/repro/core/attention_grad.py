"""Analytic backward pass of compressed sparse attention, layout-generic.

The forward pipeline (SDDMM into a compressed structure → sparse softmax →
SpMM) treats the sparsity selection — the N:M epilogue's choice *or* a
mask-based mechanism's padded-CSR mask — as a constant of the graph, exactly
as the paper's kernels do.  Its gradients therefore live entirely on the
compressed nonzeros:

* ``dV = Pᵀ dO`` — a transposed SpMM over the compressed probabilities;
* ``dP = (dO Vᵀ) ∘ mask`` — an SDDMM restricted to the existing structure;
* ``dS = P ∘ (dP − rowsum(P ∘ dP))`` — the row-wise softmax Jacobian applied
  on compressed rows;
* ``dQ = dS K · scale`` and ``dK = dSᵀ Q · scale`` — an SpMM and a transposed
  SpMM reusing the same structure.

Every primitive dispatches on the :class:`~repro.core.layout.CompressedLayout`
protocol, so one registered backward serves :class:`NMSparseMatrix` and
:class:`~repro.core.padded_csr.PaddedCSRMatrix` alike — padding lanes carry
zero probability, which makes every contraction exact without special cases.

The fused ``attention_bwd`` kernel is registered with two backends:
``reference`` composes the per-slice loop oracles, ``fast`` the batched
kernels, and additionally shares the scattered dense ``dS`` tile between the
``dQ`` and ``dK`` contractions so the scatter runs once.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.backend import FAST, REFERENCE, get_kernel, register_kernel
from repro.core.layout import CompressedLayout
from repro.utils.shapes import as_batched_3d, restore_batch_shape


def softmax_grad_compressed(
    probs: np.ndarray, d_probs: np.ndarray
) -> np.ndarray:
    """Row-wise softmax Jacobian ``dS = P ∘ (dP − rowsum(P ∘ dP))``.

    Both operands are compressed ``(..., rows, kept)`` value arrays sharing
    one sparsity structure; the result has the same shape.  Rows that were
    fully masked out (all-zero probabilities, e.g. blocked-ELL sentinels or
    padded-CSR rows of length zero) yield an exactly-zero gradient.
    """
    probs = np.asarray(probs, dtype=np.float32)
    d_probs = np.asarray(d_probs, dtype=np.float32)
    inner = np.sum(probs * d_probs, axis=-1, keepdims=True)
    return probs * (d_probs - inner)


def masked_attention_bwd(
    probs: CompressedLayout,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    d_out: np.ndarray,
    scale: float,
    drop_keep: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    backend: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients ``(dQ, dK, dV)`` of the compressed attention forward.

    Parameters
    ----------
    probs:
        Compressed softmax probabilities (pre-dropout) in any
        :class:`~repro.core.layout.CompressedLayout` — the N:M structure
        chosen by the forward SDDMM epilogue or the padded-CSR structure of
        a mask-based mechanism.
    q, k, v:
        The forward operands, ``(..., seq, d)``.
    d_out:
        Upstream gradient of the attention output, same shape as the output.
    scale:
        The score scale applied inside the forward SDDMM (``1/sqrt(d)``).
    drop_keep:
        Optional inverted-dropout keep mask over the compressed probabilities
        (``keep / (1 - p)`` scaling already applied), or ``None``.
    out:
        Optional forward output (post-dropout).  When provided, backends may
        use the identity ``rowsum(P ∘ dP) = rowsum(dO ∘ O)`` to evaluate the
        softmax Jacobian's row inner products on the ``(..., seq, d)`` output
        instead of the ``(..., seq_q, seq_k)`` probabilities.
    backend:
        Kernel backend ("reference" or "fast"); defaults to ``$REPRO_BACKEND``,
        else "fast".
    """
    return get_kernel("attention_bwd", backend)(
        probs, q, k, v, d_out, scale, drop_keep, out
    )


def _compose_bwd(
    probs: CompressedLayout,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    d_out: np.ndarray,
    scale: float,
    drop_keep: Optional[np.ndarray],
    backend: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass written purely in terms of the registered primitives."""
    spmm = get_kernel("spmm", backend)
    spmm_t = get_kernel("spmm_t", backend)
    sddmm_masked = get_kernel("sddmm_masked", backend)

    applied = probs if drop_keep is None else probs.with_values(probs.values * drop_keep)
    d_v = spmm_t(applied, d_out)
    d_probs = sddmm_masked(d_out, np.asarray(v, dtype=np.float32), probs).values
    if drop_keep is not None:
        d_probs = d_probs * drop_keep
    d_scores = probs.with_values(softmax_grad_compressed(probs.values, d_probs))
    d_q = spmm(d_scores, np.asarray(k, dtype=np.float32)) * np.float32(scale)
    d_k = spmm_t(d_scores, np.asarray(q, dtype=np.float32)) * np.float32(scale)
    return d_q, d_k, d_v


@register_kernel("attention_bwd", REFERENCE)
def _attention_bwd_reference(
    probs: CompressedLayout,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    d_out: np.ndarray,
    scale: float,
    drop_keep: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Loop oracle: the per-slice reference primitives, stage by stage."""
    del out  # the oracle always evaluates the Jacobian on compressed rows
    return _compose_bwd(probs, q, k, v, d_out, scale, drop_keep, REFERENCE)


@register_kernel("attention_bwd", FAST)
def _attention_bwd_fast(
    probs: CompressedLayout,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    d_out: np.ndarray,
    scale: float,
    drop_keep: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched backward reusing the forward's scattered probability tile.

    Equivalent to composing the fast primitives, but the CPU stand-in for the
    metadata walk runs once per training step: the dense zero-filled tile the
    forward SpMM scattered the probabilities into is reused
    (``probs.to_scattered()``), after which every step is plain BLAS and
    elementwise algebra.  The zeros at pruned/padded positions make the dense
    formulation exact — ``P ∘ (dP − rowsum(P ∘ dP))`` vanishes wherever ``P``
    was pruned, so no gather of ``dP`` back to the compressed layout is
    needed before the ``dQ``/``dK`` contractions.  When the forward output is
    available the Jacobian's row inner products use
    ``rowsum(P ∘ dP) = rowsum(dO ∘ O)``, which reads the narrow output matrix
    instead of a second pass over the score-shaped tile.
    """
    q3, batch_shape = as_batched_3d(np.asarray(q, dtype=np.float32))
    k3, _ = as_batched_3d(np.asarray(k, dtype=np.float32))
    v3, _ = as_batched_3d(np.asarray(v, dtype=np.float32))
    g3, _ = as_batched_3d(np.asarray(d_out, dtype=np.float32))

    p_dense, _ = as_batched_3d(probs.to_scattered())
    if drop_keep is None:
        applied_dense = p_dense
        keep_dense = None
    else:
        keep = np.asarray(drop_keep, dtype=np.float32)
        applied_dense, _ = as_batched_3d(probs.scatter_compressed(probs.values * keep))
        keep_dense, _ = as_batched_3d(probs.scatter_compressed(keep))

    # dV = Pᵀ dO (P after dropout)
    d_v = np.matmul(np.swapaxes(applied_dense, -1, -2), g3)

    # dP = (dO Vᵀ) ∘ mask — the ∘ mask is implicit: dS multiplies by P below,
    # and P is exactly zero at pruned/padded positions
    d_probs = np.matmul(g3, np.swapaxes(v3, -1, -2))
    if keep_dense is not None:
        d_probs = d_probs * keep_dense

    # softmax Jacobian and the two remaining contractions, scale folded once
    if out is not None:
        out3, _ = as_batched_3d(np.asarray(out, dtype=np.float32))
        inner = np.sum(g3 * out3, axis=-1, keepdims=True)
    else:
        inner = np.sum(p_dense * d_probs, axis=-1, keepdims=True)
    ds_dense = p_dense * (d_probs - inner)
    ds_dense *= np.float32(scale)
    d_q = np.matmul(ds_dense, k3)
    d_k = np.matmul(np.swapaxes(ds_dense, -1, -2), q3)
    return (
        restore_batch_shape(d_q, batch_shape),
        restore_batch_shape(d_k, batch_shape),
        restore_batch_shape(d_v, batch_shape),
    )
