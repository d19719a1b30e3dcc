"""Analytic backward pass of compressed sparse attention, staged.

The staged forward (SDDMM into a compressed structure → sparse softmax →
SpMM) treats the N:M selection as a constant of the graph, exactly as the
paper's kernels do.  Its gradients therefore live entirely on the
compressed nonzeros:

* ``dV = Pᵀ dO`` — a transposed SpMM over the compressed probabilities;
* ``dP = (dO Vᵀ) ∘ mask`` — an SDDMM restricted to the existing structure;
* ``dS = P ∘ (dP − rowsum(P ∘ dP))`` — the row-wise softmax Jacobian applied
  on compressed rows;
* ``dQ = dS K · scale`` and ``dK = dSᵀ Q · scale`` — an SpMM and a transposed
  SpMM reusing the same structure.

:func:`masked_attention_bwd` composes the registered primitives (``spmm``,
``spmm_t``, ``sddmm_masked``) of one backend, stage by stage, on the
:class:`~repro.core.layout.CompressedLayout` protocol.  Composed from the
``reference`` primitives it is the oracle of the recomputing
``nm_attention_bwd`` kernel (:mod:`repro.core.nm_attention`), which the N:M
training op runs; the row-block layout of every other mask has its own
recomputing backward (:mod:`repro.core.row_block`).  No training path stores
the probabilities this staged backward reads.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.backend import get_kernel
from repro.core.layout import CompressedLayout


def softmax_grad_compressed(
    probs: np.ndarray, d_probs: np.ndarray
) -> np.ndarray:
    """Row-wise softmax Jacobian ``dS = P ∘ (dP − rowsum(P ∘ dP))``.

    Both operands are compressed ``(..., rows, kept)`` value arrays sharing
    one sparsity structure; the result has the same shape.  Rows that were
    fully masked out (all-zero probabilities, e.g. blocked-ELL sentinels)
    yield an exactly-zero gradient.
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
    backend: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients ``(dQ, dK, dV)`` of the staged compressed attention forward.

    Parameters
    ----------
    probs:
        Compressed softmax probabilities (pre-dropout) in any
        :class:`~repro.core.layout.CompressedLayout`, e.g. the N:M structure
        chosen by the forward SDDMM epilogue.
    q, k, v:
        The forward operands, ``(..., seq, d)``.
    d_out:
        Upstream gradient of the attention output, same shape as the output.
    scale:
        The score scale applied inside the forward SDDMM (``1/sqrt(d)``).
    drop_keep:
        Optional inverted-dropout keep mask over the compressed probabilities
        (``keep / (1 - p)`` scaling already applied), or ``None``.
    backend:
        Backend of the composed primitives ("reference" or "fast"); defaults
        to ``$REPRO_BACKEND``, else "fast".
    """
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
