"""Public attention API: full attention and the DFSS drop-in replacement.

Figure 3 of the paper shows the intended usage — replacing three lines of a
standard attention implementation:

    ``A = softmax(Q @ K.T / sqrt(d)); O = A @ V``

becomes

    ``attn = DfssAttention("2:4", dtype="bfloat16"); O = attn(Q, K, V)``

The functional entry points :func:`full_attention` and :func:`dfss_attention`
operate on arrays with any number of leading batch dimensions, e.g.
``(batch, heads, seq, head_dim)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.patterns import default_pattern_for_dtype, resolve_pattern
from repro.core.plan import plan_for_nm
from repro.core.row_block import RowBlockStructure
from repro.core.sddmm import sddmm_dense
from repro.core.softmax import dense_softmax, masked_dense_softmax


def full_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: Optional[float] = None,
    dtype: str = "float32",
    mask: Optional[np.ndarray] = None,
    return_weights: bool = False,
):
    """Full quadratic attention ``softmax(Q Kᵀ / sqrt(d)) V`` (Eq. 1).

    Parameters
    ----------
    q, k, v:
        ``(..., seq, d)`` arrays sharing their leading batch shape.
    scale:
        Score scale; defaults to ``1/sqrt(d)``.
    dtype:
        "float32" or "bfloat16"; controls the emulated tensor-core precision.
    mask:
        Optional boolean mask broadcastable to ``(..., seq_q, seq_k)``;
        ``False`` positions receive zero attention weight.
    return_weights:
        Also return the dense attention-weight matrix.
    """
    scores = sddmm_dense(q, k, scale=scale, dtype=dtype)
    if mask is not None:
        weights = masked_dense_softmax(scores, mask)
    else:
        weights = dense_softmax(scores)
    out = np.matmul(weights, np.asarray(v, dtype=np.float32))
    if return_weights:
        return out, weights
    return out


def dfss_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    pattern=None,
    scale: Optional[float] = None,
    dtype: str = "float32",
    criterion: str = "value",
    structure: Optional[RowBlockStructure] = None,
    return_weights: bool = False,
    backend: Optional[str] = None,
):
    """Dynamic N:M fine-grained structured sparse attention (the paper's method).

    Runs the ``nm_attention`` kernel of a cached
    :class:`~repro.core.plan.AttentionPlan` (built once per pattern, backend,
    dtype and geometry).  On ``fast`` it walks blocks of query rows, and each
    block scores, prunes to N:M, normalises and contracts with V while its
    score tile is cache-resident, so no compressed score matrix is written
    (:mod:`repro.core.nm_attention`); ``reference`` runs the staged chain
    ``sddmm_nm → masked_softmax → spmm``.  Any key length is accepted: the
    key axis is padded to whole M-groups whose padding carries zero weight.

    Parameters mirror :func:`full_attention`; ``pattern`` defaults to the
    hardware pattern for ``dtype`` (1:2 for float32, 2:4 for bfloat16).
    A :class:`~repro.core.row_block.RowBlockStructure` as ``structure`` runs
    the hybrid blocked-ELL + N:M sparsity of Appendix A.1.2: each tile
    scores one key block of the structure (BigBird's for ``bigbird_dfss``),
    widened to whole M-groups, and N:M selects among its allowed keys.
    ``return_weights`` (without a structure) also returns the compressed
    :class:`~repro.core.sparse.NMSparseMatrix` of attention weights.
    ``backend`` selects the kernel implementations
    ("reference" or "fast"; default ``$REPRO_BACKEND``, else "fast").
    """
    pattern = (
        default_pattern_for_dtype(dtype) if pattern is None else resolve_pattern(pattern)
    )
    plan = plan_for_nm(pattern, q.shape[-2], k.shape[-2], backend=backend, dtype=dtype)
    return plan.forward(
        q, k, v, structure=structure, scale=scale, criterion=criterion,
        return_probs=return_weights,
    )


@dataclass
class DfssAttention:
    """Drop-in replacement object for a full-attention call site (Figure 3).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.attention import DfssAttention
    >>> attn = DfssAttention(pattern="2:4", dtype="bfloat16")
    >>> q = np.random.randn(2, 4, 64, 32).astype(np.float32)
    >>> out = attn(q, q, q)
    >>> out.shape
    (2, 4, 64, 32)
    """

    pattern: object = None
    dtype: str = "float32"
    criterion: str = "value"
    scale: Optional[float] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.pattern is None:
            self.pattern = default_pattern_for_dtype(self.dtype)
        else:
            self.pattern = resolve_pattern(self.pattern)

    def __call__(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, return_weights: bool = False
    ):
        return dfss_attention(
            q,
            k,
            v,
            pattern=self.pattern,
            scale=self.scale,
            dtype=self.dtype,
            criterion=self.criterion,
            return_weights=return_weights,
            backend=self.backend,
        )

    def approximation_error(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> float:
        """Relative Frobenius error of DFSS output vs full attention on a batch."""
        ref = full_attention(q, k, v, scale=self.scale, dtype=self.dtype)
        approx = self(q, k, v)
        denom = np.linalg.norm(ref)
        if denom == 0:
            return 0.0
        return float(np.linalg.norm(approx - ref) / denom)


def attention_weight_matrices(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    pattern="2:4",
    dtype: str = "float32",
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense attention-weight matrices of full attention and DFSS.

    Used by the Figure-19 style visualisation experiment; returns
    ``(A_full, A_dfss_dense)`` where the DFSS matrix has zeros at pruned
    positions and its rows re-normalised over the survivors (exactly what the
    sparse softmax computes).
    """
    _, full_w = full_attention(q, k, v, dtype=dtype, return_weights=True)
    _, sparse_w = dfss_attention(q, k, v, pattern=pattern, dtype=dtype, return_weights=True)
    return full_w, sparse_w.to_dense(0.0)
