"""Combinations of DFSS with existing efficient transformers (Appendix A.7).

The paper argues DFSS is orthogonal to the linear-complexity mechanisms and
shows three combinations (Figures 17 and 18):

* :class:`DfssNystromformerAttention` — the two ``n x m`` / ``m x n`` kernels
  of Nyströmformer are pruned to N:M sparsity on the fly (Table 6);
* :class:`DfssBigBirdAttention` — 1:2 / 2:4 sparsity applied inside each
  BigBird block (Figure 18 A);
* :class:`DfssLinformerAttention` — the ``Q (E K)ᵀ`` score matrix is pruned to
  N:M before the softmax and the SpMM with ``F V`` (Figure 18 B).

The N:M kernels of all three combinations run as
:func:`~repro.core.attention.dfss_attention` calls — BigBird's over its
row-block structure as ``structure``, so N:M selects inside BigBird's blocks
and nothing outside them is scored — and the Nyströmformer and Linformer
ones take any key length that dense attention takes.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AttentionMechanism, register
from repro.baselines.bigbird import BigBirdAttention
from repro.baselines.dfss import DfssMechanism
from repro.baselines.linformer import LinformerAttention
from repro.baselines.nystromformer import NystromformerAttention, newton_schulz_pinv, segment_means
from repro.core.attention import dfss_attention
from repro.core.patterns import resolve_pattern
from repro.core.sddmm import sddmm_dense
from repro.core.softmax import dense_softmax
from repro.registry import (
    BigBirdDfssConfig,
    LinformerDfssConfig,
    NystromDfssConfig,
    register_mechanism,
)


@register_mechanism(
    "nystromformer_dfss",
    config=NystromDfssConfig,
    label="Nystromformer + Dfss",
    description="Nyströmformer with DFSS-pruned softmax kernels (Appendix A.7)",
    aliases=("nystrom_dfss",),
    compressed=True,
)
@register
class DfssNystromformerAttention(AttentionMechanism):
    """Nyströmformer with its two large kernels pruned to dynamic N:M sparsity.

    Note on approximation quality: without finetuning, pruning the ``n x m``
    landmark kernel to 2:4 perturbs the Nyström factorisation, and the
    (regularised) pseudo-inverse of the ``m x m`` kernel amplifies that
    perturbation, so the *untrained* forward pass is a noticeably coarser
    approximation of full attention than plain Nyströmformer.  This matches
    the paper, which always finetunes the combination (Table 6 uses 3,500
    finetuning steps); the trainable counterpart used for that experiment
    lives in :mod:`repro.nn.attention_layer`.
    """

    name = "nystromformer_dfss"
    produces_mask = False

    def __init__(self, num_landmarks: int = 32, pinv_iters: int = 6, pattern="2:4",
                 dtype: str = "float32"):
        self.base = NystromformerAttention(num_landmarks, pinv_iters)
        self.pattern = resolve_pattern(pattern)
        self.dtype = dtype

    def __call__(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        self._validate(q, k, v)
        q = np.asarray(q, dtype=np.float32)
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        q_land = segment_means(q, self.base.num_landmarks)
        k_land = segment_means(k, self.base.num_landmarks)
        # kernel2 is m x m (small) and stays dense
        scale = 1.0 / np.sqrt(q.shape[-1])
        kernel2 = dense_softmax(np.matmul(q_land, np.swapaxes(k_land, -1, -2)) * scale)
        pinv = newton_schulz_pinv(kernel2, self.base.pinv_iters)
        # kernel3 (m x n) @ V, then kernel1 (n x m) @ (pinv @ kernel3 V): both
        # N:M kernels are DFSS attentions
        right = dfss_attention(q_land, k, v, pattern=self.pattern, dtype=self.dtype)
        return dfss_attention(
            q, k_land, np.matmul(pinv, right), pattern=self.pattern, dtype=self.dtype
        )


@register_mechanism(
    "bigbird_dfss",
    config=BigBirdDfssConfig,
    label="BigBird + Dfss",
    description="BigBird block sparsity with N:M pruning inside the blocks",
    aliases=("dfss_bigbird",),
    produces_mask=True,
    compressed=True,
)
@register
class DfssBigBirdAttention(AttentionMechanism):
    """BigBird block sparsity with N:M pruning inside the surviving blocks."""

    name = "bigbird_dfss"
    produces_mask = True

    def __init__(self, pattern="2:4", dtype: str = "float32", **bigbird_kwargs):
        self.bigbird = BigBirdAttention(**bigbird_kwargs)
        self.pattern = resolve_pattern(pattern)
        self.dtype = dtype

    def attention_mask(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The DFSS keep-mask of the dense scores with BigBird's blocked
        scores masked before the N:M selection: the rule the N:M kernels
        apply over BigBird's structure."""
        scores = sddmm_dense(q, k, dtype=self.dtype)
        allowed = self.bigbird._mask_2d(*scores.shape[-2:])
        return DfssMechanism(self.pattern, self.dtype)._mask(scores, allowed=allowed)

    def __call__(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The N:M plan over BigBird's row-block structure — the forward
        :class:`~repro.nn.attention_layer.BigBirdDfssCore` runs."""
        self._validate(q, k, v)
        structure = self.bigbird.cached_structure(q.shape[-2], k.shape[-2])
        return dfss_attention(q, k, v, pattern=self.pattern, dtype=self.dtype, structure=structure)


@register_mechanism(
    "linformer_dfss",
    config=LinformerDfssConfig,
    label="Linformer + Dfss",
    description="Linformer with the projected score matrix pruned to N:M",
    aliases=("dfss_linformer",),
    compressed=True,
)
@register
class DfssLinformerAttention(AttentionMechanism):
    """Linformer with the ``Q (E K)ᵀ`` score matrix pruned to N:M on the fly."""

    name = "linformer_dfss"
    produces_mask = False

    def __init__(self, proj_dim: int = 64, pattern="2:4", dtype: str = "float32", seed=0):
        self.linformer = LinformerAttention(proj_dim=proj_dim, seed=seed)
        self.pattern = resolve_pattern(pattern)
        self.dtype = dtype

    def __call__(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        self._validate(q, k, v)
        n = k.shape[-2]
        e, f = self.linformer._projections(n)
        k_proj = np.matmul(e, np.asarray(k, dtype=np.float32))
        v_proj = np.matmul(f, np.asarray(v, dtype=np.float32))
        return dfss_attention(
            np.asarray(q, dtype=np.float32), k_proj, v_proj,
            pattern=self.pattern, dtype=self.dtype,
        )
