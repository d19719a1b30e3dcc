"""BigBird + DFSS, one of the combinations of Appendix A.7.

The paper argues DFSS is orthogonal to the existing efficient transformers
and shows three combinations (Figures 17 and 18).  BigBird + DFSS
(Figure 18 A) is a mask mechanism: 1:2 / 2:4 sparsity applied inside each
BigBird block, its N:M kernels run as
:func:`~repro.core.attention.dfss_attention` calls over BigBird's row-block
structure as ``structure``, so N:M selects inside BigBird's blocks and
nothing outside them is scored.  The Nyströmformer and Linformer
combinations (Figures 17 and 18 B) are defined once, by their trainable
cores in :mod:`repro.nn.attention_layer`.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AttentionMechanism
from repro.baselines.bigbird import BigBirdAttention
from repro.baselines.dfss import DfssMechanism
from repro.core.attention import dfss_attention
from repro.core.patterns import resolve_pattern
from repro.core.sddmm import sddmm_dense
from repro.registry import BigBirdDfssConfig, register_mechanism


@register_mechanism(
    "bigbird_dfss",
    config=BigBirdDfssConfig,
    label="BigBird + Dfss",
    description="BigBird block sparsity with N:M pruning inside the blocks",
    aliases=("dfss_bigbird",),
    produces_mask=True,
    compressed=True,
)
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
