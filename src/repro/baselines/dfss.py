"""The paper's DFSS mechanism wrapped in the baseline interface."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import AttentionMechanism, register
from repro.core.attention import dfss_attention
from repro.core.backend import get_kernel
from repro.core.patterns import default_pattern_for_dtype, resolve_pattern
from repro.core.sddmm import MASKED_SCORE, sddmm_dense
from repro.registry import DfssConfig, register_mechanism


@register_mechanism(
    "dfss",
    config=DfssConfig,
    label="Dfss",
    description="Dynamic N:M fine-grained structured sparse attention (ours)",
    produces_mask=True,
    compressed=True,
    batchable=True,
    latency_model="dfss",
)
@register
class DfssMechanism(AttentionMechanism):
    """Dynamic N:M fine-grained structured sparse attention ("ours")."""

    name = "dfss"
    produces_mask = True

    def __init__(self, pattern=None, dtype: str = "float32"):
        self.dtype = dtype
        self.pattern = (
            default_pattern_for_dtype(dtype) if pattern is None else resolve_pattern(pattern)
        )

    def __call__(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        self._validate(q, k, v)
        return dfss_attention(q, k, v, pattern=self.pattern, dtype=self.dtype)

    def _mask(self, scores: np.ndarray, backend: Optional[str] = None, allowed=None) -> np.ndarray:
        """The N:M keep-mask of precomputed dense ``scores``.

        Selected as the ``sddmm_nm`` epilogue selects, with ``backend``'s
        ``nm_prune_mask``: scores outside the ``allowed`` mask (a hybrid's
        blocks) are masked before the selection (a group straddling a block
        boundary promotes allowed runners-up), and a key axis that is not a
        multiple of M is padded with masked lanes up to whole groups, then
        cropped.
        """
        n_k = scores.shape[-1]
        if allowed is not None:
            scores = np.where(allowed, scores, MASKED_SCORE)
        pad = self.pattern.padded(n_k) - n_k
        if pad:
            widths = [(0, 0)] * (scores.ndim - 1) + [(0, pad)]
            scores = np.pad(scores, widths, constant_values=MASKED_SCORE)
        mask = get_kernel("nm_prune_mask", backend)(scores, self.pattern)[..., :n_k]
        return mask if allowed is None else mask & allowed

    def attention_mask(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The N:M keep-mask, selected as the ``nm_attention`` kernel selects."""
        return self._mask(sddmm_dense(q, k, dtype=self.dtype))
