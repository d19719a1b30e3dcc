"""Explicit Top-K sparse attention (Zhao et al., "Explicit Sparse Transformer").

Keeps the ``k`` largest scores of every attention row.  The paper uses this
mechanism as the quality *oracle* (it maximises ``Q_p`` at a given density)
that is nevertheless impractical on GPUs (Proposition 4.3).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AttentionMechanism, register
from repro.core.lottery import topk_mask
from repro.core.precision import simulate_tensor_core_matmul
from repro.registry import TopKConfig, register_mechanism


@register_mechanism(
    "topk",
    config=TopKConfig,
    label="Top-K",
    description="Per-row explicit Top-K masking (oracle upper bound for DFSS)",
    produces_mask=True,
    compressed=True,
    batchable=True,
    latency_model="topk",
)
@register
class ExplicitTopKAttention(AttentionMechanism):
    """Per-row Top-K masking of the dense score matrix."""

    name = "topk"
    produces_mask = True

    def __init__(self, density: float = 0.05, k: int = None):
        if k is None and not (0.0 < density <= 1.0):
            raise ValueError("density must lie in (0, 1]")
        self.density = density
        self.k = k

    def attention_mask(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The Top-K of the tensorfloat-32 scores ``Q Kᵀ / √d``.

        The float32 product is scaled in place through the float64 loop, so
        it is rounded as :func:`~repro.core.sddmm.sddmm_dense` rounds it
        before :func:`~repro.core.lottery.topk_mask` reads float32, and one
        ``n_q × n_k`` float32 array is alive while the selection runs.
        """
        scores = simulate_tensor_core_matmul(q, np.swapaxes(k, -1, -2))
        np.multiply(scores, 1.0 / np.sqrt(q.shape[-1]), out=scores, casting="same_kind")
        n_k = scores.shape[-1]
        density = self.density if self.k is None else min(1.0, self.k / n_k)
        return topk_mask(scores, density)
