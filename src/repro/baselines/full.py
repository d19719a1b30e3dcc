"""Dense full-quadratic attention (the paper's "Transformer" baseline)."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AttentionMechanism
from repro.core.attention import full_attention
from repro.registry import FullConfig, register_mechanism


@register_mechanism(
    "full",
    config=FullConfig,
    label="Transformer (full)",
    description="Dense full-quadratic attention (the paper's baseline)",
    aliases=("transformer", "dense"),
    produces_mask=True,
    latency_model="transformer",
)
class FullAttention(AttentionMechanism):
    """``softmax(Q Kᵀ / sqrt(d)) V`` computed densely (Eq. 1)."""

    name = "full"
    produces_mask = True

    def __init__(self, dtype: str = "float32"):
        self.dtype = dtype

    def __call__(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        self._validate(q, k, v)
        return full_attention(q, k, v, dtype=self.dtype)

    def attention_mask(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        n_q, n_k = q.shape[-2], k.shape[-2]
        return np.ones(q.shape[:-2] + (n_q, n_k), dtype=bool)
