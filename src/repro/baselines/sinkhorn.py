"""Sparse Sinkhorn attention (Tay et al.), expressed as a block-matching mask.

The sequence is divided into blocks; a differentiable sorting network
(Sinkhorn normalisation over block-level scores) matches every query block
with one key block, and attention is computed within the local block plus the
matched block.  The inference-path reference below computes the block-level
score matrix from block mean embeddings, runs Sinkhorn normalisation, and
takes the hard matching.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AttentionMechanism, register
from repro.registry import SinkhornConfig, register_mechanism


def sinkhorn_normalise(scores: np.ndarray, iters: int = 8) -> np.ndarray:
    """Alternating row/column softmax normalisation in log space."""
    log_p = np.asarray(scores, dtype=np.float64)
    for _ in range(iters):
        log_p = log_p - np.log(np.sum(np.exp(log_p), axis=-1, keepdims=True) + 1e-12)
        log_p = log_p - np.log(np.sum(np.exp(log_p), axis=-2, keepdims=True) + 1e-12)
    return np.exp(log_p).astype(np.float32)


@register_mechanism(
    "sinkhorn",
    config=SinkhornConfig,
    label="Sinkhorn Trans.",
    description="Block-matched Sinkhorn attention (Tay et al.)",
    produces_mask=True,
    compressed=True,
    batchable=True,
    latency_model="sinkhorn",
)
@register
class SinkhornAttention(AttentionMechanism):
    """Block-local attention plus one Sinkhorn-matched block per query block."""

    name = "sinkhorn"
    produces_mask = True

    def __init__(self, block_size: int = 32, sinkhorn_iters: int = 8):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size
        self.sinkhorn_iters = sinkhorn_iters

    def _block_size_for(self, n: int) -> int:
        b = self.block_size
        while n % b != 0 and b > 1:
            b //= 2
        return max(1, b)

    def attention_mask(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float32)
        k = np.asarray(k, dtype=np.float32)
        n_q, n_k = q.shape[-2], k.shape[-2]
        if n_q != n_k:
            raise ValueError("Sinkhorn attention expects self-attention")
        block = self._block_size_for(n_q)
        n_blocks = n_q // block
        batch_shape = q.shape[:-2]
        q2 = q.reshape(-1, n_blocks, block, q.shape[-1]).mean(axis=2)
        k2 = k.reshape(-1, n_blocks, block, k.shape[-1]).mean(axis=2)
        scores = np.matmul(q2, np.swapaxes(k2, -1, -2)) / np.sqrt(q.shape[-1])
        perm = sinkhorn_normalise(scores, self.sinkhorn_iters)
        matched = np.argmax(perm, axis=-1)  # (..., n_blocks)
        masks = np.zeros((q2.shape[0], n_q, n_k), dtype=bool)
        for b in range(q2.shape[0]):
            for qb in range(n_blocks):
                rows = slice(qb * block, (qb + 1) * block)
                masks[b, rows, rows] = True  # local block
                kb = int(matched[b, qb])
                masks[b, rows, kb * block : (kb + 1) * block] = True
        return masks.reshape(batch_shape + (n_q, n_k))
