"""Reformer-style LSH attention (Kitaev et al.), expressed as a dynamic mask.

Queries and keys are bucketed by random-hyperplane LSH; each query attends to
the keys that share a bucket in at least one of the hash rounds.  The exact
Reformer additionally sorts and chunks for efficiency — irrelevant for a
NumPy accuracy reference, so the mechanism is implemented as a data-dependent
sparsity mask over the dense score matrix.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AttentionMechanism, register
from repro.registry import ReformerConfig, register_mechanism
from repro.utils.seeding import new_rng


def lsh_bucket_ids(x: np.ndarray, n_buckets: int, n_hashes: int, rng) -> np.ndarray:
    """Random-rotation LSH bucket ids of shape ``x.shape[:-1] + (n_hashes,)``."""
    d = x.shape[-1]
    if n_buckets % 2 != 0:
        raise ValueError("n_buckets must be even for rotation LSH")
    rotations = rng.normal(size=(n_hashes, d, n_buckets // 2)).astype(np.float32)
    # (..., n, n_hashes, n_buckets/2)
    rotated = np.einsum("...nd,hdb->...nhb", np.asarray(x, dtype=np.float32), rotations)
    full = np.concatenate([rotated, -rotated], axis=-1)
    return np.argmax(full, axis=-1)  # (..., n, n_hashes)


@register_mechanism(
    "reformer",
    config=ReformerConfig,
    label="Reformer",
    description="LSH-bucketed attention (Kitaev et al.)",
    produces_mask=True,
    compressed=True,
    batchable=True,
    latency_model="reformer",
)
@register
class ReformerAttention(AttentionMechanism):
    """LSH-bucketed attention mask (shared-bucket pairs attend to each other)."""

    name = "reformer"
    produces_mask = True

    def __init__(self, n_buckets: int = 16, n_hashes: int = 2, seed=0):
        self.n_buckets = n_buckets
        self.n_hashes = n_hashes
        self.seed = seed

    def attention_mask(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        rng = new_rng(self.seed)
        n_buckets = min(self.n_buckets, max(2, q.shape[-2] // 4))
        if n_buckets % 2:
            n_buckets += 1
        q_ids = lsh_bucket_ids(q, n_buckets, self.n_hashes, rng)
        # Reformer hashes the (normalised) queries and reuses them for keys in
        # shared-QK attention; we hash K with the same rotations for generality.
        rng2 = new_rng(self.seed)
        k_ids = lsh_bucket_ids(k, n_buckets, self.n_hashes, rng2)
        return shared_bucket_mask(q_ids, k_ids)


def shared_bucket_mask(q_ids: np.ndarray, k_ids: np.ndarray) -> np.ndarray:
    """``mask[..., i, j] = any_h q_ids[..., i, h] == k_ids[..., j, h]``, with
    the diagonal set when queries and keys have the same length.

    One ``n_q × n_k`` comparison per hash round is OR-ed into the mask, so
    two ``n_q × n_k`` bool arrays are alive at most, not a
    ``(…, n_q, n_k, n_hashes)`` one; the diagonal is set in place, so every
    row of a self-attention mask has its own key and none is empty.
    """
    mask = q_ids[..., :, None, 0] == k_ids[..., None, :, 0]
    for h in range(1, q_ids.shape[-1]):
        mask |= q_ids[..., :, None, h] == k_ids[..., None, :, h]
    n_q, n_k = mask.shape[-2:]
    if n_q == n_k:
        diagonal = np.arange(n_q)
        mask[..., diagonal, diagonal] = True
    return mask
