"""Routing Transformer attention (Roy et al.), expressed as a cluster mask.

Queries and keys are assigned to k-means centroids (spherical k-means on the
concatenated Q/K set, a few Lloyd iterations); a query attends to the keys
routed to the same centroid.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AttentionMechanism, register
from repro.registry import RoutingConfig, register_mechanism
from repro.utils.seeding import new_rng


def _normalise(x: np.ndarray) -> np.ndarray:
    return x / np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1e-6)


def kmeans_assign(points: np.ndarray, n_clusters: int, iters: int, rng) -> np.ndarray:
    """Spherical k-means cluster assignment for a single (n, d) matrix."""
    n = points.shape[0]
    pts = _normalise(points.astype(np.float32))
    centroids = pts[rng.choice(n, size=min(n_clusters, n), replace=False)]
    for _ in range(iters):
        sims = pts @ centroids.T
        assign = np.argmax(sims, axis=-1)
        for c in range(centroids.shape[0]):
            members = pts[assign == c]
            if len(members):
                centroids[c] = _normalise(members.mean(axis=0))
    return np.argmax(pts @ centroids.T, axis=-1)


@register_mechanism(
    "routing",
    config=RoutingConfig,
    label="Routing Trans.",
    description="k-means routed attention (Roy et al.)",
    produces_mask=True,
    compressed=True,
    batchable=True,
    latency_model="routing",
)
@register
class RoutingTransformerAttention(AttentionMechanism):
    """k-means routed attention: attend within the shared cluster."""

    name = "routing"
    produces_mask = True

    def __init__(self, n_clusters: int = None, kmeans_iters: int = 4, seed=0):
        self.n_clusters = n_clusters
        self.kmeans_iters = kmeans_iters
        self.seed = seed

    def attention_mask(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float32)
        k = np.asarray(k, dtype=np.float32)
        batch_shape = q.shape[:-2]
        n_q, n_k = q.shape[-2], k.shape[-2]
        n_clusters = self.n_clusters or max(2, int(round(np.sqrt(n_k))))
        q2 = q.reshape(-1, n_q, q.shape[-1])
        k2 = k.reshape(-1, n_k, k.shape[-1])
        masks = np.empty((q2.shape[0], n_q, n_k), dtype=bool)
        for b in range(q2.shape[0]):
            joint = np.concatenate([q2[b], k2[b]], axis=0)
            # each slice draws its initial centroids from a generator seeded
            # by the mechanism alone, so its mask does not depend on the batch
            rng = new_rng(self.seed)
            assign = kmeans_assign(joint, n_clusters, self.kmeans_iters, rng)
            q_assign, k_assign = assign[:n_q], assign[n_q:]
            masks[b] = q_assign[:, None] == k_assign[None, :]
            # guarantee non-empty rows
            if n_q == n_k:
                np.fill_diagonal(masks[b], True)
        return masks.reshape(batch_shape + (n_q, n_k))

    def __call__(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        self._validate(q, k, v)
        return self.masked_attention(q, k, v, self.attention_mask(q, k))
