"""Common interface for attention mechanisms.

An :class:`AttentionMechanism` maps ``(Q, K, V)`` — arrays of shape
``(..., seq, head_dim)`` sharing their leading batch dimensions — to an output
of shape ``(..., seq, head_dim_v)``.  Mechanisms that operate by sparsifying
the full attention matrix can additionally report the boolean mask they
induce (:meth:`AttentionMechanism.attention_mask`), which feeds the
lottery-ticket quality analysis of Section 4.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

import numpy as np

from repro.core.softmax import masked_dense_softmax
from repro.core.sddmm import sddmm_dense


class AttentionMechanism:
    """Base class for forward-pass attention mechanisms."""

    #: Registry key; subclasses override.
    name: str = "base"

    #: Whether the mechanism induces an explicit sparsity mask over QK^T.
    produces_mask: bool = False

    def __call__(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def attention_mask(self, q: np.ndarray, k: np.ndarray) -> Optional[np.ndarray]:
        """Boolean mask over the dense score matrix, if the mechanism defines one."""
        return None

    # -------------------------------------------------------------- utilities
    @staticmethod
    def _validate(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> None:
        if q.shape[:-2] != k.shape[:-2] or q.shape[:-2] != v.shape[:-2]:
            raise ValueError("Q, K, V must share their leading batch dimensions")
        if q.shape[-1] != k.shape[-1]:
            raise ValueError("Q and K must share the head dimension")
        if k.shape[-2] != v.shape[-2]:
            raise ValueError("K and V must share the sequence length")

    def masked_attention(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Dense attention restricted to ``mask`` (used by all mask-based baselines)."""
        scores = sddmm_dense(q, k)
        weights = masked_dense_softmax(scores, mask)
        return np.matmul(weights, np.asarray(v, dtype=np.float32))

    def approximation_error(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray
    ) -> float:
        """Relative Frobenius error against full attention."""
        from repro.baselines.full import FullAttention

        ref = FullAttention()(q, k, v)
        out = self(q, k, v)
        denom = np.linalg.norm(ref)
        return float(np.linalg.norm(out - ref) / denom) if denom else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: name -> mechanism class registry, populated by ``register``.
MECHANISM_REGISTRY: Dict[str, Type[AttentionMechanism]] = {}


def register(cls: Type[AttentionMechanism]) -> Type[AttentionMechanism]:
    """Class decorator adding a mechanism to :data:`MECHANISM_REGISTRY`."""
    if not cls.name or cls.name == "base":
        raise ValueError(f"{cls.__name__} must define a unique .name")
    MECHANISM_REGISTRY[cls.name] = cls
    return cls
