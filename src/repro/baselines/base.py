"""Common interface for attention mechanisms.

An :class:`AttentionMechanism` maps ``(Q, K, V)`` — arrays of shape
``(..., seq, head_dim)`` sharing their leading batch dimensions — to an output
of shape ``(..., seq, head_dim_v)``.  Mechanisms that operate by sparsifying
the full attention matrix report the boolean mask they induce
(:meth:`AttentionMechanism.attention_mask`): it is the mechanism's
definition, the tests' oracle input, and feeds the lottery-ticket quality
analysis of Section 4.

A mask mechanism runs one forward wherever it is called — the engine, the
server and the trainable core all take the row-block structure of the call
(:meth:`AttentionMechanism.mask_structure`) and run the row-block plan
(:func:`repro.core.plan.plan_for_blocks`) over it, so no ``n_q × n_k``
score or probability matrix is formed.  A content-dependent mask (Top-K,
Reformer, Routing, Sinkhorn) builds its structure from this call's mask; a
static one (:class:`StaticMaskAttention`) keeps the structure it declares
per sequence length.  Mechanisms with another computation (DFSS's N:M
plan, the kernel and low-rank methods) override ``__call__``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

import numpy as np

from repro.core.plan import plan_for_blocks
from repro.core.row_block import Allowed, Ranges, RowBlockStructure


class AttentionMechanism:
    """Base class for forward-pass attention mechanisms.

    The default ``__call__`` is the mask route: attention restricted to
    :meth:`attention_mask`, run on row-block tiles over
    :meth:`mask_structure`.
    """

    #: Registry key; subclasses override.
    name: str = "base"

    #: Whether the mechanism induces an explicit sparsity mask over QK^T.
    produces_mask: bool = False

    def __call__(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Attention restricted to the mask, on the row-block plan of this
        call's :meth:`mask_structure`."""
        self._validate(q, k, v)
        structure = self.mask_structure(q, k)
        plan = plan_for_blocks(structure, mechanism=self.name)
        return plan.forward(q, k, v, structure=structure)

    def attention_mask(self, q: np.ndarray, k: np.ndarray) -> Optional[np.ndarray]:
        """Boolean mask over the dense score matrix, if the mechanism defines one."""
        return None

    def mask_structure(self, q: np.ndarray, k: np.ndarray) -> RowBlockStructure:
        """The row-block structure of this call's mask: one block list per
        batch slice of :meth:`attention_mask`."""
        return RowBlockStructure.from_mask(self.attention_mask(q, k))

    # -------------------------------------------------------------- utilities
    @staticmethod
    def _validate(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> None:
        if q.shape[:-2] != k.shape[:-2] or q.shape[:-2] != v.shape[:-2]:
            raise ValueError("Q, K, V must share their leading batch dimensions")
        if q.shape[-1] != k.shape[-1]:
            raise ValueError("Q and K must share the head dimension")
        if k.shape[-2] != v.shape[-2]:
            raise ValueError("K and V must share the sequence length")

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


class StaticMaskAttention(AttentionMechanism):
    """A mechanism whose mask depends only on the sequence lengths.

    Subclasses define the mask twice, independently: :meth:`_mask_2d` builds
    the dense boolean mask (:meth:`attention_mask`, the tests' oracle), and
    :meth:`row_block_keys` declares the key ranges and allowed predicate the
    row-block structure is built from.  :meth:`mask_structure` is the
    declared structure, the last :data:`STRUCTURES_KEPT` of them kept by
    ``(n_q, n_k)`` — the configuration is fixed at construction — so a call
    and the trainable core share them, and no mask is built; the server
    keeps its own in its structure cache.
    """

    produces_mask = True

    #: structures a mechanism keeps for its own calls
    STRUCTURES_KEPT = 8

    def _mask_2d(self, n_q: int, n_k: int) -> np.ndarray:
        raise NotImplementedError

    def row_block_keys(self, n_q: int, n_k: int) -> Tuple[Ranges, Allowed]:
        """``(ranges, allowed)`` for :meth:`RowBlockStructure.build
        <repro.core.row_block.RowBlockStructure.build>`."""
        raise NotImplementedError

    def block_structure(self, n_q: int, n_k: int) -> RowBlockStructure:
        """Build the row-block structure of an ``(n_q, n_k)`` attention."""
        return RowBlockStructure.build(n_q, n_k, *self.row_block_keys(n_q, n_k))

    def attention_mask(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        mask = self._mask_2d(q.shape[-2], k.shape[-2])
        return np.broadcast_to(mask, q.shape[:-2] + mask.shape)

    def cached_structure(self, n_q: int, n_k: int) -> RowBlockStructure:
        """:meth:`block_structure`, kept for the mechanism's own calls."""
        kept = self.__dict__.setdefault("_structures", {})
        key = (int(n_q), int(n_k))
        structure = kept.pop(key, None) or self.block_structure(*key)
        kept[key] = structure  # most recent last
        if len(kept) > self.STRUCTURES_KEPT:
            kept.pop(next(iter(kept)))
        return structure

    def mask_structure(self, q: np.ndarray, k: np.ndarray) -> RowBlockStructure:
        return self.cached_structure(q.shape[-2], k.shape[-2])


#: name -> mechanism class registry, populated by ``register``.
MECHANISM_REGISTRY: Dict[str, Type[AttentionMechanism]] = {}


def register(cls: Type[AttentionMechanism]) -> Type[AttentionMechanism]:
    """Class decorator adding a mechanism to :data:`MECHANISM_REGISTRY`."""
    if not cls.name or cls.name == "base":
        raise ValueError(f"{cls.__name__} must define a unique .name")
    MECHANISM_REGISTRY[cls.name] = cls
    return cls
