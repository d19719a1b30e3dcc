"""Row-block attention over declared key ranges: the static-mask layout.

A static-mask mechanism (local window, Sparse Transformer strides, truncated
columns, Longformer, BigBird) knows from the sequence geometry alone which
keys each query may attend to.  This module gives those mechanisms a layout
of their own:

* :class:`RowBlockStructure` — for each fixed :data:`BLOCK_ROWS`-row query
  block, the keys the block reads and the block's allowed sub-mask over
  them.  The keys are one contiguous range (kept as a slice, so ``K[keys]``
  is a view) or a short sorted index list.  The mechanism declares them as
  key ranges plus an allowed predicate (:meth:`RowBlockStructure.build`), so
  a build costs O(rows + ranges) and no ``n_q × n_k`` array exists.  One
  density rule, :data:`DENSE_FRACTION`, runs a block whose keys exceed ¾ of
  ``n_k`` as a dense tile over all keys (Longformer's global row, for one).
* :class:`RowBlockStats` — what the training forward saves for its
  backward instead of the probabilities: each query row's softmax shift and
  denominator.

The fast ``row_block_attention`` kernel runs each block the way the N:M
kernel runs a row tile: ``Q[rows] @ K[keys]ᵀ`` for every batch slice in one
batched product, the masked softmax while the tile is in cache, seeded
dropout hashed on dense positions, then ``P @ V[keys]`` into the block's
output rows.  ``row_block_attention_bwd`` walks the blocks one batch slice
at a time, re-scores each and rebuilds P from the forward's per-row
statistics, as FlashAttention-2 does (https://arxiv.org/abs/2307.08691),
then runs the four gradient products.  Both are row-tile jobs
(:mod:`repro.core.jobs`), :class:`RowBlockForwardJob` over the blocks and
:class:`RowBlockBackwardJob` over the batch slices, which ``fast`` runs in
order and ``multicore`` on its worker pool; slices never mix, so a stack of
requests, a single request and any worker count all give the same bits.

Operands are read in place and outputs written in Q's layout
(:mod:`repro.core.jobs`): the forward runs each block's products over the
operands' own batch axes and strides, the backward reads each batch slice
as a view, and the output and dQ follow Q's memory order, dK K's and dV
V's, so the transposed head views of a multi-head layer are never copied
and its head merge is a view.

Operands are float32 throughout, with no tensor-core rounding: the engine,
the server and the training op share this one precision contract.  The
``reference`` kernels are the dense masked oracle over the structure's mask,
which the parity tests compare the fast ones against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.backend import REFERENCE, register_kernel
from repro.core.jobs import (
    Dropout,
    attention_operands,
    batch_slices,
    dropout_keep,
    register_job_kernel,
)
from repro.core.softmax import masked_dense_softmax
from repro.utils.shapes import restore_batch_shape

__all__ = [
    "BLOCK_ROWS",
    "DENSE_FRACTION",
    "KeyBlock",
    "RowBlockBackwardJob",
    "RowBlockForwardJob",
    "RowBlockStats",
    "RowBlockStructure",
]

#: Query rows per block.
BLOCK_ROWS = 64

#: A block whose keys exceed this share of ``n_k`` runs as a dense tile over
#: all keys: past it, gathering an index list costs more than scoring the
#: few extra masked keys.
DENSE_FRACTION = 0.75

#: ``ranges(start, stop)``: the key ranges ``[(lo, hi), …]`` query rows
#: ``[start, stop)`` may attend to (any order, may overlap or overrun).
Ranges = Callable[[int, int], Sequence[Tuple[int, int]]]
#: ``allowed(rows, keys)``: broadcast boolean predicate over ``(r, 1)`` query
#: and ``(1, w)`` key indices, True where the query attends to the key.
Allowed = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class KeyBlock:
    """Query rows ``[start, stop)`` and the ``width`` key columns they read."""

    start: int
    stop: int
    #: a slice for one contiguous key range, else a sorted index array
    keys: Union[slice, np.ndarray]
    width: int
    #: ``(rows, width)`` bool, True where a (row, key) pair is masked out;
    #: ``None`` when the block attends to every pair
    blocked: Optional[np.ndarray]

    @property
    def rows(self) -> int:
        return self.stop - self.start

    def columns(self) -> np.ndarray:
        """The key columns as an index array."""
        if isinstance(self.keys, slice):
            return np.arange(self.keys.start, self.keys.stop)
        return self.keys


def _merge(ranges: Sequence[Tuple[int, int]], n_k: int) -> List[List[int]]:
    """Sorted, disjoint, non-empty key ranges clipped to ``[0, n_k)``."""
    merged: List[List[int]] = []
    for lo, hi in sorted((max(0, int(lo)), min(n_k, int(hi))) for lo, hi in ranges):
        if lo >= hi:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


class RowBlockStructure:
    """The key blocks of one ``(n_q, n_k)`` static mask; batch-independent.

    Query rows of a block without keys (``width`` 0) are left out of
    :attr:`blocks`; they attend to nothing and get exactly zero output and
    gradients.  :attr:`pairs` counts the query-key pairs the blocks score.
    """

    def __init__(self, n_q: int, n_k: int, blocks: Sequence[KeyBlock]) -> None:
        self.n_q = int(n_q)
        self.n_k = int(n_k)
        self.blocks = tuple(blocks)
        self.max_rows = max((b.rows for b in self.blocks), default=0)
        self.max_width = max((b.width for b in self.blocks), default=0)
        self.pairs = sum(b.rows * b.width for b in self.blocks)

    @classmethod
    def build(cls, n_q: int, n_k: int, ranges: Ranges, allowed: Allowed) -> "RowBlockStructure":
        """Build from a mechanism's declaration, one :data:`BLOCK_ROWS` block at a time.

        ``ranges`` must cover every key ``allowed`` admits for the block's
        rows; ``allowed`` is evaluated on the block's own ``(rows, width)``
        grid only.
        """
        blocks = []
        for start in range(0, n_q, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n_q)
            merged = _merge(ranges(start, stop), n_k)
            width = sum(hi - lo for lo, hi in merged)
            if width > DENSE_FRACTION * n_k:
                merged, width = [[0, n_k]], n_k
            if width == 0:
                continue
            if len(merged) == 1:
                keys = slice(*merged[0])
                cols = np.arange(*merged[0])
            else:
                keys = cols = np.concatenate([np.arange(lo, hi) for lo, hi in merged])
            ok = np.broadcast_to(
                allowed(np.arange(start, stop)[:, None], cols[None, :]),
                (stop - start, width),
            )
            blocked = None if ok.all() else ~ok
            blocks.append(KeyBlock(start, stop, keys, width, blocked))
        return cls(n_q, n_k, blocks)

    def to_mask(self) -> np.ndarray:
        """The ``(n_q, n_k)`` dense boolean mask the structure encodes."""
        mask = np.zeros((self.n_q, self.n_k), dtype=bool)
        for block in self.blocks:
            allowed = True if block.blocked is None else ~block.blocked
            mask[block.start:block.stop, block.keys] = allowed
        return mask

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RowBlockStructure({self.n_q}x{self.n_k}, blocks={len(self.blocks)}, "
            f"max_tile={self.max_rows}x{self.max_width})"
        )


@dataclass(frozen=True)
class RowBlockStats:
    """What the row-block training forward saves for its backward, instead of P:
    every query row's softmax shift (its max score, 0 for a row that attends
    to nothing) and denominator (1 for such a row), ``(..., n_q)`` float32.
    The backward rebuilds ``P = exp(s − shift) / denom`` from them."""

    structure: RowBlockStructure
    shift: np.ndarray
    denom: np.ndarray


# ------------------------------------------------------------------ kernels
def _scale(q: np.ndarray, scale: Optional[float]) -> np.float32:
    return np.float32(1.0 / np.sqrt(q.shape[-1]) if scale is None else scale)


def _slice_index(x: np.ndarray) -> np.ndarray:
    """The flattened index of every batch slice of a ``(..., rows, cols)``
    operand, shaped as its batch axes."""
    lead = x.shape[:-2]
    return np.arange(int(np.prod(lead))).reshape(lead)


def _flat_rows(slices, start: int, stop: int, n_q: int) -> np.ndarray:
    """``(..., rows, 1)`` flattened query rows ``slice · n_q + row`` of the
    batch slices ``slices`` (an index or an array of them) and rows
    ``[start, stop)``: where dropout hashes."""
    return (np.asarray(slices)[..., None] * n_q + np.arange(start, stop))[..., None]


def _scores(scaled_q: np.ndarray, k: np.ndarray, block: KeyBlock) -> np.ndarray:
    """``Q[rows] @ K[keys]ᵀ`` of one block with one (batched) product
    (``scaled_q`` is Q times the scale), blocked pairs at ``-inf``: the
    forward's scores, and what the backward re-scores."""
    scores = np.matmul(
        scaled_q[..., block.start:block.stop, :], np.swapaxes(k[..., block.keys, :], -1, -2)
    )
    if block.blocked is not None:
        np.copyto(scores, -np.inf, where=block.blocked)
    return scores


def _stats(structure: RowBlockStructure, shift, denom, batch_shape) -> RowBlockStats:
    shape = batch_shape + (structure.n_q,)
    return RowBlockStats(structure, shift.reshape(shape), denom.reshape(shape))


def _span_args(q, k, v, structure, return_stats=False, d_out=None, **_) -> dict:
    """Trace-span arguments of one forward call, or of one backward call
    (given ``d_out``): the block tiles (batch slices × blocks), the largest
    tile, the query-key pairs the tiles score, and the bytes written — the
    output, plus each row's shift and denominator when asked for; or dQ, dK
    and dV."""
    batch = int(np.prod(np.shape(q)[:-2], dtype=np.int64))
    if d_out is None:
        out_bytes = 4 * batch * structure.n_q * (np.shape(v)[-1] + (2 if return_stats else 0))
    else:
        out_bytes = 4 * (np.size(q) + np.size(k) + np.size(v))
    return {
        "tiles": batch * len(structure.blocks),
        "tile_shape": f"{structure.max_rows}x{structure.max_width}",
        "pairs": batch * structure.pairs,
        "out_bytes": int(out_bytes),
    }


class _BlockTiles:
    """Operands one row-block call's forward and backward share: Q, K and V
    checked against the structure and read in place (:mod:`repro.core.jobs`),
    the float32 scale and the dropout."""

    def __init__(self, q, k, v, structure, scale, dropout) -> None:
        self._q, self._k, self._v, self.batch_shape = attention_operands(q, k, v, structure)
        self.scale = _scale(self._q, scale)
        self.structure, self.dropout = structure, dropout

    def new_buffer(self) -> None:
        """No buffer to borrow: each block product allocates its own tile."""
        return None


@register_job_kernel("row_block_attention", _span_args)
class RowBlockForwardJob(_BlockTiles):
    """The fast forward, one tile per block: its scores, the row softmax in
    place, dropout and ``P @ V[keys]`` into the block's output rows, plus
    the rows' shift and denominator with ``return_stats``.  :meth:`result`
    is ``(out, stats)``, ``stats`` a :class:`RowBlockStats` or ``None``."""

    def __init__(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, structure: RowBlockStructure,
        scale: Optional[float] = None, dropout: Optional[Dropout] = None,
        return_stats: bool = False,
    ) -> None:
        super().__init__(q, k, v, structure, scale, dropout)
        self._scaled_q = self._q * self.scale
        self.tiles = structure.blocks
        # the output in Q's layout; rows outside every block stay zero
        self._out = np.zeros_like(self._q, shape=self._q.shape[:-1] + self._v.shape[-1:])
        self._slices = _slice_index(self._q)
        self._shift = self._denom = None
        if return_stats:
            # rows outside every block keep the shift 0 and the denominator 1
            self._shift = np.zeros(self._q.shape[:-1], dtype=np.float32)
            self._denom = np.ones(self._q.shape[:-1], dtype=np.float32)

    def label(self, block: KeyBlock) -> Tuple[str, str]:
        """``(rows, shape)`` trace labels of one block tile."""
        return f"{block.start}:{block.stop}", f"{block.rows}x{block.width}"

    def run(self, block: KeyBlock, buf: None) -> None:
        rows = slice(block.start, block.stop)
        scores = _scores(self._scaled_q, self._k, block)
        # row softmax in place; blocked pairs, and every pair of a row whose
        # keys are all blocked, get exactly zero weight
        row_max = np.max(scores, axis=-1, keepdims=True)
        if block.blocked is not None:
            row_max[row_max == -np.inf] = 0.0  # exp(-inf - 0) = 0
        scores -= row_max
        np.exp(scores, out=scores)
        row_sum = np.sum(scores, axis=-1, keepdims=True)
        if block.blocked is not None:
            row_sum[row_sum == 0.0] = 1.0
        scores /= row_sum
        if self._shift is not None:
            # repro: owns-buffer — disjoint row block of the job's own statistics
            self._shift[..., rows] = row_max[..., 0]
            # repro: owns-buffer — disjoint row block of the job's own statistics
            self._denom[..., rows] = row_sum[..., 0]
        if self.dropout is not None:
            n_q, n_k = self.structure.n_q, self.structure.n_k
            flat_rows = _flat_rows(self._slices, block.start, block.stop, n_q)
            scores *= dropout_keep(self.dropout, flat_rows, block.columns(), n_k)
        # repro: owns-buffer — disjoint row block of the job's own output
        np.matmul(scores, self._v[..., block.keys, :], out=self._out[..., rows, :])

    def result(self) -> Tuple[np.ndarray, Optional[RowBlockStats]]:
        stats = None
        if self._shift is not None:
            stats = _stats(self.structure, self._shift, self._denom, self.batch_shape)
        return restore_batch_shape(self._out, self.batch_shape), stats


@register_job_kernel("row_block_attention_bwd", _span_args)
class RowBlockBackwardJob(_BlockTiles):
    """The fast backward, one tile per batch slice, walking the blocks in the
    forward's order.  Per block it rebuilds ``P = exp(s − shift) / denom``
    with the forward's op sequence, then, with ``D`` the dropout keep mask:
    ``dV[keys] += (P ∘ D)ᵀ dO``, ``dS = P ∘ ((dO V[keys]ᵀ) ∘ D − rowsum(dO ∘
    O)) · scale``, ``dQ[rows] = dS K[keys]`` and ``dK[keys] += dSᵀ Q[rows]``.
    :meth:`result` is ``(dQ, dK, dV)``."""

    def __init__(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, d_out: np.ndarray, out: np.ndarray,
        shift: np.ndarray, denom: np.ndarray, structure: RowBlockStructure,
        scale: Optional[float] = None, dropout: Optional[Dropout] = None,
    ) -> None:
        super().__init__(q, k, v, structure, scale, dropout)
        # each gradient in its operand's layout, zero-filled: rows outside
        # every block have no gradient
        self._dq, self._dk, self._dv = (np.zeros_like(x) for x in (self._q, self._k, self._v))
        #: per batch slice, the views (Q, K, V, dO, O, dQ, dK, dV) its tile
        #: reads and writes
        self._views = list(zip(*(
            batch_slices(x)
            for x in (self._q, self._k, self._v, d_out, out, self._dq, self._dk, self._dv)
        )))
        batch = len(self._views)
        self._shift, self._denom = (
            np.asarray(x, dtype=np.float32).reshape(batch, structure.n_q, 1) for x in (shift, denom)
        )
        self.tiles = range(batch)

    def label(self, b: int) -> Tuple[str, str]:
        """``(rows, shape)`` trace labels of one batch slice."""
        return f"{b}:0:{self.structure.n_q}", f"{self.structure.n_q}x{self.structure.n_k}"

    def run(self, b: int, buf: None) -> None:
        scale, n_q = self.scale, self.structure.n_q
        q, k, v, g_b, o, d_q, d_k, d_v = self._views[b]
        shift, denom = self._shift[b], self._denom[b]
        scaled_q = q * scale
        inner = np.sum(g_b * o, axis=-1, keepdims=True)
        for block in self.structure.blocks:
            rows = slice(block.start, block.stop)
            p = _scores(scaled_q, k, block)
            p -= shift[rows]
            np.exp(p, out=p)
            p /= denom[rows]
            keep = None
            if self.dropout is not None:
                flat_rows = _flat_rows(b, block.start, block.stop, n_q)
                keep = dropout_keep(self.dropout, flat_rows, block.columns(), self.structure.n_k)
            g = g_b[rows]
            # repro: owns-buffer — the job's own dV, this slice's rows only
            d_v[block.keys] += np.matmul((p if keep is None else p * keep).T, g)
            d_s = np.matmul(g, v[block.keys].T)
            if keep is not None:
                d_s *= keep
            d_s -= inner[rows]
            d_s *= p
            d_s *= scale
            # repro: owns-buffer — the job's own dQ, this slice's rows only
            np.matmul(d_s, k[block.keys], out=d_q[rows])
            # repro: owns-buffer — the job's own dK, this slice's rows only
            d_k[block.keys] += np.matmul(d_s.T, q[rows])

    def result(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(restore_batch_shape(grad, self.batch_shape) for grad in (self._dq, self._dk, self._dv))


def _exp_allowed(scores: np.ndarray, mask: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``exp(s − shift)`` on the allowed pairs of a dense tile, 0 elsewhere."""
    return np.exp(np.where(mask, scores - shift[..., None], -np.inf))


@register_kernel("row_block_attention", REFERENCE)
def _row_block_attention_reference(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, structure: RowBlockStructure,
    scale: Optional[float] = None, dropout: Optional[Dropout] = None, return_stats: bool = False,
) -> Tuple[np.ndarray, Optional[RowBlockStats]]:
    """The dense masked oracle over all ``n_q × n_k`` pairs of the
    structure's mask.  The statistics are each row's max allowed score (0
    for a row without one) and the sum of its allowed entries'
    exponentials (1 for a zero sum)."""
    q, k, v, batch_shape = attention_operands(q, k, v, structure)
    n_q, n_k = structure.n_q, structure.n_k
    scores = np.matmul(q, np.swapaxes(k, -1, -2)) * _scale(q, scale)
    mask = structure.to_mask()
    weights = masked_dense_softmax(scores, mask)
    if dropout is not None:
        weights = weights * dropout_keep(dropout, _flat_rows(_slice_index(q), 0, n_q, n_q),
                                         np.arange(n_k), n_k)
    out = restore_batch_shape(np.matmul(weights, v), batch_shape)
    if not return_stats:
        return out, None
    live = np.max(np.where(mask, scores, -np.inf), axis=-1)
    shift = np.where(np.isfinite(live), live, 0.0)
    total = np.sum(_exp_allowed(scores, mask, shift), axis=-1)
    return out, _stats(structure, shift, np.where(total == 0.0, 1.0, total), batch_shape)


# ----------------------------------------------------------------- backward
@register_kernel("row_block_attention_bwd", REFERENCE)
def _row_block_attention_bwd_reference(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, d_out: np.ndarray, out: np.ndarray,
    shift: np.ndarray, denom: np.ndarray, structure: RowBlockStructure,
    scale: Optional[float] = None, dropout: Optional[Dropout] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense backward over all ``n_q × n_k`` pairs, P rebuilt from the
    statistics on the structure's mask (``out`` unused)."""
    del out  # the oracle evaluates the Jacobian on the probabilities
    q, k, v, batch_shape = attention_operands(q, k, v, structure)
    lead, n_q, n_k = q.shape[:-2], structure.n_q, structure.n_k
    g = np.asarray(d_out, dtype=np.float32).reshape(lead + (n_q, -1))
    scale = _scale(q, scale)
    shift, denom = (np.asarray(x, dtype=np.float32).reshape(lead + (n_q,)) for x in (shift, denom))
    scores = np.matmul(q, np.swapaxes(k, -1, -2)) * scale
    p = _exp_allowed(scores, structure.to_mask(), shift) / denom[..., None]
    keep = 1.0
    if dropout is not None:
        keep = dropout_keep(dropout, _flat_rows(_slice_index(q), 0, n_q, n_q), np.arange(n_k), n_k)
    d_v = np.matmul(np.swapaxes(p * keep, -1, -2), g)
    d_p = np.matmul(g, np.swapaxes(v, -1, -2)) * keep
    d_s = p * (d_p - np.sum(p * d_p, axis=-1, keepdims=True)) * scale
    grads = (np.matmul(d_s, k), np.matmul(np.swapaxes(d_s, -1, -2), q), d_v)
    return tuple(restore_batch_shape(grad, batch_shape) for grad in grads)

