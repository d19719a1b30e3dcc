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
then runs the four gradient products.  Both are :class:`RowBlockJob` tiles
(blocks, batch slices) that ``fast`` runs in order and ``multicore`` on its
worker pool; slices never mix, so a stack of requests, a single request and
any worker count all give the same bits.

Operands are float32 throughout, with no tensor-core rounding: the engine,
the server and the training op share this one precision contract.  The
``reference`` kernels are the dense masked oracle over the structure's mask,
which the parity tests compare the fast ones against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.backend import FAST, REFERENCE, register_kernel
from repro.core.nm_attention import Dropout, run_inline
from repro.core.sddmm import _prepare_inputs
from repro.core.softmax import masked_dense_softmax
from repro.utils.seeding import attention_dropout_keep
from repro.utils.shapes import as_batched_3d, restore_batch_shape

__all__ = [
    "BLOCK_ROWS",
    "DENSE_FRACTION",
    "KeyBlock",
    "RowBlockJob",
    "RowBlockStats",
    "RowBlockStructure",
    "backward_job",
    "bwd_span_args",
    "forward_job",
    "span_args",
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
    gradients.
    """

    def __init__(self, n_q: int, n_k: int, blocks: Sequence[KeyBlock]) -> None:
        self.n_q = int(n_q)
        self.n_k = int(n_k)
        self.blocks = tuple(blocks)
        self.max_rows = max((b.rows for b in self.blocks), default=0)
        self.max_width = max((b.width for b in self.blocks), default=0)

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


@dataclass(frozen=True)
class RowBlockJob:
    """A fast row-block call as tiles, in the protocol of the N:M jobs: ``run(tile,
    buf)`` for every tile, in any order and on any thread, then ``result()``.
    Tiles write disjoint parts of the outputs their builder allocates."""

    tiles: Sequence
    run: Callable[[object, None], None]
    result: Callable[[], tuple]

    def new_buffer(self) -> None:
        """No buffer to borrow: each block product allocates its own tile."""
        return None


# ------------------------------------------------------------------ kernels
def _operands(q, k, v, structure: RowBlockStructure):
    """``(q3, k3, v3, batch_shape)``, validated against the structure."""
    q3, k3, batch_shape = _prepare_inputs(q, k)
    v3, v_batch = as_batched_3d(np.asarray(v, dtype=np.float32))
    if v_batch != batch_shape:
        raise ValueError(f"V batch shape {v_batch} != Q batch shape {batch_shape}")
    if v3.shape[1] != k3.shape[1]:
        raise ValueError(f"V rows ({v3.shape[1]}) must equal the key count ({k3.shape[1]})")
    if (q3.shape[1], k3.shape[1]) != (structure.n_q, structure.n_k):
        raise ValueError(
            f"operands are {q3.shape[1]}x{k3.shape[1]} but the structure is "
            f"{structure.n_q}x{structure.n_k}"
        )
    return q3, k3, v3, batch_shape


def _scale(q3: np.ndarray, scale: Optional[float]) -> np.float32:
    return np.float32(1.0 / np.sqrt(q3.shape[-1]) if scale is None else scale)


def _keep(dropout: Dropout, structure: RowBlockStructure, slices, rows, cols) -> np.ndarray:
    """``(len(slices), len(rows), len(cols))`` inverted-dropout keep mask of
    the given flattened batch slices, query rows and key columns.

    Each entry hashes its dense position ``(slice · n_q + row) · n_k + col``,
    the position :func:`repro.nn.functional.dense_masked_attention` hashes.
    """
    n_q, n_k = np.uint64(structure.n_q), np.uint64(structure.n_k)
    slices, rows, cols = (np.asarray(x, dtype=np.uint64) for x in (slices, rows, cols))
    positions = (slices[:, None] * n_q + rows)[:, :, None] * n_k + cols
    return attention_dropout_keep(*dropout, positions)


def _scores(scaled_q: np.ndarray, k3: np.ndarray, block: KeyBlock) -> np.ndarray:
    """``Q[rows] @ K[keys]ᵀ`` of one block with one batched product
    (``scaled_q`` is Q times the scale), blocked pairs at ``-inf``: the
    forward's scores, and what the backward re-scores."""
    scores = np.matmul(
        scaled_q[:, block.start:block.stop], np.swapaxes(k3[:, block.keys], -1, -2)
    )
    if block.blocked is not None:
        np.copyto(scores, -np.inf, where=block.blocked)
    return scores


def _stats(structure: RowBlockStructure, shift, denom, batch_shape) -> RowBlockStats:
    shape = batch_shape + (structure.n_q,)
    return RowBlockStats(structure, shift.reshape(shape), denom.reshape(shape))


def forward_job(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, structure: RowBlockStructure,
    scale: Optional[float] = None, dropout: Optional[Dropout] = None, return_stats: bool = False,
) -> RowBlockJob:
    """The fast forward, one tile per block: its scores, the row softmax in
    place, dropout and ``P @ V[keys]`` into the block's output rows, plus the
    rows' shift and denominator with ``return_stats``.  ``result()`` is
    ``(out, stats)``, ``stats`` a :class:`RowBlockStats` or ``None``."""
    q3, k3, v3, batch_shape = _operands(q, k, v, structure)
    scaled_q = q3 * _scale(q3, scale)
    batch, n_q = q3.shape[0], structure.n_q
    out = np.zeros((batch, n_q, v3.shape[-1]), dtype=np.float32)
    shift = denom = None
    if return_stats:
        # rows outside every block keep the shift 0 and the denominator 1
        shift = np.zeros((batch, n_q), dtype=np.float32)
        denom = np.ones((batch, n_q), dtype=np.float32)

    def run(block: KeyBlock, buf: None) -> None:
        rows = slice(block.start, block.stop)
        scores = _scores(scaled_q, k3, block)
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
        if return_stats:
            shift[:, rows] = row_max[..., 0]
            denom[:, rows] = row_sum[..., 0]
        if dropout is not None:
            scores *= _keep(dropout, structure, range(batch), range(rows.start, rows.stop),
                            block.columns())
        np.matmul(scores, v3[:, block.keys], out=out[:, rows])

    def result() -> Tuple[np.ndarray, Optional[RowBlockStats]]:
        stats = _stats(structure, shift, denom, batch_shape) if return_stats else None
        return restore_batch_shape(out, batch_shape), stats

    return RowBlockJob(structure.blocks, run, result)


def backward_job(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, d_out: np.ndarray, out: np.ndarray,
    shift: np.ndarray, denom: np.ndarray, structure: RowBlockStructure,
    scale: Optional[float] = None, dropout: Optional[Dropout] = None,
) -> RowBlockJob:
    """The fast backward, one tile per batch slice, walking the blocks in the
    forward's order.  Per block it rebuilds ``P = exp(s − shift) / denom``
    with the forward's op sequence, then, with ``D`` the dropout keep mask:
    ``dV[keys] += (P ∘ D)ᵀ dO``, ``dS = P ∘ ((dO V[keys]ᵀ) ∘ D − rowsum(dO ∘
    O)) · scale``, ``dQ[rows] = dS K[keys]`` and ``dK[keys] += dSᵀ Q[rows]``.
    ``result()`` is ``(dQ, dK, dV)``."""
    q3, k3, v3, batch_shape = _operands(q, k, v, structure)
    g3, o3 = (as_batched_3d(np.asarray(x, dtype=np.float32))[0] for x in (d_out, out))
    batch = q3.shape[0]
    shift, denom = (
        np.asarray(x, dtype=np.float32).reshape(batch, structure.n_q, 1) for x in (shift, denom)
    )
    scale = _scale(q3, scale)
    # zero-filled: rows outside every block have no gradient
    d_q, d_k, d_v = (np.zeros(x.shape, dtype=np.float32) for x in (q3, k3, v3))

    def run(b: int, buf: None) -> None:
        sl = slice(b, b + 1)
        scaled_q = q3[sl] * scale
        inner = np.sum(g3[sl] * o3[sl], axis=-1, keepdims=True)
        for block in structure.blocks:
            rows = slice(block.start, block.stop)
            p = _scores(scaled_q, k3[sl], block)
            p -= shift[sl, rows]
            np.exp(p, out=p)
            p /= denom[sl, rows]
            keep = None
            if dropout is not None:
                keep = _keep(dropout, structure, [b], range(rows.start, rows.stop), block.columns())
            g = g3[sl, rows]
            d_v[sl, block.keys] += np.matmul(
                np.swapaxes(p if keep is None else p * keep, -1, -2), g
            )
            d_s = np.matmul(g, np.swapaxes(v3[sl, block.keys], -1, -2))
            if keep is not None:
                d_s *= keep
            d_s -= inner[:, rows]
            d_s *= p
            d_s *= scale
            np.matmul(d_s, k3[sl, block.keys], out=d_q[sl, rows])
            d_k[sl, block.keys] += np.matmul(np.swapaxes(d_s, -1, -2), q3[sl, rows])

    def result() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(restore_batch_shape(grad, batch_shape) for grad in (d_q, d_k, d_v))

    return RowBlockJob(range(batch), run, result)


@register_kernel("row_block_attention", FAST)
def _row_block_attention_fast(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, structure: RowBlockStructure,
    scale: Optional[float] = None, dropout: Optional[Dropout] = None, return_stats: bool = False,
) -> Tuple[np.ndarray, Optional[RowBlockStats]]:
    """:func:`forward_job`'s blocks in order, on the calling thread."""
    return run_inline(forward_job(q, k, v, structure, scale, dropout, return_stats))


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
    q3, k3, v3, batch_shape = _operands(q, k, v, structure)
    batch, n_q, n_k = q3.shape[0], structure.n_q, structure.n_k
    scores = np.matmul(q3, np.swapaxes(k3, -1, -2)) * _scale(q3, scale)
    mask = structure.to_mask()
    weights = masked_dense_softmax(scores, mask)
    if dropout is not None:
        weights = weights * _keep(dropout, structure, range(batch), range(n_q), range(n_k))
    out = restore_batch_shape(np.matmul(weights, v3), batch_shape)
    if not return_stats:
        return out, None
    live = np.max(np.where(mask, scores, -np.inf), axis=-1)
    shift = np.where(np.isfinite(live), live, 0.0)
    total = np.sum(_exp_allowed(scores, mask, shift), axis=-1)
    return out, _stats(structure, shift, np.where(total == 0.0, 1.0, total), batch_shape)


def span_args(q, k, v, structure, scale=None, dropout=None, return_stats=False) -> dict:
    """Trace-span arguments of one forward call: block tiles (batch slices ×
    blocks), the largest tile and the bytes written (the output, plus each
    row's shift and denominator when asked for)."""
    batch = int(np.prod(np.shape(q)[:-2], dtype=np.int64))
    return {
        "tiles": batch * len(structure.blocks),
        "tile_shape": f"{structure.max_rows}x{structure.max_width}",
        "out_bytes": 4 * batch * structure.n_q * (np.shape(v)[-1] + (2 if return_stats else 0)),
    }


def bwd_span_args(q, k, v, d_out, out, shift, denom, structure, scale=None, dropout=None) -> dict:
    """Trace-span arguments of one backward call: the forward's tiles and the
    gradient bytes written (dQ, dK and dV)."""
    grads = np.size(q) + np.size(k) + np.size(v)
    return {**span_args(q, k, v, structure), "out_bytes": 4 * grads}


_row_block_attention_fast.span_args = span_args


# ----------------------------------------------------------------- backward
@register_kernel("row_block_attention_bwd", FAST)
def _row_block_attention_bwd_fast(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, d_out: np.ndarray, out: np.ndarray,
    shift: np.ndarray, denom: np.ndarray, structure: RowBlockStructure,
    scale: Optional[float] = None, dropout: Optional[Dropout] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`backward_job`'s batch slices in order, on the calling thread:
    ``(dQ, dK, dV)`` from the forward's operands, output and statistics."""
    return run_inline(backward_job(q, k, v, d_out, out, shift, denom, structure, scale, dropout))


@register_kernel("row_block_attention_bwd", REFERENCE)
def _row_block_attention_bwd_reference(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, d_out: np.ndarray, out: np.ndarray,
    shift: np.ndarray, denom: np.ndarray, structure: RowBlockStructure,
    scale: Optional[float] = None, dropout: Optional[Dropout] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense backward over all ``n_q × n_k`` pairs, P rebuilt from the
    statistics on the structure's mask (``out`` unused)."""
    del out  # the oracle evaluates the Jacobian on the probabilities
    q3, k3, v3, batch_shape = _operands(q, k, v, structure)
    g3, _ = as_batched_3d(np.asarray(d_out, dtype=np.float32))
    batch, n_q, n_k = q3.shape[0], structure.n_q, structure.n_k
    scale = _scale(q3, scale)
    shift, denom = (np.asarray(x, dtype=np.float32).reshape(batch, n_q) for x in (shift, denom))
    scores = np.matmul(q3, np.swapaxes(k3, -1, -2)) * scale
    p = _exp_allowed(scores, structure.to_mask(), shift) / denom[..., None]
    keep = 1.0
    if dropout is not None:
        keep = _keep(dropout, structure, range(batch), range(n_q), range(n_k))
    d_v = np.matmul(np.swapaxes(p * keep, -1, -2), g3)
    d_p = np.matmul(g3, np.swapaxes(v3, -1, -2)) * keep
    d_s = p * (d_p - np.sum(p * d_p, axis=-1, keepdims=True)) * scale
    grads = (np.matmul(d_s, k3), np.matmul(np.swapaxes(d_s, -1, -2), q3), d_v)
    return tuple(restore_batch_shape(grad, batch_shape) for grad in grads)


_row_block_attention_bwd_fast.span_args = bwd_span_args
