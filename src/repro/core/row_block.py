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
* :class:`RowBlockMatrix` — a structure broadcast over a batch, optionally
  carrying the probabilities of every block: ``(..., size)`` values, each
  block's ``(rows, width)`` tile raveled at its ``offset``.

The fast ``row_block_attention`` kernel runs each block the way the N:M
kernel runs a row tile: ``Q[rows] @ K[keys]ᵀ``, the masked softmax while the
tile is in cache, seeded dropout hashed on dense positions, then
``P @ V[keys]`` into a disjoint row block of the output.  The fast
``row_block_attention_bwd`` walks the same blocks in a fixed order:
``dV[keys] += Pᵀ dO``, then ``dS``, then ``dQ[rows] = dS K[keys]``, then
``dK[keys] += dSᵀ Q[rows]``.  Each block handles every batch slice with one
batched product, and slices never mix, so a stack of requests, a single
request and a multicore batch tile (:meth:`RowBlockMatrix.batch_slice`) all
give the same bits.

Operands are float32 throughout, with no tensor-core rounding: the engine,
the server and the training op share this one precision contract.  The
``reference`` kernels expand every block to the dense masked oracle over all
``n_k`` keys and are what the parity tests compare the fast ones against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.backend import FAST, REFERENCE, register_kernel
from repro.core.sddmm import _prepare_inputs
from repro.core.softmax import masked_dense_softmax
from repro.utils.seeding import attention_dropout_keep
from repro.utils.shapes import as_batched_3d, restore_batch_shape

__all__ = [
    "BLOCK_ROWS",
    "DENSE_FRACTION",
    "KeyBlock",
    "RowBlockMatrix",
    "RowBlockStructure",
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
#: Seeded attention dropout of one call: ``(seed, p)``.
Dropout = Tuple[int, float]


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
    #: first entry of this block's tile in a slice's flat probabilities
    offset: int

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
        #: probability entries per batch slice
        self.size = sum(b.rows * b.width for b in self.blocks)
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
        offset = 0
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
            blocks.append(KeyBlock(start, stop, keys, width, blocked, offset))
            offset += (stop - start) * width
        return cls(n_q, n_k, blocks)

    def block_mask(self, block: KeyBlock) -> np.ndarray:
        """``(rows, n_k)`` dense boolean mask of one block's rows."""
        mask = np.zeros((block.rows, self.n_k), dtype=bool)
        mask[:, block.keys] = True if block.blocked is None else ~block.blocked
        return mask

    def to_mask(self) -> np.ndarray:
        """The ``(n_q, n_k)`` dense boolean mask the structure encodes."""
        mask = np.zeros((self.n_q, self.n_k), dtype=bool)
        for block in self.blocks:
            mask[block.start:block.stop] = self.block_mask(block)
        return mask

    def broadcast_to(self, batch_shape: Tuple[int, ...]) -> "RowBlockMatrix":
        """This structure over a batch, without values."""
        return RowBlockMatrix(self, tuple(batch_shape))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RowBlockStructure({self.n_q}x{self.n_k}, blocks={len(self.blocks)}, "
            f"max_tile={self.max_rows}x{self.max_width})"
        )


class RowBlockMatrix:
    """A :class:`RowBlockStructure` over a batch, with optional block values.

    ``values`` is ``None`` or ``(*batch_shape, size)`` float32: each batch
    slice holds every block's ``(rows, width)`` tile raveled at the block's
    offset.  ``first_slice`` is the flattened index of the first batch slice
    within the call it belongs to; dropout hashes dense positions from it, so
    a batch tile draws the same keep mask as the whole batch.
    """

    def __init__(
        self,
        structure: RowBlockStructure,
        batch_shape: Tuple[int, ...],
        values: Optional[np.ndarray] = None,
        first_slice: int = 0,
    ) -> None:
        self.structure = structure
        self.batch_shape = tuple(batch_shape)
        self.values = values
        self.first_slice = int(first_slice)

    def valid_lanes(self) -> None:
        """No padding lanes: every stored entry belongs to a block tile."""
        return None

    def with_values(self, values: np.ndarray) -> "RowBlockMatrix":
        return RowBlockMatrix(self.structure, self.batch_shape, values, self.first_slice)

    def batch_slice(self, sl: slice) -> "RowBlockMatrix":
        """The flattened batch slices ``sl``; values are a view."""
        batch = int(np.prod(self.batch_shape, dtype=np.int64))
        values = None
        if self.values is not None:
            values = self.values.reshape(batch, self.structure.size)[sl]
        return RowBlockMatrix(
            self.structure, (sl.stop - sl.start,), values, self.first_slice + sl.start
        )

    def block_values(self, block: KeyBlock) -> np.ndarray:
        """``(batch, rows, width)`` view of one block's values."""
        flat = self.values.reshape(-1, self.structure.size)
        return flat[:, block.offset:block.offset + block.rows * block.width].reshape(
            -1, block.rows, block.width
        )


# ------------------------------------------------------------------ kernels
def _operands(q, k, v, blocks: RowBlockMatrix):
    """``(q3, k3, v3, batch_shape)``, validated against the structure."""
    q3, k3, batch_shape = _prepare_inputs(q, k)
    v3, v_batch = as_batched_3d(np.asarray(v, dtype=np.float32))
    if v_batch != batch_shape:
        raise ValueError(f"V batch shape {v_batch} != Q batch shape {batch_shape}")
    if v3.shape[1] != k3.shape[1]:
        raise ValueError(f"V rows ({v3.shape[1]}) must equal the key count ({k3.shape[1]})")
    structure = blocks.structure
    if (q3.shape[1], k3.shape[1]) != (structure.n_q, structure.n_k):
        raise ValueError(
            f"operands are {q3.shape[1]}x{k3.shape[1]} but the structure is "
            f"{structure.n_q}x{structure.n_k}"
        )
    return q3, k3, v3, batch_shape


def _scale(q3: np.ndarray, scale: Optional[float]) -> np.float32:
    return np.float32(1.0 / np.sqrt(q3.shape[-1]) if scale is None else scale)


def _keep(dropout: Dropout, blocks: RowBlockMatrix, block: KeyBlock, batch: int,
          cols: np.ndarray) -> np.ndarray:
    """``(batch, rows, len(cols))`` inverted-dropout keep mask of one block.

    Each entry hashes its dense position ``(slice · n_q + row) · n_k + col``,
    the position :func:`repro.nn.functional.dense_masked_attention` hashes.
    """
    n_q, n_k = np.uint64(blocks.structure.n_q), np.uint64(blocks.structure.n_k)
    slices = np.arange(blocks.first_slice, blocks.first_slice + batch, dtype=np.uint64)
    rows = slices[:, None] * n_q + np.arange(block.start, block.stop, dtype=np.uint64)
    positions = rows[:, :, None] * n_k + cols.astype(np.uint64)
    return attention_dropout_keep(*dropout, positions)


def _new_values(batch: int, structure: RowBlockStructure, return_probs: bool):
    if not return_probs:
        return None
    return np.empty((batch, structure.size), dtype=np.float32)


def _result(out, values, batch_shape):
    if values is not None:
        values = values.reshape(batch_shape + (values.shape[-1],))
    return restore_batch_shape(out, batch_shape), values


@register_kernel("row_block_attention", FAST)
def _row_block_attention_fast(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    blocks: RowBlockMatrix,
    scale: Optional[float] = None,
    dropout: Optional[Dropout] = None,
    return_probs: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Block by block: scores over the block's keys, softmax in cache, ``@ V``.

    Returns ``(out, values)``: ``values`` holds the pre-dropout block
    probabilities (``(..., size)``) when ``return_probs``, else ``None``.
    """
    q3, k3, v3, batch_shape = _operands(q, k, v, blocks)
    scaled_q = q3 * _scale(q3, scale)
    batch = q3.shape[0]
    structure = blocks.structure
    out = np.zeros((batch, structure.n_q, v3.shape[-1]), dtype=np.float32)
    values = _new_values(batch, structure, return_probs)
    for block in structure.blocks:
        rows = slice(block.start, block.stop)
        scores = np.matmul(scaled_q[:, rows], np.swapaxes(k3[:, block.keys], -1, -2))
        # row softmax in place; blocked pairs, and every pair of a row whose
        # keys are all blocked, get exactly zero weight
        if block.blocked is not None:
            np.copyto(scores, -np.inf, where=block.blocked)
        row_max = np.max(scores, axis=-1, keepdims=True)
        if block.blocked is not None:
            row_max[row_max == -np.inf] = 0.0  # exp(-inf - 0) = 0
        scores -= row_max
        np.exp(scores, out=scores)
        denom = np.sum(scores, axis=-1, keepdims=True)
        if block.blocked is not None:
            denom[denom == 0.0] = 1.0
        scores /= denom
        if values is not None:
            values[:, block.offset:block.offset + scores[0].size] = scores.reshape(batch, -1)
        if dropout is not None:
            scores *= _keep(dropout, blocks, block, batch, block.columns())
        np.matmul(scores, v3[:, block.keys], out=out[:, rows])
    return _result(out, values, batch_shape)


@register_kernel("row_block_attention", REFERENCE)
def _row_block_attention_reference(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    blocks: RowBlockMatrix,
    scale: Optional[float] = None,
    dropout: Optional[Dropout] = None,
    return_probs: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Every block expanded to the dense masked oracle over all keys."""
    q3, k3, v3, batch_shape = _operands(q, k, v, blocks)
    scale = _scale(q3, scale)
    batch = q3.shape[0]
    structure = blocks.structure
    out = np.zeros((batch, structure.n_q, v3.shape[-1]), dtype=np.float32)
    values = _new_values(batch, structure, return_probs)
    all_keys = np.arange(structure.n_k)
    for block in structure.blocks:
        rows = slice(block.start, block.stop)
        scores = np.matmul(q3[:, rows], np.swapaxes(k3, -1, -2)) * scale
        weights = masked_dense_softmax(scores, structure.block_mask(block))
        if values is not None:
            values[:, block.offset:block.offset + block.rows * block.width] = (
                weights[:, :, block.columns()].reshape(batch, -1)
            )
        if dropout is not None:
            weights = weights * _keep(dropout, blocks, block, batch, all_keys)
        out[:, rows] = np.matmul(weights, v3)
    return _result(out, values, batch_shape)


def span_args(q, k, v, blocks, scale=None, dropout=None, return_probs=False) -> dict:
    """Trace-span arguments of one forward call: block tiles (batch slices ×
    blocks), the largest tile and the bytes written (output, plus the block
    probabilities when requested)."""
    structure = blocks.structure
    batch = int(np.prod(np.shape(q)[:-2], dtype=np.int64))
    out_bytes = 4 * batch * structure.n_q * np.shape(v)[-1]
    if return_probs:
        out_bytes += 4 * batch * structure.size
    return {
        "tiles": batch * len(structure.blocks),
        "tile_shape": f"{structure.max_rows}x{structure.max_width}",
        "out_bytes": int(out_bytes),
    }


_row_block_attention_fast.span_args = span_args


# ----------------------------------------------------------------- backward
@register_kernel("row_block_attention_bwd", FAST)
def _row_block_attention_bwd_fast(
    probs: RowBlockMatrix,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    d_out: np.ndarray,
    scale: float,
    dropout: Optional[Dropout] = None,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(dQ, dK, dV)`` block by block, in the forward's block order.

    Per block: ``dV[keys] += Pᵀ dO`` (``P`` after dropout), ``dP = dO
    V[keys]ᵀ`` times the keep mask, ``dS = P ∘ (dP − rowsum(P ∘ dP)) ·
    scale``, ``dQ[rows] = dS K[keys]`` and ``dK[keys] += dSᵀ Q[rows]``.  With
    the forward output ``out`` the row sums read ``rowsum(dO ∘ O)`` instead.
    """
    q3, k3, v3, batch_shape = _operands(q, k, v, probs)
    g3, _ = as_batched_3d(np.asarray(d_out, dtype=np.float32))
    scale = np.float32(scale)
    batch = q3.shape[0]
    inner = None
    if out is not None:
        out3, _ = as_batched_3d(np.asarray(out, dtype=np.float32))
        inner = np.sum(g3 * out3, axis=-1, keepdims=True)
    # zero-filled: rows outside every block have no gradient
    d_q = np.zeros(q3.shape, dtype=np.float32)
    d_k = np.zeros(k3.shape, dtype=np.float32)
    d_v = np.zeros(v3.shape, dtype=np.float32)
    for block in probs.structure.blocks:
        rows = slice(block.start, block.stop)
        p = probs.block_values(block)
        keep = None
        if dropout is not None:
            keep = _keep(dropout, probs, block, batch, block.columns())
        g = g3[:, rows]
        d_v[:, block.keys] += np.matmul(
            np.swapaxes(p if keep is None else p * keep, -1, -2), g
        )
        d_s = np.matmul(g, np.swapaxes(v3[:, block.keys], -1, -2))
        if keep is not None:
            d_s *= keep
        d_s -= (
            np.sum(p * d_s, axis=-1, keepdims=True) if inner is None else inner[:, rows]
        )
        d_s *= p
        d_s *= scale
        np.matmul(d_s, k3[:, block.keys], out=d_q[:, rows])
        d_k[:, block.keys] += np.matmul(np.swapaxes(d_s, -1, -2), q3[:, rows])
    return tuple(restore_batch_shape(grad, batch_shape) for grad in (d_q, d_k, d_v))


@register_kernel("row_block_attention_bwd", REFERENCE)
def _row_block_attention_bwd_reference(
    probs: RowBlockMatrix,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    d_out: np.ndarray,
    scale: float,
    dropout: Optional[Dropout] = None,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense-tile backward of every block over all keys (``out`` unused)."""
    del out  # the oracle evaluates the Jacobian on the probabilities
    q3, k3, v3, batch_shape = _operands(q, k, v, probs)
    g3, _ = as_batched_3d(np.asarray(d_out, dtype=np.float32))
    batch = q3.shape[0]
    structure = probs.structure
    all_keys = np.arange(structure.n_k)
    d_q = np.zeros(q3.shape, dtype=np.float32)
    d_k = np.zeros(k3.shape, dtype=np.float32)
    d_v = np.zeros(v3.shape, dtype=np.float32)
    for block in structure.blocks:
        rows = slice(block.start, block.stop)
        p = np.zeros((batch, block.rows, structure.n_k), dtype=np.float32)
        p[:, :, block.keys] = probs.block_values(block)
        keep = 1.0
        if dropout is not None:
            keep = _keep(dropout, probs, block, batch, all_keys)
        g = g3[:, rows]
        d_v += np.matmul(np.swapaxes(p * keep, -1, -2), g)
        d_p = np.matmul(g, np.swapaxes(v3, -1, -2)) * keep
        d_s = p * (d_p - np.sum(p * d_p, axis=-1, keepdims=True)) * np.float32(scale)
        d_q[:, rows] = np.matmul(d_s, k3)
        d_k += np.matmul(np.swapaxes(d_s, -1, -2), q3[:, rows])
    return tuple(restore_batch_shape(grad, batch_shape) for grad in (d_q, d_k, d_v))


def _bwd_span_args(probs, q, k, v, d_out, scale, dropout=None, out=None) -> dict:
    """Trace-span arguments of one backward call: the forward's tiles and the
    gradient bytes written (dQ, dK and dV)."""
    structure = probs.structure
    batch = int(np.prod(np.shape(q)[:-2], dtype=np.int64))
    return {
        "tiles": batch * len(structure.blocks),
        "tile_shape": f"{structure.max_rows}x{structure.max_width}",
        "out_bytes": int(4 * (np.size(q) + np.size(k) + np.size(v))),
    }


_row_block_attention_bwd_fast.span_args = _bwd_span_args
