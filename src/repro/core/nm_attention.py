"""Row-tiled fused N:M attention forward (the ``nm_attention`` kernel).

The paper's SDDMM prunes each score tile in its epilogue, so the dense score
matrix never reaches memory.  The ``fast`` implementation here does the CPU
equivalent: for every ``(batch·head)`` slice it walks blocks of query rows,
and each block runs the whole chain while its ``(rows, n_k)`` score tile is
cache-resident.  The tile is held lane-major, as M contiguous
``(rows, n_k / M)`` lane planes (plane ``i`` holds the ``i``-th key of every
M-group), in preallocated buffers reused across blocks:

1. ``tensor_core_operand(q)[rows] @ Kᵀ * scale`` as one batched product
   over a lane-major ``(M, d, n_k / M)`` copy of the rounded Kᵀ, which
   writes the scores straight into the lane planes; the rows of a
   blocked-ELL ``block_mask`` are applied and padded key lanes masked;
2. per-lane keep bools from :func:`~repro.core.pruning.nm_keep_lanes` — the
   same selection network and tie-breaking as the ``sddmm_nm`` epilogue;
3. the unnormalised masked softmax on the planes, in place: the row max
   (under ``value`` the max over every lane, as a group's largest lane
   always survives; under ``magnitude`` the kept lanes'), ``exp``, dropped
   lanes zeroed by a bit-pattern multiply, and the denominators summed in
   the N:M order of the compressed softmax
   (:func:`~repro.core.softmax.grouped_row_sum`).  Nothing is divided yet;
4. seeded attention dropout, hashed on dense positions, multiplies the
   planes; then one ``(M, rows, n_k / M) @ (M, n_k / M, d)`` product against
   strided lane views of V (lane ``i``'s keys are rows ``i, i + M, …``; V is
   never copied) fills an ``(M, rows, d)`` partial buffer, whose lane sum
   divided by the denominators is a disjoint row block of the output.

Normalisation is deferred, as in FlashAttention
(https://arxiv.org/abs/2205.14135): the ``(rows, d)`` output is divided
after P·V instead of the ``(rows, n_k)`` tile before it.  When the caller
asks for the compressed probabilities, they are assembled from the
unnormalised planes with the saved keep bools
(:func:`~repro.core.pruning.nm_compress_lanes`) before dropout and divided
by the same denominators, which gives bitwise the probabilities of dividing
the planes first; the selection is never re-run on probabilities, whose
underflowed zeros would tie.

No ``(n_q, n_k)`` score or probability tensor, no lane copy of the tile and
no integer scatter index is ever allocated: the working set is the lane
planes, the small partial buffer and the selection bools, sized by
:data:`TILE_BYTES`.  The compressed probabilities are written into
preallocated ``(values, indices)`` arrays only when the caller asks for
them.

The oracle rule.  The ``reference`` backend is the staged reference chain
(``sddmm_nm → masked_softmax → spmm``) and is the one oracle:

* ``fast`` matches it within float32 rounding (the parity suite uses
  ``rtol=1e-5, atol=1e-6``): P·V sums the keys lane by lane and the divide
  comes after it, so the output is not the staged chain's bit for bit;
* the N:M selection, ``probs.indices``, is bitwise equal to the reference
  chain's;
* bitwise equality otherwise holds only across execution choices: the tile
  size (the selection and probabilities, on exactly representable scores),
  multicore against ``fast``, a stacked batch against single requests, the
  engine against the server.

The multicore backend maps the same :class:`NMForwardJob` tile list over
its worker pool, and every tile runs the same code, which keeps its output
bitwise equal to ``fast`` whatever the worker count.

Both backends take any key count: a key axis that is not a multiple of M is
padded to whole M-groups with zero K and V rows whose score lanes are set to
``MASKED_SCORE`` before the selection, so they carry exactly zero weight.
The dense oracle is dense attention under the cropped N:M keep-mask of the
padded problem (``DfssMechanism.attention_mask``).

The training backward walks the same row blocks
(:func:`repro.core.attention_grad.masked_attention_bwd`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.backend import FAST, REFERENCE, register_kernel
from repro.core.blocked_ell import BlockedEllMask
from repro.core.patterns import default_pattern_for_dtype, resolve_pattern
from repro.core.precision import tensor_core_operand
from repro.core.pruning import global_column_indices, nm_compress_lanes, nm_keep_lanes
from repro.core.sddmm import MASKED_SCORE, _prepare_inputs, _sddmm_nm_reference
from repro.core.softmax import (
    MASKED_LOGIT_THRESHOLD,
    _sparse_softmax_reference,
    grouped_row_sum,
)
from repro.core.sparse import NMSparseMatrix
from repro.core.spmm import _spmm_reference
from repro.utils.seeding import attention_dropout_keep
from repro.utils.shapes import as_batched_3d, restore_batch_shape

__all__ = [
    "TILE_BYTES",
    "NMForwardJob",
    "dropout_keep",
    "pad_keys",
    "row_blocks",
    "tile_span_args",
]

#: Bytes of one float32 score tile: about 1 MiB keeps the lane planes and
#: the selection bools cache-resident (64 rows at L4096, 512 at L512).  Of
#: 256 KiB to 2 MiB, 1 and 2 MiB ran fastest, within 1 % of each other, at
#: B1·H2·L4096 on a 2-CPU box with one BLAS thread; 1 MiB peaks lower.
TILE_BYTES = 1 << 20

#: ``MASKED_SCORE``'s bit pattern, written into dropped lanes' uint32 views.
_MASKED_BITS = MASKED_SCORE.view(np.uint32)

#: One tile: ``(flattened batch index, first row, stop row)``.
Tile = Tuple[int, int, int]

#: Seeded attention dropout of one call: ``(seed, p)``.
Dropout = Tuple[int, float]


def row_blocks(n_q: int, n_k: int) -> List[Tuple[int, int]]:
    """Balanced ``[start, stop)`` query-row blocks of at most ``TILE_BYTES``.

    The block count is the fewest that fit the budget, and rows are spread
    evenly over the blocks, so a row count that is not a multiple of the
    budget never leaves a sliver block.  Depends only on the geometry.
    """
    budget = max(1, TILE_BYTES // (4 * max(int(n_k), 1)))
    count = -(-int(n_q) // budget)
    if count == 0:
        return []
    bounds = [i * n_q // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def pad_keys(x: np.ndarray, n_k: int) -> np.ndarray:
    """``x`` with zero rows appended along its key axis (``-2``) up to ``n_k``."""
    x = np.asarray(x, dtype=np.float32)
    return np.pad(x, [(0, 0)] * (x.ndim - 2) + [(0, n_k - x.shape[-2]), (0, 0)])


def dropout_keep(
    dropout: Dropout, indices: np.ndarray, pattern, n_keys: int, first_row: int = 0
) -> np.ndarray:
    """Inverted-dropout keep mask over compressed N:M lanes.

    ``indices`` are the in-group indices of ``(..., rows, kept)`` lanes whose
    flattened rows are dense rows ``first_row, first_row + 1, …``.  Every
    lane hashes its dense position ``row · n_keys + column`` with the real
    (unpadded) key count, so the mask agrees with the one
    :func:`repro.nn.functional.dense_masked_attention` draws over
    ``(..., n_q, n_keys)``.  Lanes in padded key columns carry zero
    probability, so their keep value never matters.
    """
    seed, p = dropout
    cols = global_column_indices(indices, pattern, pattern.padded(n_keys))
    rows = first_row + np.arange(int(np.prod(indices.shape[:-1])), dtype=np.uint64)
    positions = (
        rows.reshape(indices.shape[:-1] + (1,)) * np.uint64(n_keys)
        + cols.astype(np.uint64)
    )
    return attention_dropout_keep(seed, p, positions)


class _PaddedKeys:
    """Mask source of the reference chain over a padded key axis.

    Stands in for the caller's blocked-ELL mask, the only thing the
    reference SDDMM asks of which is ``dense_mask``: the real keys keep that
    mask (or are all allowed), and every padded key is masked, so its lanes
    score ``MASKED_SCORE`` before the selection just as in the fast tiles.
    """

    def __init__(self, n_keys: int, block_mask: Optional[BlockedEllMask]) -> None:
        self.n_keys = n_keys
        self.block_mask = block_mask

    def dense_mask(self, rows: int, cols: int) -> np.ndarray:
        allowed = np.zeros((rows, cols), dtype=bool)
        allowed[:, : self.n_keys] = (
            True if self.block_mask is None else self.block_mask.dense_mask(rows, self.n_keys)
        )
        return allowed


class NMForwardJob:
    """One fused N:M forward call, decomposed into independent row tiles.

    Construction validates the operands, rounds them to tensor-core
    precision, lays the rounded Kᵀ out lane-major, and allocates the output
    (and the compressed-probability arrays when ``return_probs``).
    ``dropout`` is the call's seeded attention dropout, applied to each
    tile's probabilities before they meet V.  :meth:`run` executes one tile
    into caller-owned buffers from :meth:`new_buffer`; tiles write disjoint
    row blocks, so any executor may run them in any order and on any thread.
    """

    def __init__(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        pattern=None,
        scale: Optional[float] = None,
        dtype: str = "float32",
        criterion: str = "value",
        block_mask: Optional[BlockedEllMask] = None,
        return_probs: bool = False,
        dropout: Optional[Dropout] = None,
    ) -> None:
        q3, k3, batch_shape = _prepare_inputs(q, k)
        v3, v_batch = as_batched_3d(np.asarray(v, dtype=np.float32))
        if v_batch != batch_shape:
            raise ValueError(f"V batch shape {v_batch} != Q batch shape {batch_shape}")
        n_q, n_k = q3.shape[1], k3.shape[1]
        if v3.shape[1] != n_k:
            raise ValueError(f"V rows ({v3.shape[1]}) must equal the key count ({n_k})")
        self.pattern = (
            default_pattern_for_dtype(dtype) if pattern is None else resolve_pattern(pattern)
        )
        # the key axis, padded to whole M-groups; an aligned one is used as is
        self.n_keys = n_k
        n_k = self.pattern.padded(n_k)
        if n_k != self.n_keys:
            k3, v3 = pad_keys(k3, n_k), pad_keys(v3, n_k)
        self.dtype = dtype
        self.criterion = criterion
        scale = 1.0 / np.sqrt(q3.shape[-1]) if scale is None else scale
        # A scale float32 holds exactly gives the same float32 products as
        # the staged path's float64 multiply (a 24 x 24-bit product is exact
        # in float64 and rounds once either way), at float32 cost.
        self.scale = np.float32(scale) if np.float32(scale) == scale else scale
        self.batch_shape = batch_shape
        self.n_q = n_q
        self.n_k = n_k
        self.dropout = dropout
        batch, m, d = q3.shape[0], self.pattern.m, q3.shape[-1]
        groups = n_k // m
        # Q is rounded one row block at a time, in the tile (elementwise, so
        # the bits match rounding it whole).  Kᵀ is rounded once, as every
        # tile reads it, into ``(batch, M, d, n_k / M)``: lane i's block
        # holds the columns of every group's i-th key, so one batched
        # product writes the M lane planes.  V is only viewed lane-major:
        # lane i's keys are rows i, i + M, … of ``_v[b]``, a strided BLAS
        # operand, so no copy of V is made.
        self._q = q3
        self._kt = tensor_core_operand(
            k3.reshape(batch, groups, m, d).transpose(0, 2, 3, 1), dtype
        )
        self._v = v3.reshape(batch, groups, m, v3.shape[-1])
        self._grid = None
        if block_mask is not None:
            self._grid = block_mask.block_grid(n_q, self.n_keys)
            size = block_mask.block_size
            self._row_block = (np.arange(n_q) // size)[:, None]
            # the block column of every lane, as ``(M, 1, n_k / M)``; padded
            # keys borrow the last real key's block and are masked below
            cols = np.minimum(np.arange(n_k), self.n_keys - 1).reshape(groups, m)
            self._col_block = (cols.T // size)[:, None, :]
        kept = self.pattern.kept(n_k)
        blocks = row_blocks(n_q, n_k)
        self.tiles: List[Tile] = [
            (b, r0, r1) for b in range(batch) for r0, r1 in blocks
        ]
        self.tile_rows = max((r1 - r0 for r0, r1 in blocks), default=0)
        self._out = np.empty((batch, n_q, v3.shape[-1]), dtype=np.float32)
        self._values = self._indices = None
        if return_probs:
            self._values = np.empty((batch, n_q, kept), dtype=np.float32)
            self._indices = np.empty((batch, n_q, kept), dtype=np.int8)

    def new_buffer(self) -> Tuple[np.ndarray, np.ndarray]:
        """Tile buffers for :meth:`run`, one pair per concurrent executor: the
        ``(M, rows, n_k / M)`` lane planes and the ``(M, rows, d)`` per-lane
        partial products of P·V."""
        m = self.pattern.m
        return (
            np.empty((m, self.tile_rows, self.n_k // m), dtype=np.float32),
            np.empty((m, self.tile_rows, self._out.shape[-1]), dtype=np.float32),
        )

    def run(self, tile: Tile, buf: Tuple[np.ndarray, np.ndarray]) -> None:
        """Execute one tile: score into the lane planes, select, exponentiate
        in place, contract, and normalise the output rows."""
        b, r0, r1 = tile
        planes, partial = buf[0][:, : r1 - r0], buf[1][:, : r1 - r0]
        q = tensor_core_operand(self._q[b, r0:r1], self.dtype)
        # repro: owns-buffer — the job's reused lane planes
        np.matmul(q, self._kt[b], out=planes)
        # repro: owns-buffer — the job's reused lane planes
        np.multiply(planes, self.scale, out=planes)
        if self._grid is not None:
            allowed = self._grid[self._row_block[r0:r1], self._col_block]
            np.copyto(planes, MASKED_SCORE, where=~allowed)
        if self.n_k != self.n_keys:
            # padded keys are the last lanes of the last group
            np.copyto(planes[self.n_keys % self.pattern.m:, :, -1], MASKED_SCORE)
        keep = nm_keep_lanes(planes, self.pattern, self.criterion)
        denom = self._exp_planes(planes, keep)
        if self._values is not None:
            values, indices = nm_compress_lanes(planes, keep, self.pattern)
            # repro: owns-buffer — disjoint row block of the job's own output
            np.divide(values, denom, out=self._values[b, r0:r1])
            # repro: owns-buffer — disjoint row block of the job's own output
            self._indices[b, r0:r1] = indices
        if self.dropout is not None:
            for lane, plane in enumerate(planes):
                # repro: owns-buffer — a lane of the job's reused lane planes
                plane *= self._lane_dropout(lane, b * self.n_q + r0, r1 - r0)
        # lane i's keys are rows i, i + M, … of V: one strided view per lane
        # repro: owns-buffer — the job's reused partial-product buffer
        np.matmul(planes, self._v[b].transpose(1, 0, 2), out=partial)
        # repro: owns-buffer — disjoint row block of the job's own output
        np.divide(np.sum(partial, axis=0), denom, out=self._out[b, r0:r1])

    def _exp_planes(self, planes: np.ndarray, keep: Tuple[np.ndarray, ...]) -> np.ndarray:
        """Unnormalised masked N:M softmax of the lane planes, in place.

        Each plane is shifted by its row's max (under ``value`` the max over
        every lane, as a group's largest lane always survives; under
        ``magnitude`` the kept lanes'), exponentiated, and its dropped lanes
        zeroed by a bit-pattern multiply.  Returns the ``(rows, 1)``
        denominators, summed in the N:M order of the compressed softmax
        (:func:`~repro.core.softmax.grouped_row_sum`), with the zero sums of
        rows that kept no weight replaced by 1.
        """
        if self.criterion != "value":
            for plane, kept in zip(planes, keep):
                # a dropped lane scores as masked: no part in the max, exp 0
                bits = plane.view(np.uint32)
                # repro: owns-buffer — a lane of the job's reused lane planes
                np.multiply(bits, kept, out=bits)
                # repro: owns-buffer — a lane of the job's reused lane planes
                np.add(bits, ~kept * _MASKED_BITS, out=bits)
        row_max = np.max(planes, axis=(0, 2), keepdims=True)[0]
        # masked-logit rows (all lanes masked) and non-finite maxima shift by 0
        live = np.isfinite(row_max) & (row_max > MASKED_LOGIT_THRESHOLD)
        shift = np.where(live, row_max, 0.0)
        for plane, kept in zip(planes, keep):
            # repro: owns-buffer — a lane of the job's reused lane planes
            np.subtract(plane, shift, out=plane)
            # exp underflows every masked lane to exactly +0
            # repro: owns-buffer — a lane of the job's reused lane planes
            np.exp(plane, out=plane)
            # bit-pattern multiply: a dropped lane is +0 even where exp overflowed
            bits = plane.view(np.uint32)
            # repro: owns-buffer — a lane of the job's reused lane planes
            np.multiply(bits, kept, out=bits)
        denom = grouped_row_sum(planes)
        return np.where(denom == 0.0, np.float32(1.0), denom)

    def _lane_dropout(self, lane: int, first_row: int, rows: int) -> np.ndarray:
        """``(rows, n_k / M)`` keep mask of :meth:`run`'s lane plane ``lane``,
        hashed on the dense positions of flattened rows ``first_row, …``.

        One plane at a time: the hash's uint64 and float64 temporaries are
        each twice the bytes of what they cover.
        """
        row_base = (first_row + np.arange(rows, dtype=np.uint64)) * np.uint64(self.n_keys)
        cols = np.arange(lane, self.n_k, self.pattern.m, dtype=np.uint64)
        return attention_dropout_keep(*self.dropout, row_base[:, None] + cols)

    def result(self) -> Tuple[np.ndarray, Optional[NMSparseMatrix]]:
        """``(out, probs)``; ``probs`` is ``None`` unless requested.

        ``probs`` spans the padded key axis when the key count is not a
        multiple of M; its padded columns hold zero weight.
        """
        out = restore_batch_shape(self._out, self.batch_shape)
        if self._values is None:
            return out, None
        probs = NMSparseMatrix(
            values=restore_batch_shape(self._values, self.batch_shape),
            indices=restore_batch_shape(self._indices, self.batch_shape),
            pattern=self.pattern,
            dense_cols=self.n_k,
            dtype=self.dtype,
        )
        return out, probs


@register_kernel("nm_attention", FAST)
def _nm_attention_fast(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    pattern=None,
    scale: Optional[float] = None,
    dtype: str = "float32",
    criterion: str = "value",
    block_mask: Optional[BlockedEllMask] = None,
    return_probs: bool = False,
    dropout: Optional[Dropout] = None,
) -> Tuple[np.ndarray, Optional[NMSparseMatrix]]:
    """Row-tiled fused forward: one reused tile buffer, no ``n²`` tensor."""
    job = NMForwardJob(
        q, k, v, pattern=pattern, scale=scale, dtype=dtype, criterion=criterion,
        block_mask=block_mask, return_probs=return_probs, dropout=dropout,
    )
    buf = job.new_buffer()
    for tile in job.tiles:
        job.run(tile, buf)
    return job.result()


def tile_span_args(
    q, k, v, pattern=None, scale=None, dtype="float32", criterion="value",
    block_mask=None, return_probs=False, dropout=None,
) -> dict:
    """Trace-span arguments of one tiled call: tile count, tile shape and the
    bytes written (output, plus compressed probabilities when requested)."""
    pattern = (
        default_pattern_for_dtype(dtype) if pattern is None else resolve_pattern(pattern)
    )
    q_shape, n_k = np.shape(q), pattern.padded(np.shape(k)[-2])
    n_q, batch = q_shape[-2], int(np.prod(q_shape[:-2], dtype=np.int64))
    blocks = row_blocks(n_q, n_k)
    rows = max((r1 - r0 for r0, r1 in blocks), default=0)
    out_bytes = 4 * batch * n_q * np.shape(v)[-1]
    if return_probs:
        # float32 values plus int8 in-group indices per kept entry
        out_bytes += 5 * batch * n_q * pattern.kept(n_k)
    return {
        "tiles": batch * len(blocks),
        "tile_shape": f"{rows}x{n_k}",
        "out_bytes": int(out_bytes),
    }


_nm_attention_fast.span_args = tile_span_args


@register_kernel("nm_attention", REFERENCE)
def _nm_attention_reference(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    pattern=None,
    scale: Optional[float] = None,
    dtype: str = "float32",
    criterion: str = "value",
    block_mask: Optional[BlockedEllMask] = None,
    return_probs: bool = False,
    dropout: Optional[Dropout] = None,
) -> Tuple[np.ndarray, Optional[NMSparseMatrix]]:
    """The staged reference chain: ``sddmm_nm → masked_softmax → spmm``.

    A key count that is not a multiple of M is padded as in the fast kernel;
    dropout multiplies the probabilities the SpMM contracts.
    """
    pattern = (
        default_pattern_for_dtype(dtype) if pattern is None else resolve_pattern(pattern)
    )
    n_keys = np.shape(k)[-2]
    n_k = pattern.padded(n_keys)
    if n_k != n_keys:
        k, v = pad_keys(k, n_k), pad_keys(v, n_k)
        block_mask = _PaddedKeys(n_keys, block_mask)
    scores = _sddmm_nm_reference(
        q, k, pattern=pattern, scale=scale, dtype=dtype,
        criterion=criterion, block_mask=block_mask,
    )
    probs = _sparse_softmax_reference(scores)
    applied = probs
    if dropout is not None:
        keep = dropout_keep(dropout, probs.indices, pattern, n_keys)
        applied = probs.with_values(probs.values * keep)
    out = _spmm_reference(applied, v)
    return out, (probs if return_probs else None)
