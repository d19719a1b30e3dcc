"""Row-tiled fused N:M attention: the ``nm_attention`` forward and the
``nm_attention_bwd`` backward kernels.

The paper's SDDMM prunes each score tile in its epilogue, so the dense score
matrix never reaches memory.  The ``fast`` implementation here does the CPU
equivalent: for every ``(batch·head)`` slice it walks blocks of query rows,
and each block runs the whole chain while its ``(rows, n_k)`` score tile is
cache-resident.  The tile is held lane-major, as M contiguous
``(rows, n_k / M)`` lane planes (plane ``i`` holds the ``i``-th key of every
M-group), in preallocated buffers reused across blocks:

1. ``tensor_core_operand(q)[rows] @ Kᵀ * scale`` as one batched product
   over a lane-major ``(M, d, n_k / M)`` copy of the rounded Kᵀ, which
   writes the scores straight into the lane planes; padded key lanes are
   masked;
2. per-lane keep bools from :func:`~repro.core.pruning.nm_keep_lanes` — the
   tie-breaking of the ``sddmm_nm`` epilogue (:func:`~repro.core.pruning.nm_compress`);
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
(``sddmm_nm → sparse_softmax → spmm``) and is the one oracle:

* ``fast`` matches it within float32 rounding (the parity suite uses
  ``rtol=1e-5, atol=1e-6``): P·V sums the keys lane by lane and the divide
  comes after it, so the output is not the staged chain's bit for bit;
* the N:M selection, ``probs.indices``, is bitwise equal to the reference
  chain's;
* bitwise equality otherwise holds only across execution choices: the tile
  size (the selection and probabilities, on exactly representable scores),
  multicore against ``fast``, a stacked batch against single requests, the
  engine against the server.

Both passes are row-tile jobs (:mod:`repro.core.jobs`):
:class:`NMForwardJob` and :class:`NMBackwardJob` are registered as the
``fast`` kernels, which run their tiles in order, and as the ``multicore``
ones, which run the same tiles on the worker pool; every tile runs the same
code, which keeps multicore bitwise equal to ``fast`` whatever the worker
count.

Operands are read in place and outputs written in Q's layout
(:mod:`repro.core.jobs`).  Q, K, V, dO and O keep the caller's strides: a
tile reads its ``(batch·head)`` slice as a ``(rows, d)`` view, so the
transposed head views of a multi-head layer are not flattened into copies.
What a tile copies it copies anyway: the tf32-rounded Q rows, the
lane-major rounded Kᵀ (once per call in the forward, once per slice in the
backward), and the backward's lane-major K and V (once per slice; a tile
over fewer than all groups gathers its rows of them).  The output and dQ
are allocated in Q's memory order, dK in K's and dV in V's, so the layer's
head merge and autograd's head-split backward reshape them as views.
Contiguous operands take the same path.

The hybrid of Appendix A.1.2 (blocked-ELL + N:M; BigBird + DFSS in Figure
18A) passes a :class:`~repro.core.row_block.RowBlockStructure` as
``structure``: each tile is then one of its key blocks, and scores, selects,
exponentiates and contracts only the block's keys, widened to whole
M-groups.  A widened lane the block does not allow scores ``MASKED_SCORE``
before the selection — the dense rule "mask, then select per group", also
for a group that straddles a block edge — and a group outside every tile is
never scored.  The training forward then saves its tiles' selection codes
only (:class:`NMStats`).  Without a structure the tiles are the
:func:`row_blocks` over all keys.

Both backends take any key count: a key axis that is not a multiple of M is
padded to whole M-groups with zero K and V rows whose score lanes are set to
``MASKED_SCORE`` before the selection, so they carry exactly zero weight.
The dense oracle is dense attention under the cropped N:M keep-mask of the
padded problem (``DfssMechanism.attention_mask``).

Training.  With ``return_stats`` the forward saves no probabilities: it
writes each row's softmax shift and denominator (``(batch, n_q)`` float32,
which step 3 computes anyway) and the selection, one code per M-group, into
an :class:`NMStats`.  The ``nm_attention_bwd`` kernel recomputes the
probabilities from them, as FlashAttention-2 does
(https://arxiv.org/abs/2307.08691): :class:`NMBackwardJob` walks the same
row blocks, re-scores each with the same rounded operands (bit for bit the
forward's scores), rebuilds ``exp(s − shift)`` on the saved selection, and
runs the four gradient products on the tile; its tiles are the batch
slices.  Its ``reference`` version re-runs the staged reference chain and
composes the staged backward primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.attention_grad import masked_attention_bwd
from repro.core.backend import REFERENCE, register_kernel
from repro.core.jobs import (
    Dropout,
    aligned_empty,
    attention_operands,
    batch_slices,
    dropout_keep,
    register_job_kernel,
)
from repro.core.patterns import NMPattern, default_pattern_for_dtype, resolve_pattern
from repro.core.precision import tensor_core_operand
from repro.core.pruning import MASKED_SCORE, global_column_indices, nm_compress_lanes, nm_keep_lanes
from repro.core.row_block import KeyBlock, RowBlockStructure
from repro.core.sddmm import sddmm_nm
from repro.core.softmax import MASKED_LOGIT_THRESHOLD, grouped_row_sum, sparse_softmax
from repro.core.sparse import NMSparseMatrix
from repro.core.spmm import spmm
from repro.utils.shapes import restore_batch_shape

__all__ = [
    "TILE_BYTES",
    "NMBackwardJob",
    "NMForwardJob",
    "NMStats",
    "pad_keys",
    "row_blocks",
    "staged_scores",
]

#: Bytes of one float32 score tile: about 1 MiB keeps the lane planes and
#: the selection bools cache-resident (64 rows at L4096, 512 at L512).  Of
#: 256 KiB to 2 MiB, 1 and 2 MiB ran fastest, within 1 % of each other, at
#: B1·H2·L4096 on a 2-CPU box with one BLAS thread; 1 MiB peaks lower.
TILE_BYTES = 1 << 20

#: ``MASKED_SCORE``'s bit pattern, written into dropped lanes' uint32 views.
_MASKED_BITS = MASKED_SCORE.view(np.uint32)


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


def staged_scores(
    q, k, pattern, scale=None, dtype: str = "float32", criterion: str = "value",
    structure: Optional[RowBlockStructure] = None,
) -> NMSparseMatrix:
    """The staged chain's compressed scores: :func:`~repro.core.sddmm.sddmm_nm`
    over the key axis padded to whole M-groups, the padded keys and the keys
    ``structure`` does not allow scoring ``MASKED_SCORE`` before the
    selection."""
    n_q, n_keys = np.shape(q)[-2], np.shape(k)[-2]
    n_k = pattern.padded(n_keys)
    allowed = None
    if structure is not None or n_k != n_keys:
        batch_shape = () if structure is None else structure.batch_shape
        allowed = np.zeros(batch_shape + (n_q, n_k), dtype=bool)
        allowed[..., :n_keys] = True if structure is None else structure.to_mask()
    return sddmm_nm(q, pad_keys(k, n_k), pattern=pattern, scale=scale, dtype=dtype,
                    criterion=criterion, mask=allowed)


def _resolve(pattern, dtype: str) -> NMPattern:
    """The call's N:M pattern: ``pattern`` resolved, or ``dtype``'s default."""
    return default_pattern_for_dtype(dtype) if pattern is None else resolve_pattern(pattern)


def _compressed_keep(dropout: Dropout, indices: np.ndarray, pattern, n_keys: int) -> np.ndarray:
    """The dropout keep mask of compressed N:M lanes with in-group indices
    ``indices`` (``(..., rows, kept)``, every row in order): lanes in padded
    key columns carry zero probability, so their keep value never matters."""
    rows = np.arange(int(np.prod(indices.shape[:-1]))).reshape(indices.shape[:-1] + (1,))
    cols = global_column_indices(indices, pattern, pattern.padded(n_keys))
    return dropout_keep(dropout, rows, cols, n_keys)


class _Tile(NamedTuple):
    """One N:M tile of a batch slice: query rows ``[start, stop)``; the
    ``width`` M-groups of the padded key axis it scores, ``groups`` (a
    slice, or a sorted index array); ``masked``, the ``(M, rows, width)``
    lanes that score ``MASKED_SCORE`` (keys its block does not allow;
    ``None`` when it allows all); and ``offset``, where its ``rows × width``
    selection codes start in the slice's row of codes."""

    start: int
    stop: int
    groups: Union[slice, np.ndarray]
    width: int
    masked: Optional[np.ndarray]
    offset: int

    @property
    def rows(self) -> int:
        return self.stop - self.start


def _block_tiles(blocks: Sequence[KeyBlock], m: int) -> List[_Tile]:
    """One tile per key block: the block's keys widened to whole M-groups,
    with the widened lanes it does not allow masked."""
    tiles, offset = [], 0
    for block in blocks:
        cols = block.columns()
        ids = np.unique(cols // m)
        width = ids.size
        groups = slice(int(ids[0]), int(ids[-1]) + 1) if ids[-1] - ids[0] + 1 == width else ids
        masked = None
        if block.blocked is not None or cols.size != width * m:
            allowed = np.zeros((block.rows, width, m), dtype=bool)
            allowed[:, np.searchsorted(ids, cols // m), cols % m] = (
                True if block.blocked is None else ~block.blocked
            )
            if not allowed.all():
                masked = np.ascontiguousarray(np.moveaxis(~allowed, -1, 0))
        tiles.append(_Tile(block.start, block.stop, groups, width, masked, offset))
        offset += block.rows * width
    return tiles


def _slice_tiles(structure, lead: Tuple[int, ...], n_q: int, n_k: int, m: int) -> List[List[_Tile]]:
    """The tiles of every flattened batch slice of operands with batch shape
    ``lead`` over a padded key axis of ``n_k``: the :func:`row_blocks` over
    all groups without a structure, else the tiles of the slice's block list."""
    batch = int(np.prod(lead, dtype=np.int64))
    if structure is None:
        groups = n_k // m
        plain = [_Tile(r0, r1, slice(0, groups), groups, None, r0 * groups)
                 for r0, r1 in row_blocks(n_q, n_k)]
        return [plain] * batch
    index = structure.slice_index(lead)
    lists = {int(s): _block_tiles(structure.slices[s], m) for s in np.unique(index)}
    return [lists[int(s)] for s in index]


def _group_count(block: KeyBlock, m: int) -> int:
    """How many M-groups of the padded key axis ``block``'s sorted keys
    fall in, without building them."""
    if isinstance(block.keys, slice):
        return (block.keys.stop - 1) // m - block.keys.start // m + 1
    groups = block.keys // m
    return 1 + int(np.count_nonzero(groups[1:] != groups[:-1]))


class _TileShape(NamedTuple):
    """A tile's query ``rows`` and the ``width`` M-groups it scores."""

    rows: int
    width: int


def _slice_shapes(structure, lead: Tuple[int, ...], n_q: int, n_k: int, m: int) -> List[List[_TileShape]]:
    """The shapes of the tiles :func:`_slice_tiles` cuts, from each block's
    key groups alone: no tile's masked lanes are built."""
    batch = int(np.prod(lead, dtype=np.int64))
    if structure is None:
        return [[_TileShape(r1 - r0, n_k // m) for r0, r1 in row_blocks(n_q, n_k)]] * batch
    index = structure.slice_index(lead)
    shapes = {
        int(s): [_TileShape(b.rows, _group_count(b, m)) for b in structure.slices[s]]
        for s in np.unique(index)
    }
    return [shapes[int(s)] for s in index]


def _code_count(slices) -> int:
    """The selection codes of the longest slice's tiles (or tile shapes)."""
    return max((sum(t.rows * t.width for t in tiles) for tiles in slices), default=0)


def _span_args(q, k, v, pattern, dtype, structure=None, return_probs=False, return_stats=False,
               d_out=None, **_) -> dict:
    """Trace-span arguments of one forward call, or of one backward call
    (given ``d_out``): the row tiles, the largest tile ``rows x widened
    keys``, the query-key ``pairs`` the tiles score (``n_q ×`` the padded
    key count per slice without a structure, Σ rows × group-widened width
    with one) and the bytes written — the output, plus the compressed
    probabilities or the saved statistics when requested; or dQ, and dK and
    dV over the padded key axis."""
    pattern = _resolve(pattern, dtype)
    m = pattern.m
    q_shape, n_k = np.shape(q), pattern.padded(np.shape(k)[-2])
    n_q, batch = q_shape[-2], int(np.prod(q_shape[:-2], dtype=np.int64))
    slices = _slice_shapes(structure, q_shape[:-2] or (1,), n_q, n_k, m)
    tiles = [t for s in slices for t in s]
    if d_out is not None:
        out_bytes = 4 * (np.size(q) + batch * n_k * (np.shape(k)[-1] + np.shape(v)[-1]))
    else:
        out_bytes = 4 * batch * n_q * np.shape(v)[-1]
        if return_probs:
            # float32 values plus int8 in-group indices per kept entry
            out_bytes += 5 * batch * n_q * pattern.kept(n_k)
        if return_stats:
            # float32 shift and denominator per row, a selection code per group
            code_bytes = np.min_scalar_type((1 << m) - 1).itemsize
            out_bytes += batch * (8 * n_q + code_bytes * _code_count(slices))
    return {
        "tiles": len(tiles),
        "tile_shape": f"{max((t.rows for t in tiles), default=0)}x"
                      f"{m * max((t.width for t in tiles), default=0)}",
        "pairs": m * sum(t.rows * t.width for t in tiles),
        "out_bytes": int(out_bytes),
    }


@dataclass(frozen=True)
class NMStats:
    """What the N:M training forward saves for its backward, instead of P.

    ``shift`` and ``denom`` are every row's softmax shift and denominator,
    ``(..., n_q)`` float32.  ``selection`` is the N:M selection, one code
    per scored M-group (bit i set when the group's i-th key is kept): ``(...,
    n_q, n_k / M)`` over the key axis padded to whole groups without a
    ``structure``; with one, each batch slice's tile codes one after the
    other (``(..., codes)``, every tile's ``rows × groups`` in row order).
    The plain grid is its row tiles' codes in the same order, kept 2-D as
    plain DFSS has always saved them; a structure's tiles cover no grid, and
    a zero-filled one would cost n_q·n_k/M codes per slice — 4 MiB at
    L4096, where BigBird's tiles (defaults, 2:4) save 0.37 MiB.
    The backward re-scores each tile and recomputes its probabilities as
    ``exp(s − shift) / denom`` on the saved selection; :meth:`to_mask` reads
    it for mask introspection.  ``criterion`` and ``structure`` are the
    forward's selection options; ``n_keys`` is the real key count.
    """

    shift: np.ndarray
    denom: np.ndarray
    selection: np.ndarray
    pattern: NMPattern
    n_keys: int
    criterion: str = "value"
    structure: Optional[RowBlockStructure] = None

    @property
    def dense_cols(self) -> int:
        """The key axis padded to whole M-groups."""
        return self.pattern.padded(self.n_keys)

    def to_mask(self) -> np.ndarray:
        """``(..., n_q, n_keys)`` bool mask of the entries that carry weight:
        the selection, cropped to the real keys, without the masked lanes a
        group that the structure allows only in part still stores."""
        m, selection = self.pattern.m, self.selection
        if self.structure is not None:
            # the tiles' codes over every group; a group no tile scored keeps none
            lead, n_q, groups = self.shift.shape[:-1], self.shift.shape[-1], self.dense_cols // m
            codes = selection.reshape(-1, selection.shape[-1])
            every = np.zeros((len(codes), n_q * groups), dtype=codes.dtype)
            for b, pos in enumerate(_code_positions(self.structure, lead or (1,), n_q, groups, m)):
                every[b, pos] = codes[b, :pos.size]
            selection = every.reshape(lead + (n_q, groups))
        kept = (selection[..., None] >> np.arange(m, dtype=selection.dtype)) & 1
        mask = kept.astype(bool).reshape(selection.shape[:-1] + (-1,))[..., : self.n_keys]
        return mask if self.structure is None else mask & self.structure.to_mask()


def _selection_codes(mask: np.ndarray, pattern) -> np.ndarray:
    """:attr:`NMStats.selection` codes of a ``(..., n_k)`` keep mask."""
    m = pattern.m
    groups = mask.reshape(mask.shape[:-1] + (-1, m))
    dtype = np.min_scalar_type((1 << m) - 1)
    return np.sum(groups.astype(dtype) << np.arange(m, dtype=dtype), axis=-1, dtype=dtype)


def _code_positions(structure, lead, n_q: int, groups: int, m: int) -> List[np.ndarray]:
    """Per flattened batch slice, where its tile codes, in order, sit in the
    flattened ``(n_q, groups)`` codes of every group."""
    ids = np.arange(groups)
    return [
        np.concatenate([(np.arange(t.start, t.stop)[:, None] * groups + ids[t.groups]).ravel()
                        for t in tiles] or [np.zeros(0, dtype=np.int64)])
        for tiles in _slice_tiles(structure, lead, n_q, groups * m, m)
    ]


def _tile_codes(codes: np.ndarray, structure: RowBlockStructure, m: int) -> np.ndarray:
    """The ``(..., codes)`` selection of ``structure``'s tiles, gathered
    from the ``(..., n_q, n_k / M)`` codes of every group."""
    lead, (n_q, groups) = codes.shape[:-2], codes.shape[-2:]
    positions = _code_positions(structure, lead or (1,), n_q, groups, m)
    flat = codes.reshape(len(positions), -1)
    out = np.zeros((len(positions), max(p.size for p in positions)), dtype=codes.dtype)
    for b, pos in enumerate(positions):
        out[b, :pos.size] = flat[b, pos]
    return out.reshape(lead + out.shape[-1:])


class _LaneTiles:
    """Operands and geometry one fused N:M call's forward and backward share.

    Validates the operands (against the ``structure`` too, given one), pads
    the key axis to whole M-groups, views V lane-major, and cuts each batch
    slice into the tiles both passes walk (:func:`_slice_tiles`).  The
    operands are read in place (:mod:`repro.core.jobs`): ``_q`` and ``_v``
    are per-slice views of the caller's arrays, whatever their strides.  The
    tile steps — score, shift, exponentiate, per-lane dropout — are written
    once here, so the backward re-scores bit for bit what the forward scored.
    """

    def __init__(self, q, k, v, pattern, scale, dtype, criterion, structure, dropout):
        q, k, v, batch_shape = attention_operands(q, k, v, structure)
        n_q, n_k = q.shape[-2], k.shape[-2]
        self.pattern = _resolve(pattern, dtype)
        # the key axis, padded to whole M-groups; an aligned one is used as is
        self.n_keys = n_k
        n_k = self.pattern.padded(n_k)
        if n_k != self.n_keys:
            k, v = pad_keys(k, n_k), pad_keys(v, n_k)
        self.dtype = dtype
        self.criterion = criterion
        scale = 1.0 / np.sqrt(q.shape[-1]) if scale is None else scale
        # A scale float32 holds exactly gives the same float32 products as
        # the staged path's float64 multiply (a 24 x 24-bit product is exact
        # in float64 and rounds once either way), at float32 cost.
        self.scale = np.float32(scale) if np.float32(scale) == scale else scale
        self.batch_shape = batch_shape
        self.n_q = n_q
        self.n_k = n_k
        self.dropout = dropout
        self.structure = structure
        # Q is rounded one row block at a time, in the tile (elementwise, so
        # the bits match rounding it whole).  V is only viewed lane-major:
        # lane i's keys are rows i, i + M, … of ``_v[b]``, a strided BLAS
        # operand, so no copy of V is made.
        # the output and dQ are allocated like Q, in its memory order
        self._layout = q
        self._q = batch_slices(q)
        # the (padded) keys and values, which each pass views per slice
        self._k, self._v = k, v
        self._slice_tiles = _slice_tiles(structure, q.shape[:-2], n_q, n_k, self.pattern.m)
        every = [t for tiles in self._slice_tiles for t in tiles]
        self.tile_rows = max((t.rows for t in every), default=0)
        self.tile_width = max((t.width for t in every), default=0)
        self.codes = _code_count(self._slice_tiles)

    def _lane_kt(self, k: np.ndarray) -> np.ndarray:
        """Rounded Kᵀ laid out lane-major: ``(..., n_k, d)`` becomes
        ``(..., M, d, n_k / M)``, whose lane i holds the columns of every
        group's i-th key, so one batched product writes the M lane planes."""
        m = self.pattern.m
        groups = k.reshape(k.shape[:-2] + (self.n_k // m, m, k.shape[-1]))
        return tensor_core_operand(np.moveaxis(groups, -3, -1), self.dtype)

    def _group_ids(self, tile: _Tile) -> np.ndarray:
        """The indices of the groups ``tile`` scores."""
        return np.arange(self.n_k // self.pattern.m)[tile.groups]

    def _score(self, planes: np.ndarray, b: int, tile: _Tile, kt: np.ndarray) -> None:
        """Score ``tile``'s rows of slice ``b`` into the lane planes against
        its groups of the lane-major rounded Kᵀ ``kt``, and mask them."""
        q = tensor_core_operand(self._q[b][tile.start:tile.stop], self.dtype)
        # repro: owns-buffer — the job's reused lane planes
        np.matmul(q, kt[..., tile.groups], out=planes)
        # repro: owns-buffer — the job's reused lane planes
        np.multiply(planes, self.scale, out=planes)
        if tile.masked is not None:
            # repro: owns-buffer — the job's reused lane planes
            np.copyto(planes, MASKED_SCORE, where=tile.masked)
        if self.structure is None and self.n_k != self.n_keys:
            # padded keys are the last lanes of the last group
            # repro: owns-buffer — the job's reused lane planes
            np.copyto(planes[self.n_keys % self.pattern.m:, :, -1], MASKED_SCORE)

    def _row_shift(self, planes: np.ndarray, keep: Tuple[np.ndarray, ...]) -> np.ndarray:
        """``(rows, 1)`` softmax shift of the scored lane planes: each row's
        max (under ``value`` the max over every lane, as a group's largest
        lane always survives; under ``magnitude`` the kept lanes', the
        dropped ones being set to ``MASKED_SCORE`` in place first), or 0
        where the row kept no weight or its max is not finite."""
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
        return np.where(live, row_max, 0.0)

    @staticmethod
    def _exp_lanes(planes: np.ndarray, keep: Tuple[np.ndarray, ...], shift: np.ndarray) -> None:
        """Unnormalised masked N:M softmax of the lane planes, in place:
        ``exp(s − shift)``, with the dropped lanes zeroed by a bit-pattern
        multiply."""
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


@register_job_kernel("nm_attention", _span_args)
class NMForwardJob(_LaneTiles):
    """One fused N:M forward call, decomposed into independent row tiles.

    Construction validates the operands, rounds them to tensor-core
    precision, lays the rounded Kᵀ out lane-major, and allocates the output.
    ``return_probs`` also allocates the compressed probabilities (without a
    ``structure`` only: a structured call keeps no dense-width P);
    ``return_stats`` (the training forward) instead allocates what the
    backward recomputes them from, :class:`NMStats`: per-row shift and
    denominator plus the selection, and no probability values.
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
        structure: Optional[RowBlockStructure] = None,
        return_probs: bool = False,
        dropout: Optional[Dropout] = None,
        return_stats: bool = False,
    ) -> None:
        if return_probs and (return_stats or structure is not None):
            raise ValueError(_NO_PROBS)
        super().__init__(q, k, v, pattern, scale, dtype, criterion, structure, dropout)
        batch, n_q, m = len(self._q), self.n_q, self.pattern.m
        # Kᵀ is rounded once for the whole call, as every tile reads it; the
        # tiles read nothing else of K
        kt = self._lane_kt(self._k)
        self._kt = kt.reshape((batch,) + kt.shape[-3:])
        del self._k
        d_v = self._v.shape[-1]
        self._v = [x.reshape(self.n_k // m, m, d_v) for x in batch_slices(self._v)]
        self.tiles: List[Tuple[int, _Tile]] = [
            (b, tile) for b, tiles in enumerate(self._slice_tiles) for tile in tiles
        ]
        # zero-filled: a row outside every tile of a structure attends to nothing
        self._out = np.zeros_like(self._layout, shape=self._layout.shape[:-1] + (d_v,))
        self._out_rows = batch_slices(self._out)
        self._values = self._indices = self._shift = self._denom = None
        if return_probs:
            kept = self.pattern.kept(self.n_k)
            self._values = np.empty((batch, n_q, kept), dtype=np.float32)
            self._indices = np.empty((batch, n_q, kept), dtype=np.int8)
        if return_stats:
            # rows outside every tile of a structure keep the shift 0 and
            # the denominator 1; each slice's tile codes fill one row
            self._shift = np.zeros((batch, n_q), dtype=np.float32)
            self._denom = np.ones((batch, n_q), dtype=np.float32)
            self._codes = np.zeros((batch, self.codes), dtype=np.min_scalar_type((1 << m) - 1))

    def new_buffer(self) -> Tuple[np.ndarray, np.ndarray]:
        """Tile buffers for :meth:`run`, one pair per concurrent executor: the
        ``(M, rows, groups)`` lane planes and the ``(M, rows, d)`` per-lane
        partial products of P·V."""
        m = self.pattern.m
        return (
            aligned_empty((m, self.tile_rows, self.tile_width)),
            aligned_empty((m, self.tile_rows, self._out.shape[-1])),
        )

    def label(self, tile: Tuple[int, _Tile]) -> Tuple[str, str]:
        """``(rows, shape)`` trace labels of one row tile."""
        b, t = tile
        return f"{b}:{t.start}:{t.stop}", f"{t.rows}x{t.width * self.pattern.m}"

    def run(self, tile: Tuple[int, _Tile], buf: Tuple[np.ndarray, np.ndarray]) -> None:
        """Execute one tile: score into the lane planes, select, exponentiate
        in place, contract, and normalise the output rows."""
        b, t = tile
        r0, r1 = t.start, t.stop
        planes, partial = buf[0][:, : t.rows, : t.width], buf[1][:, : t.rows]
        self._score(planes, b, t, self._kt[b])
        keep = nm_keep_lanes(planes, self.pattern, self.criterion)
        shift = self._row_shift(planes, keep)
        self._exp_lanes(planes, keep, shift)
        # summed in the N:M order of the compressed softmax; a row that kept
        # no weight divides by 1
        denom = grouped_row_sum(planes)
        denom = np.where(denom == 0.0, np.float32(1.0), denom)
        if self._values is not None:
            values, indices = nm_compress_lanes(planes, keep, self.pattern)
            # repro: owns-buffer — disjoint row block of the job's own output
            np.divide(values, denom, out=self._values[b, r0:r1])
            # repro: owns-buffer — disjoint row block of the job's own output
            self._indices[b, r0:r1] = indices
        if self._shift is not None:
            # repro: owns-buffer — disjoint row block of the job's own output
            self._shift[b, r0:r1] = shift[:, 0]
            # repro: owns-buffer — disjoint row block of the job's own output
            self._denom[b, r0:r1] = denom[:, 0]
            # one code per group: bit i set when the group's i-th key is kept
            codes = self._codes[b, t.offset:t.offset + t.rows * t.width].reshape(t.rows, t.width)
            # repro: owns-buffer — disjoint row block of the job's own output
            np.copyto(codes, keep[0])
            for lane in range(1, len(keep)):
                # repro: owns-buffer — disjoint row block of the job's own output
                codes |= keep[lane].astype(codes.dtype) << lane
        if self.dropout is not None:
            # one lane plane at a time: the hash's uint64 and float64
            # temporaries are each twice the bytes of what they cover
            flat_rows = np.arange(b * self.n_q + r0, b * self.n_q + r1)[:, None]
            cols = self._group_ids(t) * self.pattern.m
            for lane, plane in enumerate(planes):
                # repro: owns-buffer — a lane of the job's reused lane planes
                plane *= dropout_keep(self.dropout, flat_rows, cols + lane, self.n_keys)
        # lane i's keys are rows i, i + M, … of V: one strided view per lane
        # repro: owns-buffer — the job's reused partial-product buffer
        np.matmul(planes, self._v[b][t.groups].transpose(1, 0, 2), out=partial)
        # repro: owns-buffer — disjoint row block of the job's own output
        np.divide(np.sum(partial, axis=0), denom, out=self._out_rows[b][r0:r1])

    def result(self) -> Tuple[np.ndarray, Union[NMSparseMatrix, NMStats, None]]:
        """``(out, probs)``, ``(out, stats)`` or ``(out, None)``, as requested.

        ``probs`` and the selection in ``stats`` span the padded key axis
        when the key count is not a multiple of M; padded columns hold zero
        weight.
        """
        out = restore_batch_shape(self._out, self.batch_shape)
        if self._shift is not None:
            return out, NMStats(
                shift=self._shift.reshape(self.batch_shape + (self.n_q,)),
                denom=self._denom.reshape(self.batch_shape + (self.n_q,)),
                selection=self._codes.reshape(self.batch_shape + (
                    (self.n_q, self.n_k // self.pattern.m) if self.structure is None
                    else (self.codes,)
                )),
                pattern=self.pattern,
                n_keys=self.n_keys,
                criterion=self.criterion,
                structure=self.structure,
            )
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


@register_job_kernel("nm_attention_bwd", _span_args)
class NMBackwardJob(_LaneTiles):
    """One N:M attention backward, decomposed into independent batch slices.

    Nothing of the forward's probabilities is stored: each slice walks the
    forward's tiles and, per tile, re-scores with the same tf32-rounded
    Q rows and lane-major Kᵀ (rounded one slice at a time) and recomputes
    the unnormalised probabilities ``P̃ = exp(s − shift)`` on the saved
    selection from the saved shift — bit for bit the forward's.  Reading the
    saved selection costs a shift and a mask per lane, where re-running
    ``nm_keep_lanes`` on the re-scored lanes cost several times that.
    The tile is one ``(rows, widened keys)`` array whose columns are in
    lane-major key order (all the tile's keys of lane 0, then of lane 1, …):
    the re-scoring product writes its M lane planes as strided views of it,
    and every other product is one GEMM against lane-major copies of K and V
    (a tile over fewer than all groups gathers its rows of them), which ran
    faster than M per-lane GEMMs over strided lane views.  With
    ``P = P̃ / denom`` and the keep mask ``D`` of the seeded dropout
    (re-hashed per lane plane):

    * ``dV += (P̃ ∘ D)ᵀ (dO / denom)``;
    * ``dP = (dO Vᵀ) ∘ D``, and without dropout ``dP − rowsum(dO ∘ O)`` as
      one GEMM over ``[dO, −rowsum(dO ∘ O)]`` and V with a ones column;
    * ``dS' = P̃ ∘ (dP − rowsum(dO ∘ O))``, with ``dS = dS' · scale / denom``;
    * ``dQ = dS K``, the row factor ``scale / denom`` applied to the
      ``(rows, d)`` product, and ``dK += dS'ᵀ (Q · scale / denom)``.

    dK and dV accumulate over the tiles in a fixed order that depends only
    on the geometry, in lane-major key order, each tile's product added at
    its keys, and are written back in key order once per slice.  The
    :attr:`tiles` are the batch slices; they are independent, so any
    executor may run them in any order.
    """

    def __init__(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        d_out: np.ndarray,
        out: np.ndarray,
        shift: np.ndarray,
        denom: np.ndarray,
        selection: np.ndarray,
        pattern=None,
        scale: Optional[float] = None,
        dtype: str = "float32",
        criterion: str = "value",
        structure: Optional[RowBlockStructure] = None,
        dropout: Optional[Dropout] = None,
    ) -> None:
        super().__init__(q, k, v, pattern, scale, dtype, criterion, structure, dropout)
        batch, n_q = len(self._q), self.n_q
        self._codes = np.asarray(selection).reshape(batch, self.codes)
        self._g, self._o = batch_slices(d_out), batch_slices(out)
        self._shift = np.asarray(shift, dtype=np.float32).reshape(batch, n_q, 1)
        self._denom = np.asarray(denom, dtype=np.float32).reshape(batch, n_q, 1)
        self.tiles = range(batch)
        # each gradient in its operand's layout; dQ zero-filled, as a row
        # outside every tile of a structure gets none, while every slice
        # writes its dK and dV back whole
        self._dq = np.zeros_like(self._layout)
        self._dk, self._dv = np.empty_like(self._k), np.empty_like(self._v)
        self._k, self._v = batch_slices(self._k), batch_slices(self._v)
        self._dq_rows, self._dk_rows, self._dv_rows = (
            batch_slices(x) for x in (self._dq, self._dk, self._dv)
        )

    def new_buffer(self) -> Tuple[Optional[np.ndarray], ...]:
        """Tile buffers for :meth:`run`, one set per concurrent executor: the
        ``(rows, widened keys)`` probability and ``dS`` tiles, and the
        dropped probability tile (with dropout only)."""
        tile = (self.tile_rows, self.tile_width * self.pattern.m)
        return (
            aligned_empty(tile),
            aligned_empty(tile),
            None if self.dropout is None else aligned_empty(tile),
        )

    def _lane_order(self, x: np.ndarray) -> np.ndarray:
        """A ``(n_k, d)`` copy of ``x``'s rows in lane-major key order."""
        m = self.pattern.m
        return np.ascontiguousarray(
            x.reshape(self.n_k // m, m, x.shape[-1]).transpose(1, 0, 2)
        ).reshape(self.n_k, x.shape[-1])

    def label(self, b: int) -> Tuple[str, str]:
        """``(rows, shape)`` trace labels of one batch slice."""
        return f"{b}:0:{self.n_q}", f"{self.n_q}x{self.n_k}"

    def _lane_keys(self, tile: _Tile) -> Union[slice, np.ndarray]:
        """Where ``tile``'s keys sit in lane-major key order: lane i of each
        of its groups, lane after lane; every key for a tile over all groups."""
        groups = self.n_k // self.pattern.m
        if tile.width == groups:
            return slice(None)
        return (self._group_ids(tile) + groups * np.arange(self.pattern.m)[:, None]).ravel()

    def run(self, b: int, buf: Tuple[Optional[np.ndarray], ...]) -> None:
        """Gradients of slice ``b``, tile by tile."""
        m, groups = self.pattern.m, self.n_k // self.pattern.m
        d_v = self._v[b].shape[-1]
        kt = self._lane_kt(self._k[b])
        # K and V in lane-major key order, and dK and dV accumulated in that
        # order: a tile over every key reads and adds the whole arrays
        k_lanes = self._lane_order(self._k[b])
        # V and a ones column: without dropout, [dO, −rowsum(dO ∘ O)] @
        # [V, 1]ᵀ is dP − rowsum(dO ∘ O) in one GEMM
        v_aug = np.concatenate(
            [self._lane_order(self._v[b]), np.ones((self.n_k, 1), np.float32)], axis=1
        )
        g_aug = np.empty((self.tile_rows, d_v + 1), dtype=np.float32)
        grad_k = np.zeros_like(k_lanes)
        grad_v = np.zeros((self.n_k, d_v), dtype=np.float32)
        scale = np.float32(self.scale)
        for t in self._slice_tiles[b]:
            rows, width, r0, r1 = t.rows, t.width, t.start, t.stop
            tile, d_s, dropped = (
                None if x is None else x.ravel()[: rows * width * m].reshape(rows, width * m)
                for x in buf
            )
            # score and exponentiate in contiguous lane planes (the dS tile,
            # free until dP), then lay P̃ out in lane-major key order
            planes = d_s.reshape(m, rows, width)
            self._score(planes, b, t, kt)
            codes = self._codes[b, t.offset:t.offset + rows * width].reshape(rows, width)
            keep = [(codes >> lane) & 1 for lane in range(m)]
            shift, denom = self._shift[b, r0:r1], self._denom[b, r0:r1]
            self._exp_lanes(planes, keep, shift)
            # repro: owns-buffer — the executor's borrowed probability tile
            np.copyto(tile.reshape(rows, m, width), planes.transpose(1, 0, 2))
            keys = self._lane_keys(t)
            k_tile, v_tile = k_lanes[keys], v_aug[keys]
            g = self._g[b][r0:r1]
            inner = np.sum(g * self._o[b][r0:r1], axis=-1, keepdims=True)
            applied = tile
            if self.dropout is None:
                g_aug[:rows, :d_v] = g
                g_aug[:rows, d_v:] = -inner
                # repro: owns-buffer — the executor's borrowed dS tile
                np.matmul(g_aug[:rows], v_tile.T, out=d_s)
            else:
                # dP = (dO Vᵀ) ∘ D, then the row inner products
                # repro: owns-buffer — the executor's borrowed dS tile
                np.matmul(g, v_tile[:, :d_v].T, out=d_s)
                planes = tile.reshape(rows, m, width).transpose(1, 0, 2)
                d_s3, dropped3 = (x.reshape(rows, m, width) for x in (d_s, dropped))
                flat_rows = np.arange(b * self.n_q + r0, b * self.n_q + r1)[:, None]
                cols = self._group_ids(t) * m
                for lane in range(m):
                    drop = dropout_keep(self.dropout, flat_rows, cols + lane, self.n_keys)
                    # repro: owns-buffer — the executor's borrowed dropped tile
                    np.multiply(planes[lane], drop, out=dropped3[:, lane])
                    # repro: owns-buffer — the executor's borrowed dS tile
                    d_s3[:, lane] *= drop
                # repro: owns-buffer — the executor's borrowed dS tile
                d_s -= inner
                applied = dropped
            # dV += (P̃ ∘ D)ᵀ dO / denom, the divide folded into the dO rows
            grad_v[keys] += np.matmul(applied.T, g / denom)
            # dS' = P̃ ∘ (dP − rowsum(dO ∘ O))
            # repro: owns-buffer — the executor's borrowed dS tile
            d_s *= tile
            # dQ = dS' K · scale / denom; dK += dS'ᵀ (Q · scale / denom)
            row_scale = scale / denom
            # repro: owns-buffer — disjoint row block of the job's own dQ
            np.multiply(np.matmul(d_s, k_tile), row_scale, out=self._dq_rows[b][r0:r1])
            grad_k[keys] += np.matmul(d_s.T, self._q[b][r0:r1] * row_scale)
        # back to key order: lane i's keys are rows i, i + M, …
        for lanes, grad in ((grad_k, self._dk_rows[b]), (grad_v, self._dv_rows[b])):
            dst = grad.reshape(groups, m, grad.shape[-1])
            # repro: owns-buffer — this slice of the job's own dK or dV
            np.copyto(dst, lanes.reshape(m, groups, -1).transpose(1, 0, 2))

    def result(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(dQ, dK, dV)``, dK and dV cropped to the real keys."""
        keys = slice(0, self.n_keys)
        grads = (self._dq, self._dk[..., keys, :], self._dv[..., keys, :])
        return tuple(restore_batch_shape(grad, self.batch_shape) for grad in grads)


#: Why ``return_probs`` goes with neither ``return_stats`` nor a structure.
_NO_PROBS = "return_probs is exclusive with return_stats and with a structure (no dense-width P)"


@register_kernel("nm_attention", REFERENCE)
def _nm_attention_reference(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    pattern=None,
    scale: Optional[float] = None,
    dtype: str = "float32",
    criterion: str = "value",
    structure: Optional[RowBlockStructure] = None,
    return_probs: bool = False,
    dropout: Optional[Dropout] = None,
    return_stats: bool = False,
) -> Tuple[np.ndarray, Union[NMSparseMatrix, NMStats, None]]:
    """The staged reference chain: ``sddmm_nm → sparse_softmax → spmm``.

    A key count that is not a multiple of M is padded as in the fast kernel;
    dropout multiplies the probabilities the SpMM contracts.  The saved
    statistics are each row's max stored score (0 for a row without a live
    one) and the sum of its stored entries' exponentials (1 for a zero sum);
    with a ``structure`` the selection keeps the codes of its tiles only.
    """
    if return_probs and (return_stats or structure is not None):
        raise ValueError(_NO_PROBS)
    attention_operands(q, k, v, structure)
    pattern = _resolve(pattern, dtype)
    n_keys = np.shape(k)[-2]
    scores = staged_scores(q, k, pattern, scale, dtype, criterion, structure)
    probs = sparse_softmax(scores)
    applied = probs
    if dropout is not None:
        keep = _compressed_keep(dropout, probs.indices, pattern, n_keys)
        applied = probs.with_values(probs.values * keep)
    out = spmm(applied, pad_keys(v, probs.dense_cols))
    if return_stats:
        masked = scores.values <= MASKED_LOGIT_THRESHOLD
        row_max = np.max(np.where(masked, -np.inf, scores.values), axis=-1, keepdims=True)
        shift = np.where(np.isfinite(row_max), row_max, 0.0).astype(np.float32)
        exp = np.where(masked, 0.0, np.exp(scores.values - shift))
        denom = np.sum(exp, axis=-1, dtype=np.float32)
        selection = _selection_codes(probs.to_mask(), pattern)
        if structure is not None:
            selection = _tile_codes(selection, structure, pattern.m)
        return out, NMStats(
            shift=shift[..., 0], denom=np.where(denom == 0.0, np.float32(1.0), denom),
            selection=selection, pattern=pattern, n_keys=n_keys, criterion=criterion,
            structure=structure,
        )
    return out, (probs if return_probs else None)


@register_kernel("nm_attention_bwd", REFERENCE)
def _nm_attention_bwd_reference(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    d_out: np.ndarray,
    out: np.ndarray,
    shift: np.ndarray,
    denom: np.ndarray,
    selection: np.ndarray,
    pattern=None,
    scale: Optional[float] = None,
    dtype: str = "float32",
    criterion: str = "value",
    structure: Optional[RowBlockStructure] = None,
    dropout: Optional[Dropout] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The oracle: re-run the staged reference chain for the compressed
    probabilities and the dropout keep mask, then compose the staged
    backward primitives (:func:`repro.core.attention_grad.masked_attention_bwd`).
    ``out`` and the saved statistics are not read."""
    del out, shift, denom, selection
    pattern = _resolve(pattern, dtype)
    scale = 1.0 / np.sqrt(np.shape(q)[-1]) if scale is None else scale
    probs = sparse_softmax(staged_scores(q, k, pattern, scale, dtype, criterion, structure))
    n_keys = np.shape(k)[-2]
    keep = None if dropout is None else _compressed_keep(dropout, probs.indices, pattern, n_keys)
    k, v = pad_keys(k, probs.dense_cols), pad_keys(v, probs.dense_cols)
    d_q, d_k, d_v = masked_attention_bwd(probs, q, k, v, d_out, scale, keep)
    return d_q, d_k[..., :n_keys, :], d_v[..., :n_keys, :]
