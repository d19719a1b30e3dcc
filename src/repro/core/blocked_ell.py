"""Blocked-ELL layouts (Appendix A.1.2, "Blocked-ELL Sparsity").

For very long sequences the paper combines the 50% fine-grained structured
sparsity with a coarse blocked-ELL pattern: the attention matrix is divided
into square blocks (block size = the GEMM thread-block tile) and only a fixed
number of blocks per block-row is ever computed; the surviving blocks are then
pruned to N:M as usual.  This gives BigBird-style asymptotic savings while
keeping the fine-grained selection inside each block.

:class:`BlockedEllMask` represents the coarse pattern: for every block-row, a
fixed-length list of block-column indices (the ELL format).
:func:`bigbird_mask` lays out BigBird's window/global/random blocks and
:func:`sliding_window_mask` a band of blocks.  The kernels never read this
format: BigBird declares its row-block structure from
:meth:`BlockedEllMask.block_grid`
(:meth:`repro.baselines.bigbird.BigBirdAttention.row_block_keys`), and the
hybrid runs N:M over that structure
(:func:`repro.core.attention.dfss_attention` with ``structure=``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.seeding import new_rng


@dataclass
class BlockedEllMask:
    """Blocked-ELL sparsity pattern over a ``(rows, cols)`` matrix.

    Attributes
    ----------
    block_size:
        Edge length of the square blocks.
    block_columns:
        Integer array of shape ``(block_rows, ell_cols)``: for each block-row,
        the block-column indices that are kept.  ``-1`` marks an unused slot
        (ragged rows are padded with ``-1``).
    """

    block_size: int
    block_columns: np.ndarray

    def __post_init__(self) -> None:
        self.block_columns = np.asarray(self.block_columns, dtype=np.int64)
        if self.block_columns.ndim != 2:
            raise ValueError("block_columns must be 2-D (block_rows, ell_cols)")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")

    @property
    def block_rows(self) -> int:
        return self.block_columns.shape[0]

    def dense_mask(self, rows: int, cols: int) -> np.ndarray:
        """Boolean dense mask of shape ``(rows, cols)`` for the kept blocks."""
        grid = self.block_grid(rows, cols)
        return np.kron(grid, np.ones((self.block_size, self.block_size), dtype=bool))

    def block_grid(self, rows: int, cols: int) -> np.ndarray:
        """Boolean ``(block_rows, block_cols)`` mask of the kept blocks of a
        ``(rows, cols)`` matrix; entry ``(i // size, j // size)`` covers
        dense position ``(i, j)``."""
        if rows % self.block_size or cols % self.block_size:
            raise ValueError(
                f"matrix shape ({rows}, {cols}) is not divisible by block size "
                f"{self.block_size}"
            )
        block_rows = rows // self.block_size
        block_cols = cols // self.block_size
        if block_rows != self.block_rows:
            raise ValueError(
                f"mask has {self.block_rows} block rows but the matrix needs {block_rows}"
            )
        kept_rows, slots = np.nonzero(self.block_columns >= 0)
        kept_cols = self.block_columns[kept_rows, slots]
        if kept_cols.size and kept_cols.max() >= block_cols:
            raise ValueError(
                f"block column {kept_cols.max()} out of range for {block_cols} block columns"
            )
        mask = np.zeros((block_rows, block_cols), dtype=bool)
        mask[kept_rows, kept_cols] = True
        return mask


def _pad_rows(rows: Sequence[Sequence[int]]) -> np.ndarray:
    rows = [np.unique(np.asarray(r, dtype=np.int64)) for r in rows]
    width = max((len(r) for r in rows), default=0)
    out = np.full((len(rows), max(width, 1)), -1, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def sliding_window_mask(
    seq_len: int, block_size: int, window_blocks: int = 1
) -> BlockedEllMask:
    """Sliding-window blocked mask: each block-row keeps its ``window_blocks`` neighbours."""
    if seq_len % block_size:
        raise ValueError("seq_len must be divisible by block_size")
    block_rows = seq_len // block_size
    rows = []
    for br in range(block_rows):
        lo = max(0, br - window_blocks)
        hi = min(block_rows, br + window_blocks + 1)
        rows.append(list(range(lo, hi)))
    return BlockedEllMask(block_size, _pad_rows(rows))


def bigbird_mask(
    seq_len: int,
    block_size: int,
    window_blocks: int = 1,
    num_global_blocks: int = 1,
    num_random_blocks: int = 1,
    seed=None,
) -> BlockedEllMask:
    """BigBird-style mask: sliding window + global blocks + random blocks."""
    if seq_len % block_size:
        raise ValueError("seq_len must be divisible by block_size")
    rng = new_rng(seed)
    block_rows = seq_len // block_size
    rows = []
    for br in range(block_rows):
        kept = np.zeros(block_rows, dtype=bool)
        kept[max(0, br - window_blocks):br + window_blocks + 1] = True
        kept[:num_global_blocks] = True
        if br < num_global_blocks:
            kept[:] = True
        candidates = np.flatnonzero(~kept)
        if candidates.size and num_random_blocks > 0:
            picks = rng.choice(
                candidates, size=min(num_random_blocks, candidates.size), replace=False
            )
            kept[np.atleast_1d(picks)] = True
        rows.append(np.flatnonzero(kept))
    return BlockedEllMask(block_size, _pad_rows(rows))
