"""The :class:`CompressedLayout` protocol and the three sparse score layouts.

The attention pipeline never cares *which* compressed layout carries the
scores/probabilities — only that the layout can answer four questions:

* what are the stored values (``values``, a ``(..., rows, width)`` array)?
* which dense column does each stored lane address (``column_indices``)?
* how many lanes of each row are real (``row_lengths`` / ``valid_lanes`` —
  layouts with a fixed per-row width, like N:M, have no padding at all)?
* how do the stored values scatter back into a dense tile
  (``scatter_compressed`` / ``to_scattered``)?

Three layouts carry attention scores, one per kind of mask:

* :class:`repro.core.sparse.NMSparseMatrix` — the hardware N:M layout with a
  constant ``kept = cols // M * N`` lanes per row (the DFSS epilogue output);
* :class:`repro.core.row_block.RowBlockStructure` — the static masks
  (local, strided, truncated, Longformer, BigBird): per 64-row query block,
  the key ranges the block reads and its allowed sub-mask, declared by the
  mechanism and built without a dense mask.  It stores no values (its own
  ``row_block_attention`` kernels score whole block tiles and recompute
  them in the backward), so it does not implement this protocol;
* :class:`repro.core.padded_csr.PaddedCSRMatrix` — per-row *variable* nnz
  padded to the widest row, the layout the content-dependent masks (TopK,
  Reformer, Routing, Sinkhorn) and explicit boolean masks compress into.

The registry kernels (``spmm``, ``spmm_t``, ``sddmm_masked``,
``masked_softmax``) and the analytic attention backward dispatch on this
protocol, so one fused training pipeline serves the N:M and padded-CSR
layouts.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple, runtime_checkable

import numpy as np


@runtime_checkable
class CompressedLayout(Protocol):
    """Structural protocol of a compressed (row-major, padded) sparse matrix."""

    #: ``(..., rows, width)`` float32 array of stored entries.
    values: np.ndarray
    #: number of columns of the dense matrix this layout compresses.
    dense_cols: int

    @property
    def batch_shape(self) -> Tuple[int, ...]: ...

    @property
    def rows(self) -> int: ...

    @property
    def dense_shape(self) -> Tuple[int, ...]: ...

    def column_indices(self) -> np.ndarray:
        """In-range absolute dense column of every lane (padding lanes clamped).

        Padding lanes are guaranteed to carry a value that contributes nothing
        (exactly zero after softmax), so gather-style kernels may address the
        clamped column without affecting the result.
        """
        ...

    def row_lengths(self) -> np.ndarray:
        """``(..., rows)`` int32 count of *valid* lanes per row."""
        ...

    def valid_lanes(self) -> Optional[np.ndarray]:
        """Boolean ``(..., rows, width)`` lane-validity mask, or ``None``.

        ``None`` means every lane is valid (fixed-width layouts such as N:M);
        scatter/masking fast paths use this to skip the select entirely.
        """
        ...

    def scatter_compressed(self, values: np.ndarray) -> np.ndarray:
        """Scatter compressed ``values`` (sharing this structure) into a dense
        zero-filled ``(..., rows, dense_cols)`` tile.  Padding lanes are
        discarded, never written over a real column."""
        ...

    def gather_dense(self, dense: np.ndarray) -> np.ndarray:
        """Gather every stored lane's entry out of a dense array of
        ``dense_shape`` size; padding lanes read their clamped column (callers
        overwrite them with a sentinel or zero)."""
        ...

    def to_scattered(self) -> np.ndarray:
        """Dense scatter of the layout's own values."""
        ...

    def with_values(self, new_values: np.ndarray) -> "CompressedLayout":
        """Same structure, new values."""
        ...

    def to_dense(self, fill_value: float = 0.0) -> np.ndarray: ...

    def to_mask(self) -> np.ndarray: ...


def dense_positions(layout: CompressedLayout) -> np.ndarray:
    """Linear index into the dense weight tensor of every stored lane.

    This is the layout-independent key the seeded attention dropout hashes
    (:func:`repro.utils.seeding.attention_dropout_keep`): a compressed run and
    a dense run derive identical keep decisions for the same (row, column)
    entry.  Padding lanes alias the position of their clamped column, which is
    harmless — their stored value is exactly zero either way.
    """
    cols = layout.column_indices().astype(np.uint64)
    lead = np.arange(
        int(np.prod(cols.shape[:-1], dtype=np.int64)), dtype=np.uint64
    ).reshape(cols.shape[:-1] + (1,))
    return lead * np.uint64(layout.dense_cols) + cols
