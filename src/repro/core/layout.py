"""The :class:`CompressedLayout` protocol and the two sparse score layouts.

The staged kernels never care *which* compressed layout carries the
scores/probabilities — only that the layout can answer three questions:

* what are the stored values (``values``, a ``(..., rows, width)`` array)?
* which dense column does each stored lane address (``column_indices``)?
* how do the stored values scatter back into a dense tile
  (``scatter_compressed`` / ``to_scattered``)?

Two layouts carry attention scores:

* :class:`repro.core.sparse.NMSparseMatrix` — the hardware N:M layout with a
  constant ``kept = cols // M * N`` lanes per row (the DFSS epilogue output),
  the one implementer of this protocol;
* :class:`repro.core.row_block.RowBlockStructure` — every other mask
  (static, content-dependent and explicit): per 64-row query block, the
  keys the block reads and its allowed sub-mask.  It stores no values (its
  own ``row_block_attention`` kernels score whole block tiles and recompute
  them in the backward), so it does not implement this protocol.

The staged N:M kernels (``spmm``, ``spmm_t``, ``sddmm_masked``,
``masked_softmax``) and the staged attention backward dispatch on this
protocol.
"""

from __future__ import annotations

from typing import Protocol, Tuple, runtime_checkable

import numpy as np


@runtime_checkable
class CompressedLayout(Protocol):
    """Structural protocol of a compressed (row-major) sparse matrix."""

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
        """In-range absolute dense column of every stored lane."""
        ...

    def scatter_compressed(self, values: np.ndarray) -> np.ndarray:
        """Scatter compressed ``values`` (sharing this structure) into a dense
        zero-filled ``(..., rows, dense_cols)`` tile."""
        ...

    def gather_dense(self, dense: np.ndarray) -> np.ndarray:
        """Gather every stored lane's entry out of a dense array of
        ``dense_shape`` size."""
        ...

    def to_scattered(self) -> np.ndarray:
        """Dense scatter of the layout's own values."""
        ...

    def with_values(self, new_values: np.ndarray) -> "CompressedLayout":
        """Same structure, new values."""
        ...

    def to_dense(self, fill_value: float = 0.0) -> np.ndarray: ...

    def to_mask(self) -> np.ndarray: ...
