"""Padded-CSR compressed layout for per-row variable-nnz sparse attention.

:class:`PaddedCSRMatrix` is the general-purpose sibling of
:class:`repro.core.sparse.NMSparseMatrix`: where the N:M layout stores a fixed
``cols // M * N`` lanes per row (the shape the sparse tensor core consumes),
padded CSR stores each row's surviving columns in ascending order and pads
every row to the width of the widest row.  That keeps the arrays rectangular —
one batched gather/scatter serves the whole tensor, exactly like the blocked
CSR kernels real sparse-attention libraries ship — while representing *any*
boolean attention mask: sliding windows, global tokens, Top-K selections, LSH
buckets, k-means clusters, Sinkhorn block matches.

Padding convention
------------------
``lengths`` records the valid lane count of each row; lanes at or beyond a
row's length are padding.  Padding lanes store column ``0`` in
:meth:`column_indices` (clamped in-range so gather kernels never fault) and
are redirected to a trash column by the scatter kernels so they can never
overwrite a real entry.  Score-valued matrices mark padding lanes with the
``MASKED_SCORE`` sentinel so the shared sparse softmax assigns them exactly
zero weight; probability-valued matrices carry exact zeros there.  A fully
masked row is simply ``length == 0`` — every lane padding, zero attention
everywhere, matching the dense masked softmax's no-uniform-leak rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.analysis.sanitize import freeze_structure, private_copy, sanitize_enabled
from repro.core.precision import dtype_bytes

#: int32 column-index bytes plus the amortised per-row length counter are the
#: metadata cost of the layout, mirroring NMSparseMatrix's nibble accounting.
_INDEX_BYTES = 4


@dataclass
class PaddedCSRMatrix:
    """A sparse matrix stored as row-major padded-CSR: values + columns + lengths.

    Attributes
    ----------
    values:
        ``(..., rows, width)`` float32 array of stored entries; lanes past a
        row's length are padding.
    cols:
        ``(..., rows, width)`` int32 absolute dense-column indices, strictly
        ascending within each row's valid prefix; padding lanes are clamped
        to ``0``.
    lengths:
        ``(..., rows)`` int32 count of valid lanes per row.
    dense_cols:
        Number of columns of the original dense matrix.
    dtype:
        Logical element dtype ("float32" or "bfloat16"); determines the
        storage bytes reported by the memory accounting.
    """

    values: np.ndarray
    cols: np.ndarray
    lengths: np.ndarray
    dense_cols: int
    dtype: str = "float32"

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float32)
        self.cols = np.asarray(self.cols, dtype=np.int32)
        self.lengths = np.asarray(self.lengths, dtype=np.int32)
        if self.values.shape != self.cols.shape:
            raise ValueError(
                f"values shape {self.values.shape} != cols shape {self.cols.shape}"
            )
        if self.lengths.shape != self.values.shape[:-1]:
            raise ValueError(
                f"lengths shape {self.lengths.shape} does not match row shape "
                f"{self.values.shape[:-1]}"
            )
        width = self.values.shape[-1]
        if np.any(self.lengths < 0) or np.any(self.lengths > width):
            raise ValueError(f"row lengths must lie in [0, width={width}]")
        if np.any(self.cols < 0) or np.any(self.cols >= self.dense_cols):
            raise ValueError(f"columns must lie in [0, dense_cols={self.dense_cols})")
        # structure-derived caches (validity mask, flat gather/scatter indices)
        # are shared by reference across every values-sibling of one structure,
        # so a cache computed during any training step serves all later steps
        self.__dict__.setdefault("_shared_caches", {})
        if sanitize_enabled():
            # write-once guard: the structure keeps frozen private copies, so
            # neither a kernel writing "through" the structure nor a caller
            # mutating its original arrays can corrupt the cached layout
            self.cols = freeze_structure(private_copy(self.cols, np.int32))
            self.lengths = freeze_structure(private_copy(self.lengths, np.int32))

    # ------------------------------------------------------------------ shape
    @property
    def batch_shape(self) -> Tuple[int, ...]:
        return self.values.shape[:-2]

    @property
    def rows(self) -> int:
        return self.values.shape[-2]

    @property
    def width(self) -> int:
        """Padded lane count (the widest row's nnz)."""
        return self.values.shape[-1]

    @property
    def dense_shape(self) -> Tuple[int, ...]:
        return self.batch_shape + (self.rows, self.dense_cols)

    @property
    def density(self) -> float:
        """Mean fraction of stored (valid) entries per row."""
        if self.lengths.size == 0 or self.dense_cols == 0:
            return 0.0
        return float(self.lengths.mean()) / self.dense_cols

    # ------------------------------------------------------------ conversion
    @classmethod
    def from_mask(cls, mask: np.ndarray, dtype: str = "float32") -> "PaddedCSRMatrix":
        """Compress a boolean mask into a structure-only matrix (values zero).

        The mask may carry arbitrary leading batch dimensions; the padded
        width is the global maximum row nnz (at least one lane so downstream
        reductions never see a zero-width axis).  Ragged rows and fully
        masked rows (``length == 0``) are both first-class.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim < 2:
            raise ValueError("mask must be at least 2-D (rows, cols)")
        lengths = mask.sum(axis=-1, dtype=np.int32)
        width = max(int(lengths.max()) if lengths.size else 0, 1)
        # stable sort floats the True columns to the front in ascending order
        order = np.argsort((~mask).astype(np.uint8), axis=-1, kind="stable")
        cols = order[..., :width].astype(np.int32)
        valid = np.arange(width, dtype=np.int32) < lengths[..., None]
        cols = np.where(valid, cols, np.int32(0))
        return cls(
            values=np.zeros(cols.shape, dtype=np.float32),
            cols=cols,
            lengths=lengths,
            dense_cols=mask.shape[-1],
            dtype=dtype,
        )

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, mask: np.ndarray, pad_value: float = 0.0,
        dtype: str = "float32",
    ) -> "PaddedCSRMatrix":
        """Compress ``dense`` restricted to ``mask``; padding lanes get ``pad_value``."""
        structure = cls.from_mask(mask, dtype=dtype)
        dense = np.asarray(dense, dtype=np.float32)
        if dense.shape != np.asarray(mask).shape:
            raise ValueError(
                f"dense shape {dense.shape} != mask shape {np.asarray(mask).shape}"
            )
        vals = np.take_along_axis(dense, structure.cols.astype(np.int64), axis=-1)
        valid = structure.valid_lanes()
        return structure.with_values(np.where(valid, vals, np.float32(pad_value)))

    def broadcast_to(self, batch_shape: Tuple[int, ...]) -> "PaddedCSRMatrix":
        """View of this structure broadcast to new leading batch dimensions.

        The broadcast arrays are read-only views; callers replace the values
        via :meth:`with_values` (e.g. the SDDMM writing per-head scores into
        one shared static-mask structure).
        """
        batch_shape = tuple(batch_shape)
        if batch_shape == self.batch_shape:
            return self
        target = batch_shape + (self.rows, self.width)
        return PaddedCSRMatrix(
            values=np.broadcast_to(self.values, target),
            cols=np.broadcast_to(self.cols, target),
            lengths=np.broadcast_to(self.lengths, batch_shape + (self.rows,)),
            dense_cols=self.dense_cols,
            dtype=self.dtype,
        )

    def to_dense(self, fill_value: float = 0.0) -> np.ndarray:
        """Materialise the dense matrix with absent entries set to ``fill_value``."""
        if fill_value == 0.0:
            return self.scatter_compressed(self.values)
        dense = np.full(self.dense_shape, np.float32(fill_value), dtype=np.float32)
        extended = np.concatenate(
            [dense, np.zeros(self.batch_shape + (self.rows, 1), np.float32)], axis=-1
        )
        np.put_along_axis(extended, self._scatter_cols(), self.values, axis=-1)
        return extended[..., :-1]

    def to_mask(self) -> np.ndarray:
        """Boolean dense mask of stored (valid) positions."""
        ones = np.where(self.valid_lanes(), np.float32(1.0), np.float32(0.0))
        return self.scatter_compressed(ones).astype(bool)

    # ------------------------------------------------------- protocol methods
    def column_indices(self) -> np.ndarray:
        """Absolute dense column of every lane (padding clamped in-range)."""
        return self.cols

    def row_lengths(self) -> np.ndarray:
        return self.lengths

    def valid_lanes(self) -> Optional[np.ndarray]:
        """Boolean lane-validity mask (cached; treat as read-only)."""
        cached = self._shared.get("valid")
        if cached is None:
            cached = np.arange(self.width, dtype=np.int32) < self.lengths[..., None]
            self._shared["valid"] = freeze_structure(cached)
        return cached

    def _scatter_cols(self) -> np.ndarray:
        """int64 scatter targets: valid lanes keep their column, padding lanes
        address the trash column ``dense_cols`` (sliced off after the scatter)."""
        cached = self._shared.get("scatter_cols")
        if cached is None:
            cached = np.where(
                self.valid_lanes(), self.cols, np.int32(self.dense_cols)
            ).astype(np.int64)
            self._shared["scatter_cols"] = freeze_structure(cached)
        return cached

    def _row_leads(self, row_width: int) -> np.ndarray:
        """Flat offset of each row's slot 0 in a ``(..., rows, row_width)`` ravel."""
        n_rows = int(np.prod(self.batch_shape, dtype=np.int64)) * self.rows
        return (
            np.arange(n_rows, dtype=np.int64) * row_width
        ).reshape(self.batch_shape + (self.rows, 1))

    def flat_gather_indices(self) -> np.ndarray:
        """Raveled-dense gather index of every lane (cached).

        ``dense.ravel().take(flat_gather_indices())`` is the fast-path gather
        the kernels use — a single flat ``take`` is several times faster than
        ``np.take_along_axis`` at attention sizes.  Treat as read-only.
        """
        cached = self._shared.get("flat_gather")
        if cached is None:
            cached = self.cols + self._row_leads(self.dense_cols)
            self._shared["flat_gather"] = freeze_structure(cached)
        return cached

    def _flat_scatter_indices(self) -> np.ndarray:
        """Raveled scatter index into the trash-column-extended tile (cached)."""
        cached = self._shared.get("flat_scatter")
        if cached is None:
            cached = self._scatter_cols() + self._row_leads(self.dense_cols + 1)
            self._shared["flat_scatter"] = freeze_structure(cached)
        return cached

    @property
    def _shared(self) -> dict:
        return self.__dict__["_shared_caches"]

    def scatter_compressed(self, values: np.ndarray) -> np.ndarray:
        """Scatter compressed ``values`` into a dense zero tile, dropping padding.

        The tile is allocated one column wider than the dense matrix; padding
        lanes all land in that trash column, so they can never clobber a real
        entry that shares their clamped column index.  The scatter is one
        flat fancy assignment with cached indices — within a row the valid
        columns are unique, so no write races exist outside the trash column.
        """
        values = np.asarray(values, dtype=np.float32)
        if values.shape != self.values.shape:
            raise ValueError(
                f"compressed values shape {values.shape} != {self.values.shape}"
            )
        extended = np.zeros(
            values.shape[:-1] + (self.dense_cols + 1,), dtype=np.float32
        )
        extended.ravel()[self._flat_scatter_indices().ravel()] = values.ravel()
        return extended[..., :-1]

    def gather_dense(self, dense: np.ndarray) -> np.ndarray:
        """Gather every stored lane's entry out of a dense ``dense_shape`` array.

        The inverse of :meth:`scatter_compressed` (padding lanes read their
        clamped column — callers overwrite them with a sentinel or zero).
        """
        dense = np.asarray(dense, dtype=np.float32)
        if dense.size != int(np.prod(self.dense_shape, dtype=np.int64)):
            raise ValueError(
                f"dense size {dense.size} does not match shape {self.dense_shape}"
            )
        flat = self.flat_gather_indices().ravel()
        return dense.ravel().take(flat).reshape(self.values.shape)

    def to_scattered(self) -> np.ndarray:
        """Dense zero-filled scatter of the stored values."""
        return self.scatter_compressed(self.values)

    def _sibling(
        self, values: np.ndarray, cols: np.ndarray, lengths: np.ndarray, shared: dict
    ) -> "PaddedCSRMatrix":
        """Matrix over already-validated structure arrays and a cache store.

        Bypasses ``__post_init__``: the structure arrays were validated when
        this instance was built, and re-checking them on every training step
        is measurable.
        """
        out = object.__new__(PaddedCSRMatrix)
        out.values = values
        out.cols = cols
        out.lengths = lengths
        out.dense_cols = self.dense_cols
        out.dtype = self.dtype
        out.__dict__["_shared_caches"] = shared
        return out

    def with_values(self, new_values: np.ndarray) -> "PaddedCSRMatrix":
        """Return a new matrix with the same sparsity structure but new values.

        The shared cache store is carried by reference, so an index cache
        computed on any sibling serves all of them.
        """
        new_values = np.asarray(new_values, dtype=np.float32)
        if new_values.shape != self.values.shape:
            raise ValueError(
                f"replacement values shape {new_values.shape} != {self.values.shape}"
            )
        return self._sibling(new_values, self.cols, self.lengths, self._shared)

    def batch_slice(self, sl: slice) -> "PaddedCSRMatrix":
        """Tile over the flattened-batch index range ``sl``.

        The tile's values are a view of this matrix's whenever the batch
        dimensions merge (always for contiguous values), so a kernel writing
        them in place writes this matrix.  The tile's structure — its slice of
        ``cols``/``lengths`` and its own cache store, seeded with its slice
        of the validity mask — is memoised per slice on the shared cache:
        every ``with_values`` sibling (every training step) reuses the tile's
        flat gather/scatter tables, and tiles running concurrently never
        write into one cache store.
        """
        batch = int(np.prod(self.batch_shape, dtype=np.int64))
        lanes = (batch, self.rows, self.width)
        memo = self._shared.setdefault("batch_slices", {})
        structure = memo.get((sl.start, sl.stop))
        if structure is None:
            structure = (
                self.cols.reshape(lanes)[sl],
                self.lengths.reshape(lanes[:2])[sl],
                {"valid": self.valid_lanes().reshape(lanes)[sl]},
            )
            memo[(sl.start, sl.stop)] = structure
        return self._sibling(self.values.reshape(lanes)[sl], *structure)

    # ------------------------------------------------------------------ size
    def nonzeros_nbytes(self) -> int:
        """Bytes occupied by the stored (padded) values."""
        return int(np.prod(self.values.shape)) * dtype_bytes(self.dtype)

    def metadata_nbytes(self) -> int:
        """Bytes occupied by the column indices and per-row lengths."""
        return (
            int(np.prod(self.cols.shape)) + int(np.prod(self.lengths.shape))
        ) * _INDEX_BYTES

    def nbytes(self) -> int:
        return self.nonzeros_nbytes() + self.metadata_nbytes()

    def dense_nbytes(self) -> int:
        batch = int(np.prod(self.batch_shape)) if self.batch_shape else 1
        return batch * self.rows * self.dense_cols * dtype_bytes(self.dtype)

    def compression_ratio(self) -> float:
        """Dense bytes / compressed bytes (>1 only for masks much narrower
        than the dense width; padding and int32 columns both count)."""
        return self.dense_nbytes() / self.nbytes()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PaddedCSRMatrix(dense_shape={self.dense_shape}, width={self.width}, "
            f"density={self.density:.3f}, dtype={self.dtype})"
        )
