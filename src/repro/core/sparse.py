"""Compressed N:M sparse matrix container.

:class:`NMSparseMatrix` is the in-memory equivalent of the (nonzeros,
metadata) pair that the DFSS epilogue writes to DRAM: the surviving values in
row-major order plus, for every value, its offset within its M-group.  It
supports arbitrary leading batch dimensions (batch, heads, ...).

The container also knows how to materialise the hardware metadata stream
(:meth:`NMSparseMatrix.packed_metadata`) and how to account for its own memory
footprint, which feeds the performance model in :mod:`repro.gpusim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.analysis.sanitize import freeze_structure, private_copy, sanitize_enabled
from repro.core import metadata as meta
from repro.core import pruning
from repro.core.patterns import NMPattern, resolve_pattern
from repro.core.precision import dtype_bytes, quantize


@dataclass
class NMSparseMatrix:
    """An N:M-pruned matrix stored as compressed values + per-group indices.

    Attributes
    ----------
    values:
        ``(..., rows, kept)`` float32 array of surviving entries, where
        ``kept = cols // M * N``.
    indices:
        ``(..., rows, kept)`` int8 array giving each surviving entry's offset
        within its M-group (the logical content of the hardware metadata).
    pattern:
        The :class:`~repro.core.patterns.NMPattern` used for pruning.
    dense_cols:
        Number of columns of the original dense matrix.
    dtype:
        Logical element dtype ("float32" or "bfloat16"); determines storage
        bytes and the default hardware pattern.
    """

    values: np.ndarray
    indices: np.ndarray
    pattern: NMPattern
    dense_cols: int
    dtype: str = "float32"

    def __post_init__(self) -> None:
        self.pattern = resolve_pattern(self.pattern)
        self.values = np.asarray(self.values, dtype=np.float32)
        self.indices = np.asarray(self.indices, dtype=np.int8)
        if self.values.shape != self.indices.shape:
            raise ValueError(
                f"values shape {self.values.shape} != indices shape {self.indices.shape}"
            )
        expected_kept = self.pattern.kept(self.dense_cols)
        if self.values.shape[-1] != expected_kept:
            raise ValueError(
                f"compressed width {self.values.shape[-1]} does not match "
                f"kept({self.dense_cols}) = {expected_kept} for pattern {self.pattern.name}"
            )
        if np.any(self.indices < 0) or np.any(self.indices >= self.pattern.m):
            raise ValueError("indices must lie in [0, M)")
        if sanitize_enabled():
            # write-once guard: the metadata stream is immutable by convention
            self.indices = freeze_structure(private_copy(self.indices, np.int8))

    # ------------------------------------------------------------------ shape
    @property
    def batch_shape(self) -> Tuple[int, ...]:
        return self.values.shape[:-2]

    @property
    def rows(self) -> int:
        return self.values.shape[-2]

    @property
    def kept_cols(self) -> int:
        return self.values.shape[-1]

    @property
    def dense_shape(self) -> Tuple[int, ...]:
        return self.batch_shape + (self.rows, self.dense_cols)

    @property
    def density(self) -> float:
        return self.pattern.density

    # ------------------------------------------------------------ conversion
    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        pattern,
        criterion: str = "value",
        dtype: str = "float32",
    ) -> "NMSparseMatrix":
        """Prune a dense matrix to N:M sparsity and compress it."""
        pattern = resolve_pattern(pattern)
        dense = quantize(dense, dtype)
        values, indices = pruning.nm_compress(dense, pattern, criterion)
        return cls(
            values=values,
            indices=indices,
            pattern=pattern,
            dense_cols=dense.shape[-1],
            dtype=dtype,
        )

    def to_dense(self, fill_value: float = 0.0) -> np.ndarray:
        """Materialise the dense matrix with pruned entries set to ``fill_value``."""
        return pruning.nm_decompress(
            self.values, self.indices, self.pattern, self.dense_cols, fill_value
        )

    def to_mask(self) -> np.ndarray:
        """Boolean dense mask of surviving positions."""
        ones = NMSparseMatrix(
            values=np.ones_like(self.values),
            indices=self.indices,
            pattern=self.pattern,
            dense_cols=self.dense_cols,
            dtype=self.dtype,
        )
        return ones.to_dense(0.0).astype(bool)

    def column_indices(self) -> np.ndarray:
        """Absolute dense-column index of every stored value.

        The expanded index array is cached on first use (the structure is
        immutable by convention) — the forward SpMM and every backward-pass
        kernel walk the same metadata, so the expansion happens once.
        """
        cached = self.__dict__.get("_column_cache")
        if cached is None or cached.shape != self.indices.shape:
            cached = pruning.global_column_indices(
                self.indices, self.pattern, self.dense_cols
            )
            self.__dict__["_column_cache"] = freeze_structure(cached)
        return cached

    def _sibling(self, values: np.ndarray, indices: np.ndarray) -> "NMSparseMatrix":
        """Same-pattern matrix over already-validated arrays.

        Bypasses ``__post_init__``: the indices were range-checked (and, under
        the sanitizer, frozen) when this instance was built, and re-checking
        them on every training step is measurable.
        """
        out = object.__new__(NMSparseMatrix)
        out.values = values
        out.indices = indices
        out.pattern = self.pattern
        out.dense_cols = self.dense_cols
        out.dtype = self.dtype
        return out

    def with_values(self, new_values: np.ndarray) -> "NMSparseMatrix":
        """Return a new matrix with the same sparsity structure but new values.

        The sibling shares this matrix's indices and column cache.
        """
        new_values = np.asarray(new_values, dtype=np.float32)
        if new_values.shape != self.values.shape:
            raise ValueError(
                f"replacement values shape {new_values.shape} != {self.values.shape}"
            )
        out = self._sibling(new_values, self.indices)
        cached = self.__dict__.get("_column_cache")
        if cached is not None:
            out.__dict__["_column_cache"] = cached
        return out

    # -------------------------------------------------------------- metadata
    def group_nibbles(self) -> np.ndarray:
        """Per-group 4-bit metadata codes, shape ``(..., rows, groups)``."""
        groups = self.pattern.groups(self.dense_cols)
        kept_idx = self.indices.reshape(
            self.indices.shape[:-1] + (groups, self.pattern.n)
        )
        return meta.encode_group_nibbles(kept_idx, self.pattern)

    def packed_metadata(self, reorder: bool = True) -> np.ndarray:
        """Hardware metadata stream (uint16 blocks) for a 2-D (or batched) matrix.

        Rows are padded to a multiple of 32 and groups to a multiple of 8 with
        the identity pattern (keep the first N entries) so every matrix can be
        packed; the padding convention matches zero-padding the dense matrix.
        """
        nib = self.group_nibbles()
        flat = nib.reshape(-1, nib.shape[-1])
        rows, groups = flat.shape
        pad_rows = (-rows) % meta.TILE_ROWS
        pad_groups = (-groups) % 8
        if pad_rows or pad_groups:
            if self.pattern.n == 1:
                pad_nibble = 0x4
            else:
                pad_nibble = 0x4  # keep indices (0, 1)
            flat = np.pad(
                flat, ((0, pad_rows), (0, pad_groups)), constant_values=pad_nibble
            )
        packed = meta.pack_metadata(flat, reorder=reorder)
        return packed

    # ------------------------------------------------------------------ size
    def nonzeros_nbytes(self) -> int:
        """Bytes occupied by the compressed nonzero values."""
        return int(np.prod(self.values.shape)) * dtype_bytes(self.dtype)

    def metadata_nbytes(self) -> int:
        """Bytes occupied by the metadata stream."""
        batch = int(np.prod(self.batch_shape)) if self.batch_shape else 1
        return batch * meta.metadata_nbytes(self.rows, self.dense_cols, self.pattern)

    def nbytes(self) -> int:
        """Total compressed footprint (nonzeros + metadata)."""
        return self.nonzeros_nbytes() + self.metadata_nbytes()

    def dense_nbytes(self) -> int:
        """Footprint the dense matrix would have occupied."""
        batch = int(np.prod(self.batch_shape)) if self.batch_shape else 1
        return batch * self.rows * self.dense_cols * dtype_bytes(self.dtype)

    def compression_ratio(self) -> float:
        """Dense bytes / compressed bytes (≈1.78x for 2:4 bf16, ≈1.88x for 1:2 fp32)."""
        return self.dense_nbytes() / self.nbytes()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NMSparseMatrix(pattern={self.pattern.name}, dtype={self.dtype}, "
            f"dense_shape={self.dense_shape}, kept_cols={self.kept_cols})"
        )
