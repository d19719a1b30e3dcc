"""Shape helpers for batched attention tensors.

Attention code in :mod:`repro.core` operates on matrices with an arbitrary
number of leading batch dimensions, e.g. ``(batch, heads, seq, dim)``.  These
helpers flatten the leading dimensions into one so kernels only deal with 3-D
``(B, rows, cols)`` arrays, and restore the original shape afterwards.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def as_batched_3d(x: np.ndarray) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Reshape ``x`` to ``(B, rows, cols)`` and return the original batch shape.

    A 2-D input becomes ``(1, rows, cols)`` with batch shape ``()``.
    """
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError(f"expected at least a 2-D array, got shape {x.shape}")
    batch_shape = x.shape[:-2]
    rows, cols = x.shape[-2], x.shape[-1]
    batch = int(np.prod(batch_shape)) if batch_shape else 1
    return x.reshape(batch, rows, cols), batch_shape


def restore_batch_shape(x: np.ndarray, batch_shape: Tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`as_batched_3d` for an array shaped ``(B, rows, cols)``,
    or ``(..., rows, cols)`` whose batch axes hold ``batch_shape``'s slices."""
    if x.ndim < 3:
        raise ValueError(f"expected at least a 3-D array, got shape {x.shape}")
    return x.reshape(*batch_shape, x.shape[-2], x.shape[-1])


def check_matmul_shapes(a: np.ndarray, b: np.ndarray) -> None:
    """Raise ``ValueError`` if ``a @ b`` is not a valid (batched) matmul."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(
            f"inner dimensions do not match: {a.shape} @ {b.shape}"
        )
    if a.shape[:-2] != b.shape[:-2]:
        raise ValueError(
            f"batch dimensions do not match: {a.shape[:-2]} vs {b.shape[:-2]}"
        )
