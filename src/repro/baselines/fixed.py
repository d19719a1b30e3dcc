"""Fixed (data-independent) sparse attention patterns.

Three members of the family the paper groups as "Fixed Sparse Patterns":

* :class:`LocalWindowAttention` — each query attends to a sliding window of
  neighbouring keys (Image Transformer / "Local Attention" row of Table 4);
* :class:`StridedSparseAttention` — local window plus strided columns
  (Child et al.'s Sparse Transformer);
* :class:`TruncatedAttention` — keep the first ``density * n`` key columns;
  this is the pattern used for the fixed-sparsity speedup measurement in
  Appendix A.4 ("simply truncate the number of columns").
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.baselines.base import StaticMaskAttention, register
from repro.registry import (
    LocalConfig,
    StridedConfig,
    TruncatedConfig,
    register_mechanism,
)


def local_window_mask(n_q: int, n_k: int, window: int) -> np.ndarray:
    """Boolean mask keeping keys within ``window`` positions of the query."""
    rows = np.arange(n_q)[:, None]
    cols = np.arange(n_k)[None, :]
    return np.abs(rows - cols) <= window


def strided_mask(n_q: int, n_k: int, window: int, stride: int) -> np.ndarray:
    """Local window plus every ``stride``-th column (Sparse Transformer)."""
    mask = local_window_mask(n_q, n_k, window)
    mask[:, ::stride] = True
    return mask


def truncated_mask(n_q: int, n_k: int, density: float) -> np.ndarray:
    """Keep the first ``density * n_k`` columns for every query."""
    keep = max(1, int(round(density * n_k)))
    mask = np.zeros((n_q, n_k), dtype=bool)
    mask[:, :keep] = True
    return mask


def window_keys(start: int, stop: int, window: int) -> Tuple[int, int]:
    """The key range a sliding window of half-width ``window`` reads for
    query rows ``[start, stop)``."""
    return start - window, stop + window


def in_window(rows: np.ndarray, keys: np.ndarray, window: int) -> np.ndarray:
    """Allowed predicate of a sliding window of half-width ``window``
    (compares, never subtracts, the broadcast indices: no int64 temporary of
    the tile's shape)."""
    return (keys >= rows - window) & (keys <= rows + window)


@register_mechanism(
    "local",
    config=LocalConfig,
    label="Local Attention",
    description="Sliding-window local attention (Image Transformer)",
    aliases=("local_window",),
    produces_mask=True,
    compressed=True,
    batchable=True,
    static_mask=True,
    latency_model="local",
)
@register
class LocalWindowAttention(StaticMaskAttention):
    """Sliding-window attention with half-width ``window``."""

    name = "local"

    def __init__(self, window: int = 32):
        if window < 0:
            raise ValueError("window must be non-negative")
        self.window = window

    def _mask_2d(self, n_q: int, n_k: int) -> np.ndarray:
        return local_window_mask(n_q, n_k, self.window)

    def row_block_keys(self, n_q: int, n_k: int):
        window = self.window
        return (
            lambda start, stop: [window_keys(start, stop, window)],
            lambda rows, keys: in_window(rows, keys, window),
        )


@register_mechanism(
    "sparse_transformer",
    config=StridedConfig,
    label="Sparse Trans.",
    description="Local + strided fixed pattern (Child et al.)",
    aliases=("strided",),
    produces_mask=True,
    compressed=True,
    batchable=True,
    static_mask=True,
)
@register
class StridedSparseAttention(StaticMaskAttention):
    """Sparse-Transformer-style local + strided pattern."""

    name = "sparse_transformer"

    def __init__(self, window: int = 16, stride: int = 64):
        if stride <= 0:
            raise ValueError("stride must be positive")
        self.window = window
        self.stride = stride

    def _mask_2d(self, n_q: int, n_k: int) -> np.ndarray:
        return strided_mask(n_q, n_k, self.window, self.stride)

    def row_block_keys(self, n_q: int, n_k: int):
        window, stride = self.window, self.stride
        strided = [(c, c + 1) for c in range(0, n_k, stride)]
        return (
            lambda start, stop: strided + [window_keys(start, stop, window)],
            lambda rows, keys: in_window(rows, keys, window) | (keys % stride == 0),
        )


@register_mechanism(
    "fixed_truncated",
    config=TruncatedConfig,
    label="Fixed (truncated)",
    description="Keep a fixed leading fraction of key columns (Appendix A.4)",
    aliases=("fixed", "truncated"),
    produces_mask=True,
    compressed=True,
    batchable=True,
    static_mask=True,
    latency_model="fixed",
)
@register
class TruncatedAttention(StaticMaskAttention):
    """Keep a fixed leading fraction of key columns (Appendix A.4 fixed pattern)."""

    name = "fixed_truncated"

    def __init__(self, density: float = 0.5):
        if not 0.0 < density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        self.density = density

    def _mask_2d(self, n_q: int, n_k: int) -> np.ndarray:
        return truncated_mask(n_q, n_k, self.density)

    def row_block_keys(self, n_q: int, n_k: int):
        keep = max(1, int(round(self.density * n_k)))
        return lambda start, stop: [(0, keep)], lambda rows, keys: keys < keep
