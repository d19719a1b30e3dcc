"""Longformer-style attention: sliding window plus a few global tokens."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import StaticMaskAttention
from repro.baselines.fixed import in_window, local_window_mask, window_keys
from repro.registry import LongformerConfig, register_mechanism


def longformer_mask(n_q: int, n_k: int, window: int, num_global: int) -> np.ndarray:
    """Sliding-window mask with the first ``num_global`` tokens made global."""
    mask = local_window_mask(n_q, n_k, window)
    g = min(num_global, n_k)
    mask[:, :g] = True  # everyone attends to the global tokens
    mask[: min(num_global, n_q), :] = True  # global tokens attend everywhere
    return mask


@register_mechanism(
    "longformer",
    config=LongformerConfig,
    label="Longformer",
    description="Sliding window plus global tokens (Beltagy et al.)",
    produces_mask=True,
    compressed=True,
    batchable=True,
    static_mask=True,
    latency_model="longformer",
)
class LongformerAttention(StaticMaskAttention):
    """Fixed window + global-token pattern (Beltagy et al.)."""

    name = "longformer"

    def __init__(self, window: int = 32, num_global: int = 1):
        self.window = window
        self.num_global = num_global

    def _mask_2d(self, n_q: int, n_k: int) -> np.ndarray:
        return longformer_mask(n_q, n_k, self.window, self.num_global)

    def row_block_keys(self, n_q: int, n_k: int):
        window, num_global = self.window, self.num_global

        def ranges(start, stop):
            if start < num_global:  # a global row reads every key
                return [(0, n_k)]
            return [(0, num_global), window_keys(start, stop, window)]

        def allowed(rows, keys):
            return in_window(rows, keys, window) | (keys < num_global) | (rows < num_global)

        return ranges, allowed
