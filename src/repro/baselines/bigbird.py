"""BigBird-style block sparse attention: window + global + random blocks."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import StaticMaskAttention, register
from repro.core.blocked_ell import BlockedEllMask, bigbird_mask
from repro.registry import BigBirdConfig, register_mechanism
from repro.utils.seeding import SeedLike


@register_mechanism(
    "bigbird",
    config=BigBirdConfig,
    label="BigBird",
    description="Blocked window/global/random pattern (Zaheer et al.)",
    produces_mask=True,
    compressed=True,
    batchable=True,
    static_mask=True,
    latency_model="bigbird",
)
@register
class BigBirdAttention(StaticMaskAttention):
    """Blocked window/global/random pattern of Zaheer et al."""

    name = "bigbird"

    def __init__(
        self,
        block_size: int = 64,
        window_blocks: int = 1,
        num_global_blocks: int = 1,
        num_random_blocks: int = 1,
        seed: SeedLike = 0,
    ):
        self.block_size = block_size
        self.window_blocks = window_blocks
        self.num_global_blocks = num_global_blocks
        self.num_random_blocks = num_random_blocks
        self.seed = seed

    def block_size_for(self, n: int) -> int:
        """The configured block size, halved until it divides ``n``."""
        block_size = self.block_size
        while n % block_size != 0 and block_size > 1:
            block_size //= 2
        return block_size

    def block_mask(self, n: int) -> BlockedEllMask:
        """The blocked-ELL pattern of a length-``n`` self-attention."""
        return bigbird_mask(
            n,
            self.block_size_for(n),
            window_blocks=self.window_blocks,
            num_global_blocks=self.num_global_blocks,
            num_random_blocks=self.num_random_blocks,
            seed=self.seed,
        )

    def _mask_2d(self, n_q: int, n_k: int) -> np.ndarray:
        if n_q != n_k:
            raise ValueError("BigBird attention expects self-attention (n_q == n_k)")
        return self.block_mask(n_q).dense_mask(n_q, n_k)

    def row_block_keys(self, n_q: int, n_k: int):
        if n_q != n_k:
            raise ValueError("BigBird attention expects self-attention (n_q == n_k)")
        size = self.block_size_for(n_q)
        grid = self.block_mask(n_q).block_grid(n_q, n_k)

        def ranges(start, stop):
            kept = np.flatnonzero(grid[start // size:(stop - 1) // size + 1].any(axis=0))
            return [(c * size, (c + 1) * size) for c in kept]

        return ranges, lambda rows, keys: grid[rows // size, keys // size]
