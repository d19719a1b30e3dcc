"""Tests for the blocked-ELL layouts BigBird lays its blocks out with."""

import numpy as np
import pytest

from repro.core.blocked_ell import BlockedEllMask, bigbird_mask, sliding_window_mask


class TestBlockedEllMask:
    def test_dense_mask_shape(self):
        mask = sliding_window_mask(seq_len=64, block_size=16)
        dense = mask.dense_mask(64, 64)
        assert dense.shape == (64, 64)
        assert dense.dtype == bool

    def test_diagonal_always_present_in_window(self):
        mask = sliding_window_mask(seq_len=128, block_size=32, window_blocks=0)
        dense = mask.dense_mask(128, 128)
        assert np.all(np.diag(dense))

    def test_window_width(self):
        mask = sliding_window_mask(seq_len=128, block_size=32, window_blocks=1)
        # interior block-row keeps exactly 3 blocks
        assert (mask.block_columns[1] >= 0).sum() == 3
        # edge rows keep 2
        assert (mask.block_columns[0] >= 0).sum() == 2

    def test_invalid_divisibility(self):
        with pytest.raises(ValueError):
            sliding_window_mask(seq_len=100, block_size=32)
        mask = sliding_window_mask(seq_len=64, block_size=16)
        with pytest.raises(ValueError):
            mask.dense_mask(100, 64)

    def test_out_of_range_block_column(self):
        bad = BlockedEllMask(block_size=16, block_columns=np.array([[5], [0]]))
        with pytest.raises(ValueError):
            bad.dense_mask(32, 32)


class TestBigBird:
    def test_contains_window_and_global(self):
        mask = bigbird_mask(
            seq_len=256, block_size=32, window_blocks=1, num_global_blocks=1,
            num_random_blocks=1, seed=0,
        )
        dense = mask.dense_mask(256, 256)
        assert np.all(np.diag(dense))
        assert np.all(dense[:, :32])

    def test_random_blocks_reproducible(self):
        a = bigbird_mask(256, 32, num_random_blocks=2, seed=42)
        b = bigbird_mask(256, 32, num_random_blocks=2, seed=42)
        np.testing.assert_array_equal(a.block_columns, b.block_columns)

    def test_density_increases_with_random_blocks(self):
        a = bigbird_mask(512, 64, num_random_blocks=0, seed=0)
        b = bigbird_mask(512, 64, num_random_blocks=3, seed=0)
        assert b.block_grid(512, 512).sum() >= a.block_grid(512, 512).sum()
