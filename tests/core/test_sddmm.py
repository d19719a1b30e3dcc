"""Tests for the SDDMM with fused N:M pruning epilogue."""

import numpy as np
import pytest

from repro.core.blocked_ell import sliding_window_mask
from repro.core.row_block import RowBlockStructure
from repro.core.patterns import PATTERN_1_2, PATTERN_2_4
from repro.core.pruning import nm_prune_mask
from repro.core.sddmm import SddmmTraffic, sddmm_dense, sddmm_nm, sddmm_nm_tiled


def _qk(seq=64, d=32, batch=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = (seq, d) if batch is None else tuple(batch) + (seq, d)
    return (
        rng.normal(size=shape).astype(np.float32),
        rng.normal(size=shape).astype(np.float32),
    )


class TestSddmmDense:
    def test_matches_reference(self):
        q, k = _qk()
        out = sddmm_dense(q, k)
        ref = q @ k.T / np.sqrt(32)
        assert np.abs(out - ref).max() < 1e-2

    def test_custom_scale(self):
        q, k = _qk()
        out = sddmm_dense(q, k, scale=1.0)
        ref = q @ k.T
        assert np.abs(out - ref).max() < 5e-2

    def test_batched_shape(self):
        q, k = _qk(batch=(2, 3))
        out = sddmm_dense(q, k)
        assert out.shape == (2, 3, 64, 64)

    def test_mismatched_batch_raises(self):
        q, _ = _qk(batch=(2,))
        _, k = _qk(batch=(3,))
        with pytest.raises(ValueError):
            sddmm_dense(q, k)


class TestSddmmNM:
    def test_equals_prune_of_dense(self):
        q, k = _qk()
        dense = sddmm_dense(q, k)
        sp = sddmm_nm(q, k, pattern=PATTERN_2_4)
        mask = nm_prune_mask(dense, PATTERN_2_4)
        np.testing.assert_allclose(sp.to_dense(), np.where(mask, dense, 0.0), atol=1e-6)

    def test_default_pattern_follows_dtype(self):
        q, k = _qk()
        assert sddmm_nm(q, k, dtype="float32").pattern == PATTERN_1_2
        assert sddmm_nm(q, k, dtype="bfloat16").pattern == PATTERN_2_4

    def test_batched(self):
        q, k = _qk(batch=(2, 4), seq=32, d=16)
        sp = sddmm_nm(q, k, pattern=PATTERN_2_4)
        assert sp.dense_shape == (2, 4, 32, 32)
        assert sp.values.shape == (2, 4, 32, 16)

    def test_rejects_feature_mismatch(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(16, 32)).astype(np.float32)
        k = rng.normal(size=(16, 48)).astype(np.float32)
        with pytest.raises(ValueError):
            sddmm_nm(q, k)

    def test_structure_mask_zeroes_outside_blocks(self):
        q, k = _qk(seq=64, d=16)
        mask = sliding_window_mask(64, block_size=16, window_blocks=0)
        structure = RowBlockStructure.from_mask(mask.dense_mask(64, 64))
        sp = sddmm_nm(q, k, pattern=PATTERN_2_4, mask=structure.to_mask())
        dense = sp.to_dense()
        block_dense = mask.dense_mask(64, 64)
        # every surviving *finite, non-sentinel* score lies inside the block mask
        outside = dense[~block_dense]
        assert np.all((outside == 0.0) | (outside <= -1e29))


class TestSddmmTiled:
    @pytest.mark.parametrize("pattern", [PATTERN_1_2, PATTERN_2_4])
    def test_matches_untiled(self, pattern):
        q, k = _qk(seq=96, d=48, seed=3)
        ref = sddmm_nm(q, k, pattern=pattern)
        tiled = sddmm_nm_tiled(q, k, pattern=pattern, mtile=32, ntile=32, ktile=16)
        np.testing.assert_allclose(tiled.values, ref.values, atol=1e-4)
        np.testing.assert_array_equal(tiled.indices, ref.indices)

    def test_rejects_batched_input(self):
        q, k = _qk(batch=(2,))
        with pytest.raises(ValueError):
            sddmm_nm_tiled(q, k)

    def test_traffic_counts(self):
        q, k = _qk(seq=64, d=32)
        traffic = SddmmTraffic()
        sddmm_nm_tiled(
            q, k, pattern=PATTERN_2_4, mtile=32, ntile=32, ktile=32, traffic=traffic
        )
        # reads: for each of the (2x2) output tiles, Q tile (32x32) + K tile (32x32)
        # floats at 4 bytes each -> 4 tiles * 2 * 1024 * 4 bytes
        assert traffic.bytes_read == 4 * 2 * 32 * 32 * 4
        # writes: nonzeros (64*32 floats) + metadata (64*16 groups * 0.5 byte)
        assert traffic.bytes_written == 64 * 32 * 4 + 64 * 16 // 2
        assert traffic.total == traffic.bytes_read + traffic.bytes_written

    def test_write_traffic_half_of_dense(self):
        # the epilogue writes ~1/2 + 1/16 of what a dense GEMM would write
        q, k = _qk(seq=128, d=64)
        traffic = SddmmTraffic()
        sddmm_nm_tiled(q, k, pattern=PATTERN_1_2, traffic=traffic)
        dense_write = 128 * 128 * 4
        assert traffic.bytes_written < 0.6 * dense_write
        assert traffic.bytes_written > 0.5 * dense_write
