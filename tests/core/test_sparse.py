"""Tests for the NMSparseMatrix container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import PATTERN_1_2, PATTERN_2_4
from repro.core.pruning import nm_prune_mask
from repro.core.sparse import NMSparseMatrix


def _random_sparse(shape=(16, 32), pattern=PATTERN_2_4, dtype="float32", seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=shape).astype(np.float32)
    return dense, NMSparseMatrix.from_dense(dense, pattern, dtype=dtype)


class TestConstruction:
    def test_from_dense_shapes(self):
        dense, sp = _random_sparse((16, 32))
        assert sp.rows == 16
        assert sp.dense_cols == 32
        assert sp.kept_cols == 16
        assert sp.dense_shape == (16, 32)
        assert sp.batch_shape == ()

    def test_batched(self):
        dense, sp = _random_sparse((2, 3, 8, 16))
        assert sp.batch_shape == (2, 3)
        assert sp.dense_shape == (2, 3, 8, 16)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            NMSparseMatrix(
                values=np.zeros((4, 8)),
                indices=np.zeros((4, 6), dtype=np.int8),
                pattern=PATTERN_2_4,
                dense_cols=16,
            )

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            NMSparseMatrix(
                values=np.zeros((4, 10)),
                indices=np.zeros((4, 10), dtype=np.int8),
                pattern=PATTERN_2_4,
                dense_cols=16,
            )

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            NMSparseMatrix(
                values=np.zeros((4, 8)),
                indices=np.full((4, 8), 5, dtype=np.int8),
                pattern=PATTERN_2_4,
                dense_cols=16,
            )


class TestRoundTrip:
    def test_to_dense_matches_masked_original(self):
        dense, sp = _random_sparse((16, 32))
        mask = nm_prune_mask(dense, PATTERN_2_4)
        recon = sp.to_dense()
        np.testing.assert_allclose(recon, np.where(mask, dense, 0.0), atol=0)

    def test_to_mask(self):
        dense, sp = _random_sparse((8, 16))
        mask = sp.to_mask()
        np.testing.assert_array_equal(mask, nm_prune_mask(dense, PATTERN_2_4))

    def test_bfloat16_values_on_grid(self):
        dense, sp = _random_sparse((8, 16), dtype="bfloat16", seed=3)
        from repro.core.precision import to_bfloat16

        np.testing.assert_array_equal(sp.values, to_bfloat16(sp.values))

    def test_column_indices_within_bounds(self):
        dense, sp = _random_sparse((8, 16))
        cols = sp.column_indices()
        assert cols.min() >= 0 and cols.max() < 16
        # strictly increasing within each row for 2:4 (2 kept per group of 4)
        assert np.all(np.diff(cols, axis=-1) > 0)

    def test_with_values(self):
        dense, sp = _random_sparse((8, 16))
        doubled = sp.with_values(sp.values * 2)
        np.testing.assert_allclose(doubled.to_dense(), sp.to_dense() * 2)
        with pytest.raises(ValueError):
            sp.with_values(np.zeros((8, 4)))

    def test_with_values_shares_indices_and_column_cache(self):
        dense, sp = _random_sparse((2, 8, 16))
        cols = sp.column_indices()
        sibling = sp.with_values(sp.values * 2)
        assert sibling.indices is sp.indices
        assert sibling.column_indices() is cols


class TestFootprint:
    def test_compression_ratio_2_4_bf16(self):
        # nonzeros: n^2/2 * 2B, metadata: n^2/4 groups... -> ratio = 32/18 ≈ 1.78
        dense, sp = _random_sparse((128, 128), PATTERN_2_4, dtype="bfloat16")
        assert sp.dense_nbytes() == 128 * 128 * 2
        assert sp.nonzeros_nbytes() == 128 * 64 * 2
        assert sp.metadata_nbytes() == 128 * 32 * 4 // 8
        assert sp.compression_ratio() == pytest.approx(16 / 9, rel=1e-6)

    def test_compression_ratio_1_2_fp32(self):
        dense, sp = _random_sparse((128, 128), PATTERN_1_2, dtype="float32")
        # paper: n^2 * 32b -> n^2/2 * 32b + n^2/16 * 32b
        assert sp.nonzeros_nbytes() == 128 * 64 * 4
        assert sp.metadata_nbytes() == 128 * 64 * 4 // 8
        expected = 1.0 / (0.5 + 1.0 / 16.0)
        assert sp.compression_ratio() == pytest.approx(expected, rel=1e-6)

    def test_memory_reduction_in_paper_band(self):
        # paper: 1.41x ~ 1.82x attention-matrix memory reduction
        _, sp24 = _random_sparse((256, 256), PATTERN_2_4, dtype="bfloat16")
        _, sp12 = _random_sparse((256, 256), PATTERN_1_2, dtype="float32")
        assert 1.4 < sp24.compression_ratio() < 2.0
        assert 1.4 < sp12.compression_ratio() < 2.0


class TestPackedMetadata:
    def test_shape_and_dtype(self):
        dense, sp = _random_sparse((64, 64))
        packed = sp.packed_metadata()
        assert packed.dtype == np.uint16
        # 64 cols -> 16 groups -> 4 blocks per row
        assert packed.shape == (64, 4)

    def test_pads_partial_tiles(self):
        dense, sp = _random_sparse((40, 32))
        packed = sp.packed_metadata()
        assert packed.shape[0] == 64  # padded to the next multiple of 32

    def test_roundtrip_through_decode(self):
        from repro.core import metadata as meta

        dense, sp = _random_sparse((32, 64))
        packed = sp.packed_metadata(reorder=True)
        nib = meta.unpack_metadata(packed, reordered=True)[:32, :16]
        np.testing.assert_array_equal(nib, sp.group_nibbles())


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(["1:2", "2:4"]),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_dense_roundtrip_preserves_kept_entries(rows, groups, pattern, seed):
    rng = np.random.default_rng(seed)
    from repro.core.patterns import resolve_pattern

    pat = resolve_pattern(pattern)
    dense = rng.normal(size=(rows, groups * pat.m)).astype(np.float32)
    sp = NMSparseMatrix.from_dense(dense, pat)
    recon = sp.to_dense()
    mask = nm_prune_mask(dense, pat)
    np.testing.assert_allclose(recon[mask], dense[mask])
    assert np.all(recon[~mask] == 0.0)
