"""Tests (incl. property-based) for the dynamic N:M selection."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.patterns import NMPattern, PATTERN_1_2, PATTERN_2_4, resolve_pattern
from repro.core.pruning import (
    density_of_mask,
    global_column_indices,
    nm_compress,
    nm_compress_lanes,
    nm_decompress,
    nm_group_topn_indices,
    nm_keep_lanes,
    nm_prune_dense,
    nm_prune_mask,
)


class TestGroupTopN:
    def test_simple_2_4(self):
        x = np.array([[1.0, 4.0, 2.0, 3.0, -1.0, -3.0, -2.0, -4.0]], dtype=np.float32)
        idx = nm_group_topn_indices(x, PATTERN_2_4)
        # group 0: values 1,4,2,3 -> keep indices 1 (4.0) and 3 (3.0), sorted -> [1, 3]
        np.testing.assert_array_equal(idx[0, 0], [1, 3])
        # group 1: values -1,-3,-2,-4 -> keep -1 (idx 0) and -2 (idx 2)
        np.testing.assert_array_equal(idx[0, 1], [0, 2])

    def test_simple_1_2(self):
        x = np.array([[5.0, -1.0, 2.0, 7.0]], dtype=np.float32)
        idx = nm_group_topn_indices(x, PATTERN_1_2)
        np.testing.assert_array_equal(idx[0], [[0], [1]])

    def test_magnitude_criterion(self):
        x = np.array([[1.0, -4.0, 2.0, 3.0]], dtype=np.float32)
        idx_val = nm_group_topn_indices(x, PATTERN_2_4, criterion="value")
        idx_mag = nm_group_topn_indices(x, PATTERN_2_4, criterion="magnitude")
        np.testing.assert_array_equal(idx_val[0, 0], [2, 3])  # 2.0 and 3.0
        np.testing.assert_array_equal(idx_mag[0, 0], [1, 3])  # -4.0 and 3.0

    def test_tie_break_prefers_lower_index(self):
        x = np.array([[2.0, 2.0, 2.0, 2.0]], dtype=np.float32)
        idx = nm_group_topn_indices(x, PATTERN_2_4)
        np.testing.assert_array_equal(idx[0, 0], [0, 1])
        idx12 = nm_group_topn_indices(np.array([[3.0, 3.0]], dtype=np.float32), PATTERN_1_2)
        np.testing.assert_array_equal(idx12[0, 0], [0])

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            nm_group_topn_indices(np.zeros((2, 7)), PATTERN_2_4)

    def test_invalid_criterion(self):
        with pytest.raises(ValueError):
            nm_group_topn_indices(np.zeros((2, 8)), PATTERN_2_4, criterion="l2")


class TestMaskAndDense:
    def test_mask_density_exact(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 64)).astype(np.float32)
        for pattern, expect in [(PATTERN_1_2, 0.5), (PATTERN_2_4, 0.5), (NMPattern(1, 4), 0.25)]:
            mask = nm_prune_mask(x, pattern)
            assert density_of_mask(mask) == pytest.approx(expect)

    def test_mask_per_group_count(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 32)).astype(np.float32)
        mask = nm_prune_mask(x, PATTERN_2_4)
        per_group = mask.reshape(8, 8, 4).sum(axis=-1)
        assert np.all(per_group == 2)

    def test_prune_dense_keeps_largest(self):
        x = np.array([[10.0, 1.0, 5.0, 7.0]], dtype=np.float32)
        out = nm_prune_dense(x, PATTERN_2_4)
        np.testing.assert_array_equal(out, [[10.0, 0.0, 0.0, 7.0]])

    def test_prune_dense_custom_fill(self):
        x = np.array([[10.0, 1.0, 5.0, 7.0]], dtype=np.float32)
        out = nm_prune_dense(x, PATTERN_2_4, fill_value=-np.inf)
        assert out[0, 1] == -np.inf and out[0, 2] == -np.inf

    def test_batched_shapes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 8, 16)).astype(np.float32)
        mask = nm_prune_mask(x, PATTERN_2_4)
        assert mask.shape == x.shape


class TestKeepLanes:
    """The shared keep-lane helper on every group over a lattice of ties,
    signed zeros, the blocked-ELL ``-1e30`` sentinel and ±inf."""

    LATTICE = np.array([-np.inf, -1e30, -1.0, -0.0, 0.0, 1.0, np.inf], dtype=np.float32)

    def _lattice_groups(self, pattern):
        groups = np.array(list(itertools.product(self.LATTICE, repeat=pattern.m)))
        groups = groups.astype(np.float32)
        return groups, tuple(np.ascontiguousarray(groups[:, i]) for i in range(pattern.m))

    @pytest.mark.parametrize("pattern", ["1:2", "2:4", (1, 4), "2:6"])
    @pytest.mark.parametrize("criterion", ["value", "magnitude"])
    def test_equals_prune_mask(self, pattern, criterion):
        pattern = resolve_pattern(pattern)
        groups, lanes = self._lattice_groups(pattern)
        keep = np.stack(nm_keep_lanes(lanes, pattern, criterion), axis=-1)
        np.testing.assert_array_equal(keep, nm_prune_mask(groups, pattern, criterion))

    @pytest.mark.parametrize("pattern", ["1:2", "2:4", (1, 4), "2:6"])
    def test_compress_lanes_equals_compress(self, pattern):
        pattern = resolve_pattern(pattern)
        groups, lanes = self._lattice_groups(pattern)
        values, indices = nm_compress_lanes(lanes, nm_keep_lanes(lanes, pattern), pattern)
        ref_values, ref_indices = nm_compress(groups, pattern)
        np.testing.assert_array_equal(indices.reshape(ref_indices.shape), ref_indices)
        assert values.reshape(ref_values.shape).tobytes() == ref_values.tobytes()

    def test_unknown_criterion_raises(self):
        with pytest.raises(ValueError):
            nm_keep_lanes((np.zeros(3), np.zeros(3)), "1:2", "largest")


class TestCompressDecompress:
    def test_roundtrip_positions(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 16)).astype(np.float32)
        vals, idx = nm_compress(x, PATTERN_2_4)
        dense = nm_decompress(vals, idx, PATTERN_2_4, cols=16)
        mask = nm_prune_mask(x, PATTERN_2_4)
        np.testing.assert_allclose(dense[mask], x[mask])
        assert np.all(dense[~mask] == 0)

    def test_compressed_width(self):
        x = np.zeros((4, 32), dtype=np.float32)
        vals, idx = nm_compress(x, PATTERN_2_4)
        assert vals.shape == (4, 16) and idx.shape == (4, 16)
        vals12, _ = nm_compress(x, PATTERN_1_2)
        assert vals12.shape == (4, 16)

    def test_decompress_validates_shapes(self):
        with pytest.raises(ValueError):
            nm_decompress(np.zeros((4, 8)), np.zeros((4, 7)), PATTERN_2_4, cols=16)
        with pytest.raises(ValueError):
            nm_decompress(np.zeros((4, 9)), np.zeros((4, 9)), PATTERN_2_4, cols=16)

    def test_global_column_indices(self):
        x = np.array([[1.0, 9.0, 8.0, 2.0, 1.0, 2.0, 3.0, 4.0]], dtype=np.float32)
        _, idx = nm_compress(x, PATTERN_2_4)
        cols = global_column_indices(idx, PATTERN_2_4, cols=8)
        np.testing.assert_array_equal(cols[0], [1, 2, 6, 7])

    def test_values_preserved_exactly(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 8)).astype(np.float32)
        vals, idx = nm_compress(x, PATTERN_1_2)
        groups = x.reshape(4, 4, 2)
        expected = groups.max(axis=-1)
        np.testing.assert_allclose(vals, expected.reshape(4, 4))


# ----------------------------------------------------------------- properties
@st.composite
def score_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=12))
    groups = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.sampled_from([2, 4, 8]))
    n = draw(st.integers(min_value=1, max_value=m - 1))
    data = draw(
        arrays(
            dtype=np.float32,
            shape=(rows, groups * m),
            elements=st.floats(-100, 100, width=32),
        )
    )
    return data, NMPattern(n, m)


@settings(max_examples=60, deadline=None)
@given(score_matrices())
def test_property_mask_keeps_exactly_n_per_group(case):
    x, pattern = case
    mask = nm_prune_mask(x, pattern)
    per_group = mask.reshape(x.shape[0], -1, pattern.m).sum(axis=-1)
    assert np.all(per_group == pattern.n)


@settings(max_examples=60, deadline=None)
@given(score_matrices())
def test_property_kept_values_dominate_dropped(case):
    x, pattern = case
    mask = nm_prune_mask(x, pattern)
    groups = x.reshape(x.shape[0], -1, pattern.m)
    gmask = mask.reshape(groups.shape)
    kept_min = np.where(gmask, groups, np.inf).min(axis=-1)
    dropped_max = np.where(~gmask, groups, -np.inf).max(axis=-1)
    assert np.all(kept_min >= dropped_max)


@settings(max_examples=60, deadline=None)
@given(score_matrices())
def test_property_compress_decompress_roundtrip(case):
    x, pattern = case
    vals, idx = nm_compress(x, pattern)
    dense = nm_decompress(vals, idx, pattern, cols=x.shape[-1])
    mask = nm_prune_mask(x, pattern)
    np.testing.assert_allclose(dense, np.where(mask, x, 0.0), rtol=0, atol=0)


@settings(max_examples=60, deadline=None)
@given(score_matrices())
def test_property_indices_sorted_and_in_range(case):
    x, pattern = case
    _, idx = nm_compress(x, pattern)
    assert idx.min() >= 0 and idx.max() < pattern.m
    grouped = idx.reshape(x.shape[0], -1, pattern.n)
    assert np.all(np.diff(grouped.astype(np.int16), axis=-1) > 0)
