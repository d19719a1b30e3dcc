"""Tests for dense, masked and sparse softmax."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.patterns import PATTERN_2_4
from repro.core.softmax import dense_softmax, masked_dense_softmax, sparse_softmax
from repro.core.sparse import NMSparseMatrix


class TestDenseSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 32)).astype(np.float32)
        w = dense_softmax(x)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)

    def test_matches_scipy(self):
        from scipy.special import softmax as scipy_softmax

        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 16)).astype(np.float32)
        np.testing.assert_allclose(dense_softmax(x), scipy_softmax(x, axis=-1), atol=1e-6)

    def test_large_logits_stable(self):
        x = np.array([[1e4, 1e4 - 1.0, 0.0]], dtype=np.float32)
        w = dense_softmax(x)
        assert np.all(np.isfinite(w))
        assert w[0, 0] > w[0, 1] > w[0, 2]

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 8)).astype(np.float32)
        np.testing.assert_allclose(dense_softmax(x), dense_softmax(x + 100.0), atol=1e-5)


class TestMaskedSoftmax:
    def test_masked_positions_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 8)).astype(np.float32)
        mask = np.zeros((4, 8), dtype=bool)
        mask[:, :3] = True
        w = masked_dense_softmax(x, mask)
        assert np.all(w[:, 3:] == 0)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)

    def test_fully_masked_row_is_zero(self):
        x = np.ones((2, 4), dtype=np.float32)
        mask = np.zeros((2, 4), dtype=bool)
        w = masked_dense_softmax(x, mask)
        assert np.all(w == 0)
        assert np.all(np.isfinite(w))


class TestSparseSoftmax:
    def _sparse_scores(self, shape=(8, 32), seed=0):
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=shape).astype(np.float32)
        return dense, NMSparseMatrix.from_dense(dense, PATTERN_2_4)

    def test_rows_sum_to_one(self):
        _, sp = self._sparse_scores()
        w = sparse_softmax(sp)
        np.testing.assert_allclose(w.values.sum(axis=-1), 1.0, atol=1e-6)

    def test_equivalent_to_masked_dense(self):
        dense, sp = self._sparse_scores()
        w_sparse = sparse_softmax(sp).to_dense()
        w_dense = masked_dense_softmax(dense, sp.to_mask())
        np.testing.assert_allclose(w_sparse, w_dense, atol=1e-6)

    def test_structure_preserved(self):
        _, sp = self._sparse_scores()
        w = sparse_softmax(sp)
        np.testing.assert_array_equal(w.indices, sp.indices)
        assert w.pattern == sp.pattern and w.dense_cols == sp.dense_cols

    def test_masked_sentinel_entries_get_zero_weight(self):
        dense = np.full((4, 8), -1e30, dtype=np.float32)
        dense[:, :2] = 1.0
        sp = NMSparseMatrix.from_dense(dense, PATTERN_2_4)
        w = sparse_softmax(sp)
        recon = w.to_dense()
        assert np.all(recon[:, 4:] == 0)
        np.testing.assert_allclose(recon[:, :2].sum(axis=-1), 1.0, atol=1e-6)

    def test_streaming_matches_oneshot(self):
        # the softmax is row-wise: running it over 7-row chunks, as the
        # former streaming variant did, changes no bit of the one-shot result
        _, sp = self._sparse_scores(shape=(64, 64), seed=7)
        oneshot = sparse_softmax(sp)
        chunks = [
            sparse_softmax(
                NMSparseMatrix(sp.values[i:i + 7], sp.indices[i:i + 7], sp.pattern, sp.dense_cols)
            ).values
            for i in range(0, 64, 7)
        ]
        np.testing.assert_array_equal(np.concatenate(chunks), oneshot.values)

    def test_batched(self):
        rng = np.random.default_rng(9)
        dense = rng.normal(size=(2, 3, 8, 16)).astype(np.float32)
        sp = NMSparseMatrix.from_dense(dense, PATTERN_2_4)
        w = sparse_softmax(sp)
        np.testing.assert_allclose(w.values.sum(axis=-1), 1.0, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        dtype=np.float32,
        shape=st.tuples(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=1, max_value=8).map(lambda g: g * 4),
        ),
        elements=st.floats(-50, 50, width=32),
    )
)
def test_property_sparse_softmax_rows_normalised(dense):
    sp = NMSparseMatrix.from_dense(dense, PATTERN_2_4)
    w = sparse_softmax(sp)
    np.testing.assert_allclose(w.values.sum(axis=-1), 1.0, atol=1e-5)
    assert np.all(w.values >= 0)
