"""Tests for the N:M sparse x dense multiply (SpMM)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import PATTERN_1_2, PATTERN_2_4
from repro.core.softmax import sparse_softmax
from repro.core.sparse import NMSparseMatrix
from repro.core.spmm import spmm


def _dense_product(weights, v):
    """The semantics SpMM must reproduce: densify, then matmul."""
    return np.matmul(weights.to_dense(0.0), v)


def _weights_and_v(shape=(16, 32), d_v=24, pattern=PATTERN_2_4, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=shape).astype(np.float32)
    sp = sparse_softmax(NMSparseMatrix.from_dense(dense, pattern))
    v = rng.normal(size=shape[:-2] + (shape[-1], d_v)).astype(np.float32)
    return sp, v


class TestSpmm:
    @pytest.mark.parametrize("pattern", [PATTERN_1_2, PATTERN_2_4])
    def test_matches_dense_reference(self, pattern):
        sp, v = _weights_and_v(pattern=pattern)
        np.testing.assert_allclose(spmm(sp, v), _dense_product(sp, v), atol=1e-5)

    def test_batched(self):
        sp, v = _weights_and_v(shape=(2, 3, 8, 16), d_v=8)
        out = spmm(sp, v)
        assert out.shape == (2, 3, 8, 8)
        np.testing.assert_allclose(out, _dense_product(sp, v), atol=1e-5)

    def test_rejects_wrong_v_rows(self):
        sp, v = _weights_and_v()
        with pytest.raises(ValueError):
            spmm(sp, v[..., :-4, :])

    def test_rejects_wrong_batch(self):
        sp, _ = _weights_and_v(shape=(2, 8, 16), d_v=8)
        rng = np.random.default_rng(0)
        v_bad = rng.normal(size=(3, 16, 8)).astype(np.float32)
        with pytest.raises(ValueError):
            spmm(sp, v_bad)

    def test_identity_like_behaviour(self):
        # weight matrix with a single 1.0 per row picks out one row of V
        n = 8
        dense = np.zeros((n, n), dtype=np.float32)
        for i in range(n):
            dense[i, (i * 2) % n] = 1.0
        sp = NMSparseMatrix.from_dense(dense, PATTERN_2_4)
        v = np.arange(n * 4, dtype=np.float32).reshape(n, 4)
        out = spmm(sp, v)
        for i in range(n):
            np.testing.assert_allclose(out[i], v[(i * 2) % n])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=16),
    st.sampled_from(["1:2", "2:4"]),
    st.integers(min_value=0, max_value=9999),
)
def test_property_spmm_equals_dense_matmul(rows, groups, d_v, pattern, seed):
    from repro.core.patterns import resolve_pattern

    pat = resolve_pattern(pattern)
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(rows, groups * pat.m)).astype(np.float32)
    sp = NMSparseMatrix.from_dense(dense, pat)
    v = rng.normal(size=(groups * pat.m, d_v)).astype(np.float32)
    np.testing.assert_allclose(spmm(sp, v), sp.to_dense() @ v, atol=1e-4)
