"""Tests for the public attention API (full_attention / dfss_attention / DfssAttention)."""

import numpy as np

from repro.core.attention import (
    DfssAttention,
    attention_weight_matrices,
    dfss_attention,
    full_attention,
)
from repro.core.blocked_ell import sliding_window_mask
from repro.core.row_block import RowBlockStructure
from repro.core.patterns import PATTERN_1_2, PATTERN_2_4
from repro.core.softmax import masked_dense_softmax
from repro.core.pruning import nm_prune_mask
from repro.core.sddmm import sddmm_dense


def _qkv(batch=(2, 4), seq=64, d=32, seed=0):
    rng = np.random.default_rng(seed)
    shape = tuple(batch) + (seq, d)
    return (
        rng.normal(size=shape).astype(np.float32),
        rng.normal(size=shape).astype(np.float32),
        rng.normal(size=shape).astype(np.float32),
    )


class TestFullAttention:
    def test_output_shape(self):
        q, k, v = _qkv()
        assert full_attention(q, k, v).shape == q.shape

    def test_weights_rows_sum_to_one(self):
        q, k, v = _qkv(batch=())
        _, w = full_attention(q, k, v, return_weights=True)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-5)

    def test_uniform_keys_give_mean_of_v(self):
        # identical keys -> uniform attention -> output is the mean of V rows
        rng = np.random.default_rng(1)
        q = rng.normal(size=(8, 16)).astype(np.float32)
        k = np.ones((8, 16), dtype=np.float32)
        v = rng.normal(size=(8, 16)).astype(np.float32)
        out = full_attention(q, k, v)
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (8, 1)), atol=1e-4)

    def test_mask_argument(self):
        q, k, v = _qkv(batch=())
        mask = np.tril(np.ones((64, 64), dtype=bool))
        out, w = full_attention(q, k, v, mask=mask, return_weights=True)
        assert np.all(w[~mask] == 0)


class TestDfssAttention:
    def test_output_shape(self):
        q, k, v = _qkv()
        assert dfss_attention(q, k, v, pattern="2:4").shape == q.shape

    def test_equivalent_to_masked_full_attention(self):
        # DFSS == full attention computed over the pruned score matrix
        q, k, v = _qkv(batch=(), seq=32, d=16)
        scores = sddmm_dense(q, k)
        mask = nm_prune_mask(scores, PATTERN_2_4)
        expected = masked_dense_softmax(scores, mask) @ v
        out = dfss_attention(q, k, v, pattern="2:4")
        np.testing.assert_allclose(out, expected, atol=1e-5)

    def test_peaked_attention_exact(self):
        # when attention is sharply peaked, dropping the N:M losers changes nothing
        n, d = 16, 16
        q = np.eye(n, d, dtype=np.float32) * 30.0
        k = np.eye(n, d, dtype=np.float32) * 30.0
        rng = np.random.default_rng(2)
        v = rng.normal(size=(n, d)).astype(np.float32)
        out_full = full_attention(q, k, v)
        out_dfss = dfss_attention(q, k, v, pattern="2:4")
        np.testing.assert_allclose(out_dfss, out_full, atol=1e-3)

    def test_better_than_random_mask(self):
        # DFSS keeps the largest scores, so it approximates full attention better
        # than dropping the same number of entries at random.
        q, k, v = _qkv(batch=(), seq=128, d=64, seed=5)
        ref = full_attention(q, k, v)
        dfss = dfss_attention(q, k, v, pattern="2:4")
        rng = np.random.default_rng(0)
        scores = sddmm_dense(q, k)
        rand_scores = rng.normal(size=scores.shape).astype(np.float32)
        rand_mask = nm_prune_mask(rand_scores, PATTERN_2_4)
        rand_out = masked_dense_softmax(scores, rand_mask) @ v
        err_dfss = np.linalg.norm(dfss - ref)
        err_rand = np.linalg.norm(rand_out - ref)
        assert err_dfss < err_rand

    def test_1_2_and_2_4_patterns_differ(self):
        q, k, v = _qkv(batch=(), seq=32, d=16, seed=3)
        a = dfss_attention(q, k, v, pattern="1:2")
        b = dfss_attention(q, k, v, pattern="2:4")
        assert not np.allclose(a, b)

    def test_return_weights_structure(self):
        q, k, v = _qkv(batch=(), seq=32, d=16)
        out, w = dfss_attention(q, k, v, pattern="2:4", return_weights=True)
        assert w.dense_shape == (32, 32)
        np.testing.assert_allclose(w.values.sum(axis=-1), 1.0, atol=1e-5)

    def test_structure_combination(self):
        q, k, v = _qkv(batch=(), seq=64, d=16)
        mask = sliding_window_mask(64, block_size=16, window_blocks=1)
        structure = RowBlockStructure.from_mask(mask.dense_mask(64, 64))
        out = dfss_attention(q, k, v, pattern="2:4", structure=structure)
        assert out.shape == (64, 16)
        assert np.all(np.isfinite(out))


class TestDfssAttentionObject:
    def test_callable_and_shape(self):
        attn = DfssAttention(pattern="2:4", dtype="bfloat16")
        q, k, v = _qkv(batch=(2, 2), seq=32, d=16)
        assert attn(q, k, v).shape == q.shape

    def test_default_pattern_from_dtype(self):
        assert DfssAttention(dtype="float32").pattern == PATTERN_1_2
        assert DfssAttention(dtype="bfloat16").pattern == PATTERN_2_4

    def test_approximation_error_small_for_peaked(self):
        n, d = 32, 32
        q = np.eye(n, d, dtype=np.float32) * 20.0
        attn = DfssAttention(pattern="2:4")
        rng = np.random.default_rng(0)
        v = rng.normal(size=(n, d)).astype(np.float32)
        assert attn.approximation_error(q, q, v) < 1e-3

    def test_approximation_error_bounded_for_random(self):
        q, k, v = _qkv(batch=(), seq=128, d=64)
        err = DfssAttention(pattern="2:4").approximation_error(q, k, v)
        assert 0.0 <= err < 1.0


class TestAttentionWeightMatrices:
    def test_shapes_and_sparsity(self):
        q, k, v = _qkv(batch=(), seq=32, d=16)
        full_w, dfss_w = attention_weight_matrices(q, k, v, pattern="2:4")
        assert full_w.shape == dfss_w.shape == (32, 32)
        # DFSS keeps exactly half the entries
        assert (dfss_w > 0).mean() <= 0.5 + 1e-6
        # rows of both sum to one
        np.testing.assert_allclose(full_w.sum(-1), 1.0, atol=1e-5)
        np.testing.assert_allclose(dfss_w.sum(-1), 1.0, atol=1e-5)

    def test_dfss_weights_upper_bound_full(self):
        # surviving DFSS weights are >= the corresponding full-attention weights
        # (same numerator, smaller denominator after pruning)
        q, k, v = _qkv(batch=(), seq=32, d=16, seed=9)
        full_w, dfss_w = attention_weight_matrices(q, k, v, pattern="2:4")
        kept = dfss_w > 0
        assert np.all(dfss_w[kept] >= full_w[kept] - 1e-6)
