"""Tests covering every baseline attention mechanism."""

import numpy as np
import pytest

import repro.baselines as B
from repro.baselines.reformer import lsh_bucket_ids, shared_bucket_mask
from repro.core.attention import full_attention
from repro.nn.autograd import Tensor
from repro.registry import available_mechanisms, find_spec, make_core, make_mechanism


def _qkv(batch=(2,), seq=64, d=32, seed=0, scale=0.5, peak=0.0):
    rng = np.random.default_rng(seed)
    shape = tuple(batch) + (seq, d)
    q = rng.normal(size=shape).astype(np.float32) * scale
    k = rng.normal(size=shape).astype(np.float32) * scale
    v = rng.normal(size=shape).astype(np.float32)
    if peak:
        q = q + peak * k  # sharpen the diagonal-ish structure
    return q, k, v


ALL_MECHANISMS = sorted(available_mechanisms())


def _broadcast_bucket_mask(q_ids, k_ids):
    """The Reformer mask as one broadcast comparison over every hash round."""
    mask = np.any(q_ids[..., :, None, :] == k_ids[..., None, :, :], axis=-1)
    n_q, n_k = mask.shape[-2:]
    return mask | np.eye(n_q, dtype=bool) if n_q == n_k else mask


class TestRegistry:
    def test_table4_mechanisms_present(self):
        # every row of Table 4 has an implementation
        for name in (
            "full", "local", "sparse_transformer", "longformer", "linformer",
            "reformer", "sinkhorn", "synthesizer", "bigbird", "linear_transformer",
            "performer", "dfss",
        ):
            assert name in ALL_MECHANISMS, name

    def test_appendix_combinations_present(self):
        for name in ("nystromformer", "nystromformer_dfss", "bigbird_dfss", "linformer_dfss"):
            assert name in ALL_MECHANISMS, name

    def test_make_mechanism(self):
        mech = make_mechanism("dfss", pattern="2:4")
        assert isinstance(mech, B.DfssMechanism)
        with pytest.raises(ValueError):
            make_mechanism("flash_attention")


class TestAllMechanismsForward:
    @pytest.mark.parametrize("name", ALL_MECHANISMS)
    def test_output_shape_and_finite(self, name):
        q, k, v = _qkv(seq=64, d=32)
        mech = make_mechanism(name)
        out = mech(q, k, v)
        assert out.shape == q.shape
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("name", ALL_MECHANISMS)
    def test_batched_4d_inputs(self, name):
        q, k, v = _qkv(batch=(2, 2), seq=32, d=16)
        out = make_mechanism(name)(q, k, v)
        assert out.shape == (2, 2, 32, 16)

    @pytest.mark.parametrize("name", ALL_MECHANISMS)
    def test_rejects_mismatched_inputs(self, name):
        q, k, v = _qkv(seq=32, d=16)
        mech = make_mechanism(name)
        with pytest.raises(ValueError):
            mech(q[..., :8], k, v)  # Q and K head dimensions differ

    @pytest.mark.parametrize(
        "name", [n for n in ALL_MECHANISMS if find_spec(n).produces_mask]
    )
    def test_masks_have_no_empty_rows(self, name):
        q, k, v = _qkv(seq=64, d=32, seed=3)
        mask = make_mechanism(name).attention_mask(q, k)
        assert mask.dtype == bool
        assert mask.shape[-2:] == (64, 64)
        assert np.all(mask.any(axis=-1)), f"{name} produced an unattended query row"


class TestApproximationQuality:
    def test_dfss_better_than_fixed_truncated(self):
        q, k, v = _qkv(seq=128, d=64, peak=1.0, seed=5)
        err_dfss = make_mechanism("dfss", pattern="2:4").approximation_error(q, k, v)
        err_fixed = make_mechanism("fixed_truncated", density=0.5).approximation_error(q, k, v)
        assert err_dfss < err_fixed

    def test_topk_oracle_beats_dfss_at_same_density(self):
        q, k, v = _qkv(seq=128, d=64, peak=1.0, seed=6)
        err_topk = make_mechanism("topk", density=0.5).approximation_error(q, k, v)
        err_dfss = make_mechanism("dfss", pattern="2:4").approximation_error(q, k, v)
        assert err_topk <= err_dfss + 1e-6

    def test_dfss_mask_density_is_half(self):
        q, k, _ = _qkv(seq=64, d=32)
        mask = make_mechanism("dfss", pattern="2:4").attention_mask(q, k)
        assert mask.mean() == pytest.approx(0.5)

    def test_full_attention_zero_error(self):
        q, k, v = _qkv(seq=64, d=32)
        assert make_mechanism("full").approximation_error(q, k, v) < 1e-6

    def test_nystromformer_reasonable_approximation(self):
        q, k, v = _qkv(seq=128, d=32, scale=0.5, seed=7)
        err = make_mechanism("nystromformer", num_landmarks=32).approximation_error(q, k, v)
        assert err < 0.6

    def test_performer_correlates_with_full_attention(self):
        q, k, v = _qkv(seq=128, d=32, scale=0.3, seed=8)
        out = make_mechanism("performer", num_features=256, seed=1)(q, k, v)
        ref = full_attention(q, k, v)
        corr = np.corrcoef(out.ravel(), ref.ravel())[0, 1]
        assert corr > 0.5

    def test_linear_transformer_row_convexity(self):
        # linear attention outputs are convex combinations of V rows
        q, k, v = _qkv(seq=64, d=16, seed=9)
        out = make_mechanism("linear_transformer")(q, k, v)
        assert out.min() >= v.min() - 1e-4
        assert out.max() <= v.max() + 1e-4


class TestSpecificMechanisms:
    def test_local_window_mask_shape(self):
        from repro.baselines.fixed import local_window_mask

        mask = local_window_mask(8, 8, 1)
        assert mask[0, 0] and mask[0, 1] and not mask[0, 2]
        assert mask.sum() == 8 + 2 * 7

    def test_truncated_attention_validates_density(self):
        with pytest.raises(ValueError):
            B.TruncatedAttention(density=0.0)

    def test_topk_validates_density(self):
        with pytest.raises(ValueError):
            B.ExplicitTopKAttention(density=2.0)

    def test_topk_explicit_k(self):
        q, k, _ = _qkv(seq=64, d=16)
        mask = B.ExplicitTopKAttention(k=4).attention_mask(q, k)
        np.testing.assert_array_equal(mask.sum(-1), 4)

    def test_longformer_global_tokens(self):
        q, k, _ = _qkv(seq=64, d=16)
        mask = B.LongformerAttention(window=2, num_global=2).attention_mask(q, k)
        assert np.all(mask[..., :, :2])
        assert np.all(mask[..., :2, :])

    def test_bigbird_requires_self_attention(self):
        mech = B.BigBirdAttention()
        with pytest.raises(ValueError):
            mech._mask_2d(64, 128)

    def test_synthesizer_independent_of_queries(self):
        q1, k, v = _qkv(seq=32, d=16, seed=1)
        q2, _, _ = _qkv(seq=32, d=16, seed=2)
        mech = make_mechanism("synthesizer", max_len=64, seed=0)
        np.testing.assert_allclose(mech(q1, k, v), mech(q2, k, v), atol=1e-6)

    def test_synthesizer_rejects_long_sequences(self):
        q, k, v = _qkv(seq=32, d=16)
        with pytest.raises(ValueError):
            make_mechanism("synthesizer", max_len=16)(q, k, v)

    def test_linformer_projection_cached_and_seeded(self):
        a = make_core("linformer", proj_dim=16, seed=3)
        b = make_core("linformer", proj_dim=16, seed=3)
        np.testing.assert_array_equal(a._projection(64), b._projection(64))
        assert a._projection(64).shape == (16, 64)
        assert a._projection(64) is a._projection(64)

    def test_reformer_mask_symmetric_for_shared_qk(self):
        q, k, _ = _qkv(seq=64, d=16, seed=4)
        mask = B.ReformerAttention(n_buckets=8, n_hashes=2, seed=0).attention_mask(q, q)
        np.testing.assert_array_equal(mask, np.swapaxes(mask, -1, -2))

    def test_reformer_mask_equals_the_broadcast_formula(self):
        q, k, _ = _qkv(batch=(2, 2), seq=96, d=16, seed=6)
        mech = B.ReformerAttention(n_buckets=8, n_hashes=3, seed=2)
        q_ids = lsh_bucket_ids(q, 8, 3, np.random.default_rng(2))
        k_ids = lsh_bucket_ids(k, 8, 3, np.random.default_rng(2))
        got = mech.attention_mask(q, k)
        assert got.dtype == bool and got.flags.c_contiguous
        assert got.tobytes() == _broadcast_bucket_mask(q_ids, k_ids).tobytes()

    @pytest.mark.parametrize("n_q, n_k", [(40, 40), (40, 24)])
    @pytest.mark.parametrize("n_buckets", [1, 2, 16])  # 1: every id tied
    @pytest.mark.parametrize("n_hashes", [1, 2, 4])
    def test_shared_bucket_mask_on_random_and_tied_ids(self, n_q, n_k, n_buckets, n_hashes):
        rng = np.random.default_rng(n_q + n_k + n_buckets + n_hashes)
        q_ids = rng.integers(0, n_buckets, (2, 3, n_q, n_hashes))
        k_ids = rng.integers(0, n_buckets, (2, 3, n_k, n_hashes))
        got = shared_bucket_mask(q_ids, k_ids)
        assert got.tobytes() == _broadcast_bucket_mask(q_ids, k_ids).tobytes()

    def test_reformer_mask_peaks_at_two_masks(self):
        import tracemalloc

        # B1·H2·L1024: the (…, n, n, n_hashes) comparison of the broadcast
        # formula alone is twice the mask; OR-ing one round at a time holds
        # the mask and one comparison, plus the small LSH arrays
        q, k, _ = _qkv(batch=(1, 2), seq=1024, d=64, seed=7)
        mech = B.ReformerAttention(n_buckets=16, n_hashes=2, seed=0)
        tracemalloc.start()
        try:
            mask = mech.attention_mask(q, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * mask.nbytes + (1 << 20)

    @pytest.mark.parametrize("d", [16, 32, 64])
    def test_topk_mask_equals_the_float64_loop_mask(self, d):
        from repro.core.lottery import topk_mask
        from repro.core.precision import simulate_tensor_core_matmul

        q, k, _ = _qkv(batch=(1, 2), seq=160, d=d, seed=d)
        scores = simulate_tensor_core_matmul(q, np.swapaxes(k, -1, -2))
        loop = scores.copy()
        np.multiply(loop, 1.0 / np.sqrt(d), out=loop, casting="same_kind")
        got = B.ExplicitTopKAttention(density=0.1).attention_mask(q, k)
        assert got.tobytes() == topk_mask(loop, 0.1).tobytes()

    def test_routing_clusters_partition_rows(self):
        q, k, _ = _qkv(seq=64, d=16, seed=5)
        mask = B.RoutingTransformerAttention(n_clusters=4, seed=0).attention_mask(q, k)
        # each query attends to at least itself and typically a cluster subset
        assert mask.any(-1).all()
        assert mask.mean() < 0.9

    def test_sinkhorn_block_size_fallback(self):
        mech = B.SinkhornAttention(block_size=32)
        assert mech._block_size_for(48) == 16  # falls back to a divisor

    def test_sinkhorn_mask_covers_diagonal_blocks(self):
        q, k, _ = _qkv(seq=64, d=16, seed=6)
        mask = B.SinkhornAttention(block_size=16).attention_mask(q, k)
        for b in range(4):
            assert np.all(mask[..., b * 16 : (b + 1) * 16, b * 16 : (b + 1) * 16])

    @pytest.mark.parametrize("name, seq", [
        ("nystromformer", 64), ("nystromformer", 130), ("nystromformer_dfss", 130),
    ])
    def test_nystromformer_kernels_are_row_stochastic(self, name, seq):
        q, k, _ = _qkv(seq=seq, d=16, seed=7)
        core = make_core(name, num_landmarks=16)
        for kern in core.kernels(Tensor(q), Tensor(k)):
            np.testing.assert_allclose(kern.data.sum(-1), 1.0, atol=1e-5)

    def test_newton_schulz_pinv_converges_on_well_conditioned_input(self):
        rng = np.random.default_rng(0)
        a = np.eye(16, dtype=np.float32) + 0.01 * rng.normal(size=(16, 16)).astype(np.float32)
        pinv = make_core("nystromformer", pinv_iters=12)._pinv(Tensor(a)).data
        assert np.abs(a @ pinv - np.eye(16)).max() < 1e-3

    def test_bigbird_dfss_mask_subset_of_bigbird(self):
        q, k, _ = _qkv(seq=128, d=16, seed=8)
        combo = B.DfssBigBirdAttention(block_size=32, pattern="2:4", seed=0)
        block_mask = combo.bigbird.attention_mask(q, k)
        nm_mask = combo.attention_mask(q, k)
        assert np.all(~nm_mask | block_mask)  # nm_mask implies block_mask
        assert nm_mask.sum() < block_mask.sum()

    def test_ablation_hybrid_is_the_blocked_ell_sliding_window(self):
        # the hybrid of benchmarks/bench_ablations.py (HYBRID_WINDOW): BigBird
        # + DFSS without global or random blocks lays out the blocked-ELL
        # sliding window the ablation measured with a block mask before
        from repro.core.blocked_ell import sliding_window_mask

        combo = make_mechanism(
            "bigbird_dfss", pattern="2:4", block_size=128, window_blocks=1,
            num_global_blocks=0, num_random_blocks=0,
        )
        expected = sliding_window_mask(512, 128, 1).dense_mask(512, 512)
        np.testing.assert_array_equal(combo.bigbird._mask_2d(512, 512), expected)
        np.testing.assert_array_equal(
            combo.bigbird.cached_structure(512, 512).to_mask(), expected
        )

    def test_linformer_dfss_matches_output_shape(self):
        q, k, v = _qkv(seq=64, d=32, seed=9)
        out = make_mechanism("linformer_dfss", proj_dim=32, pattern="2:4")(q, k, v)
        assert out.shape == q.shape and np.all(np.isfinite(out))


def _dfss_dense(a, b, c, pattern):
    """Dense oracle of one DFSS attention: the masked softmax of ``a bᵀ``
    under the DFSS keep-mask, times ``c``."""
    from repro.baselines.dfss import DfssMechanism
    from repro.core.sddmm import sddmm_dense
    from repro.core.softmax import masked_dense_softmax

    mask = DfssMechanism(pattern).attention_mask(a, b)
    return masked_dense_softmax(sddmm_dense(a, b), mask) @ c


def nm_keep_loop(scores, pattern):
    """The N:M keep-mask by a loop over the M-groups of the last axis: the N
    largest scores of each group (every score of a last group of N or
    fewer), ties to the lower index."""
    from repro.core.patterns import resolve_pattern

    pattern = resolve_pattern(pattern)
    mask = np.zeros(scores.shape, dtype=bool)
    for g0 in range(0, scores.shape[-1], pattern.m):
        order = np.argsort(-scores[..., g0:g0 + pattern.m], axis=-1, kind="stable")
        np.put_along_axis(mask[..., g0:g0 + pattern.m], order[..., :pattern.n], True, axis=-1)
    return mask


def _float32_dfss_dense(a, b, c, pattern):
    """:func:`_dfss_dense` on float32 scores, as the trainable cores score."""
    from repro.core.softmax import masked_dense_softmax

    scores = (a @ np.swapaxes(b, -1, -2)) * (1.0 / np.sqrt(a.shape[-1]))
    return masked_dense_softmax(scores, nm_keep_loop(scores, pattern)) @ c


class TestDfssCombosAnyKeyLength:
    """The DFSS combos accept every key length dense attention does, and
    match the same formula with a dense masked softmax."""

    CASES = [(130, 130, "2:4"), (129, 129, "1:2"), (130, 90, "2:4")]

    @pytest.mark.parametrize("n_q,n_k,pattern", CASES)
    def test_nystromformer_dfss_matches_dense_oracle(self, n_q, n_k, pattern):
        from repro.core.softmax import dense_softmax

        q, _, _ = _qkv(batch=(1, 2), seq=n_q, d=32, seed=21)
        _, k, v = _qkv(batch=(1, 2), seq=n_k, d=32, seed=22)
        mech = make_mechanism("nystromformer_dfss", pattern=pattern)
        core = mech.core
        q_land, k_land = (core._landmarks(Tensor(x)).data for x in (q, k))
        kernel2 = dense_softmax(q_land @ np.swapaxes(k_land, -1, -2) / np.sqrt(32))
        pinv = core._pinv(Tensor(kernel2)).data
        expected = _float32_dfss_dense(
            q, k_land, pinv @ _float32_dfss_dense(q_land, k, v, pattern), pattern
        )
        np.testing.assert_allclose(mech(q, k, v), expected, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize(
        "n_q,n_k,pattern,proj_dim", [c + (64,) for c in CASES] + [(130, 130, "2:4", 30)]
    )
    def test_linformer_dfss_matches_dense_oracle(self, n_q, n_k, pattern, proj_dim):
        q, _, _ = _qkv(batch=(1, 2), seq=n_q, d=32, seed=22)
        _, k, v = _qkv(batch=(1, 2), seq=n_k, d=32, seed=23)
        mech = make_mechanism("linformer_dfss", pattern=pattern, proj_dim=proj_dim)
        e = mech.core._projection(n_k)
        expected = _dfss_dense(q, e @ k, e @ v, pattern)
        np.testing.assert_allclose(mech(q, k, v), expected, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("mechanism", ["nystromformer_dfss", "linformer_dfss"])
    def test_facade_accepts_a_length_that_is_not_a_multiple_of_m(self, mechanism):
        import repro

        q, k, v = _qkv(batch=(1, 2), seq=130, d=32, seed=23)
        out = repro.attention(q, k, v, mechanism=mechanism, pattern="2:4")
        np.testing.assert_array_equal(
            out, make_mechanism(mechanism, pattern="2:4")(q, k, v)
        )
