"""Tests covering every baseline attention mechanism."""

import numpy as np
import pytest

import repro.baselines as B
from repro.baselines.base import MECHANISM_REGISTRY
from repro.core.attention import full_attention
from repro.registry import make_mechanism


def _qkv(batch=(2,), seq=64, d=32, seed=0, scale=0.5, peak=0.0):
    rng = np.random.default_rng(seed)
    shape = tuple(batch) + (seq, d)
    q = rng.normal(size=shape).astype(np.float32) * scale
    k = rng.normal(size=shape).astype(np.float32) * scale
    v = rng.normal(size=shape).astype(np.float32)
    if peak:
        q = q + peak * k  # sharpen the diagonal-ish structure
    return q, k, v


ALL_MECHANISMS = sorted(MECHANISM_REGISTRY)


class TestRegistry:
    def test_table4_mechanisms_present(self):
        # every row of Table 4 has an implementation
        for name in (
            "full", "local", "sparse_transformer", "longformer", "linformer",
            "reformer", "sinkhorn", "synthesizer", "bigbird", "linear_transformer",
            "performer", "dfss",
        ):
            assert name in MECHANISM_REGISTRY, name

    def test_appendix_combinations_present(self):
        for name in ("nystromformer", "nystromformer_dfss", "bigbird_dfss", "linformer_dfss"):
            assert name in MECHANISM_REGISTRY, name

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
        "name", [n for n in ALL_MECHANISMS if MECHANISM_REGISTRY[n].produces_mask]
    )
    def test_masks_have_no_empty_rows(self, name):
        q, k, v = _qkv(seq=64, d=32, seed=3)
        mask = make_mechanism(name).attention_mask(q, k)
        assert mask.dtype == bool
        assert mask.shape[-2:] == (64, 64)
        assert np.all(mask.any(axis=-1)), f"{name} produced an unattended query row"


class TestApproximationQuality:
    def test_dfss_better_than_fixed_and_synthesizer(self):
        q, k, v = _qkv(seq=128, d=64, peak=1.0, seed=5)
        err_dfss = make_mechanism("dfss", pattern="2:4").approximation_error(q, k, v)
        err_fixed = make_mechanism("fixed_truncated", density=0.5).approximation_error(q, k, v)
        err_synth = make_mechanism("synthesizer").approximation_error(q, k, v)
        assert err_dfss < err_fixed
        assert err_dfss < err_synth

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
        mech = B.SynthesizerAttention(max_len=64, seed=0)
        np.testing.assert_allclose(mech(q1, k, v), mech(q2, k, v), atol=1e-6)

    def test_synthesizer_rejects_long_sequences(self):
        q, k, v = _qkv(seq=32, d=16)
        with pytest.raises(ValueError):
            B.SynthesizerAttention(max_len=16)(q, k, v)

    def test_linformer_projection_cached_and_seeded(self):
        a = B.LinformerAttention(proj_dim=16, seed=3)
        b = B.LinformerAttention(proj_dim=16, seed=3)
        e1, f1 = a._projections(64)
        e2, f2 = b._projections(64)
        np.testing.assert_array_equal(e1, e2)
        assert a._projections(64) is a._projections(64)

    def test_reformer_mask_symmetric_for_shared_qk(self):
        q, k, _ = _qkv(seq=64, d=16, seed=4)
        mask = B.ReformerAttention(n_buckets=8, n_hashes=2, seed=0).attention_mask(q, q)
        np.testing.assert_array_equal(mask, np.swapaxes(mask, -1, -2))

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

    def test_nystromformer_kernels_are_row_stochastic(self):
        q, k, _ = _qkv(seq=64, d=16, seed=7)
        k1, k2, k3 = B.NystromformerAttention(num_landmarks=16).kernels(q, k)
        for kern in (k1, k2, k3):
            np.testing.assert_allclose(kern.sum(-1), 1.0, atol=1e-5)

    def test_newton_schulz_pinv_converges_on_well_conditioned_input(self):
        from repro.baselines.nystromformer import newton_schulz_pinv

        rng = np.random.default_rng(0)
        a = np.eye(16, dtype=np.float32) + 0.01 * rng.normal(size=(16, 16)).astype(np.float32)
        pinv = newton_schulz_pinv(a, iters=12)
        assert np.abs(a @ pinv - np.eye(16)).max() < 1e-3

    def test_bigbird_dfss_mask_subset_of_bigbird(self):
        q, k, _ = _qkv(seq=128, d=16, seed=8)
        combo = B.DfssBigBirdAttention(block_size=32, pattern="2:4", seed=0)
        block_mask = combo.bigbird.attention_mask(q, k)
        nm_mask = combo.attention_mask(q, k)
        assert np.all(~nm_mask | block_mask)  # nm_mask implies block_mask
        assert nm_mask.sum() < block_mask.sum()

    def test_linformer_dfss_matches_output_shape(self):
        q, k, v = _qkv(seq=64, d=32, seed=9)
        out = B.DfssLinformerAttention(proj_dim=32, pattern="2:4")(q, k, v)
        assert out.shape == q.shape and np.all(np.isfinite(out))
