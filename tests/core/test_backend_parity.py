"""Parity tests: the fast backend must reproduce the reference backend.

Inputs are drawn from a coarse integer lattice (values ``j/8`` with small
``j``) so every intermediate product and partial sum is exactly representable
in float32: scores computed by the tiled reference kernel and the batched
fast kernel are then bit-identical, which makes the N:M *selections* (not
just the values) deterministic and exactly comparable — including genuine
ties inside a group, where both backends must keep the lower index.
"""

import numpy as np
import pytest

from repro.core.attention import dfss_attention
from repro.core.backend import FAST, REFERENCE
from repro.core.blocked_ell import sliding_window_mask
from repro.core.plan import plan_for_nm
from repro.core.pruning import (
    nm_compress,
    nm_compress_fast,
    nm_prune_mask,
    nm_prune_mask_fast,
)
from repro.core.sddmm import sddmm_nm
from repro.core.softmax import sparse_softmax
from repro.core.spmm import spmm

PATTERNS = ["1:2", "2:4"]
#: Leading batch shapes, deliberately ragged: scalar, flat, nested, odd sizes.
BATCH_SHAPES = [(), (1,), (3,), (2, 3), (5,)]


def _lattice(shape, seed=0, denom=8, span=16):
    rng = np.random.default_rng(seed)
    return (rng.integers(-span, span + 1, size=shape) / denom).astype(np.float32)


def _qkv(batch, seq=64, d=32, seed=0):
    shape = tuple(batch) + (seq, d)
    return (
        _lattice(shape, seed=seed),
        _lattice(shape, seed=seed + 1),
        _lattice(shape, seed=seed + 2),
    )


class TestCompressFast:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("criterion", ["value", "magnitude"])
    def test_bitwise_equal_including_ties(self, pattern, criterion):
        # a tiny lattice guarantees many exact ties within groups
        x = _lattice((7, 9, 24), seed=3, denom=2, span=3)
        ref_vals, ref_idx = nm_compress(x, pattern, criterion)
        fast_vals, fast_idx = nm_compress_fast(x, pattern, criterion)
        np.testing.assert_array_equal(ref_idx, fast_idx)
        np.testing.assert_array_equal(ref_vals, fast_vals)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_sentinel_and_infinite_scores(self, pattern):
        x = _lattice((4, 8, 16), seed=5)
        x[0, 0, :4] = -1e30  # blocked-ELL sentinel
        x[1, 2, 0] = np.inf
        x[2, 3, 4:6] = -np.inf
        ref_vals, ref_idx = nm_compress(x, pattern)
        fast_vals, fast_idx = nm_compress_fast(x, pattern)
        np.testing.assert_array_equal(ref_idx, fast_idx)
        np.testing.assert_array_equal(ref_vals, fast_vals)

    def test_generic_pattern_falls_back(self):
        x = _lattice((5, 12), seed=7)
        ref = nm_compress(x, "2:6")
        fast = nm_compress_fast(x, "2:6")
        np.testing.assert_array_equal(ref[0], fast[0])
        np.testing.assert_array_equal(ref[1], fast[1])

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_prune_mask_fast_matches(self, pattern):
        x = _lattice((3, 6, 32), seed=9, denom=2, span=3)
        np.testing.assert_array_equal(
            nm_prune_mask(x, pattern), nm_prune_mask_fast(x, pattern)
        )


class TestSddmmParity:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_backends_bitwise_equal(self, pattern, batch):
        q, k, _ = _qkv(batch)
        ref = sddmm_nm(q, k, pattern=pattern, backend=REFERENCE)
        fast = sddmm_nm(q, k, pattern=pattern, backend=FAST)
        assert ref.dense_shape == fast.dense_shape
        np.testing.assert_array_equal(ref.indices, fast.indices)
        np.testing.assert_array_equal(ref.values, fast.values)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_ragged_seq_smaller_than_tile(self, pattern):
        # L=96 < the reference kernel's 128-wide tiles, L % 4 == 0
        q, k, _ = _qkv((2,), seq=96, d=24, seed=11)
        ref = sddmm_nm(q, k, pattern=pattern, backend=REFERENCE)
        fast = sddmm_nm(q, k, pattern=pattern, backend=FAST)
        np.testing.assert_array_equal(ref.indices, fast.indices)
        np.testing.assert_array_equal(ref.values, fast.values)

    def test_block_mask_parity(self):
        q, k, _ = _qkv((2,), seq=64, d=16, seed=13)
        mask = sliding_window_mask(64, block_size=16, window_blocks=1)
        ref = sddmm_nm(q, k, pattern="2:4", block_mask=mask, backend=REFERENCE)
        fast = sddmm_nm(q, k, pattern="2:4", block_mask=mask, backend=FAST)
        np.testing.assert_array_equal(ref.indices, fast.indices)
        np.testing.assert_array_equal(ref.values, fast.values)

    def test_magnitude_criterion_parity(self):
        q, k, _ = _qkv((3,), seq=32, d=16, seed=17)
        ref = sddmm_nm(q, k, pattern="2:4", criterion="magnitude", backend=REFERENCE)
        fast = sddmm_nm(q, k, pattern="2:4", criterion="magnitude", backend=FAST)
        np.testing.assert_array_equal(ref.indices, fast.indices)


class TestSoftmaxSpmmParity:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_masked_softmax_backends_agree(self, pattern, batch):
        q, k, _ = _qkv(batch, seed=19)
        scores = sddmm_nm(q, k, pattern=pattern)
        ref = sparse_softmax(scores, backend=REFERENCE)
        fast = sparse_softmax(scores, backend=FAST)
        np.testing.assert_allclose(fast.values, ref.values, atol=1e-7)
        np.testing.assert_array_equal(fast.indices, ref.indices)

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_spmm_backends_agree(self, pattern, batch):
        q, k, v = _qkv(batch, seed=23)
        weights = sparse_softmax(sddmm_nm(q, k, pattern=pattern))
        ref = spmm(weights, v, backend=REFERENCE)
        fast = spmm(weights, v, backend=FAST)
        np.testing.assert_allclose(fast, ref, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_plan_softmax_contract_matches_unfused(self, pattern):
        # both plans' probs -> contract stages against the standalone kernels
        q, k, v = _qkv((2, 3), seed=29)
        scores = sddmm_nm(q, k, pattern=pattern)
        unfused = spmm(sparse_softmax(scores), v)
        for backend in (REFERENCE, FAST):
            plan = plan_for_nm(pattern, q.shape[-2], k.shape[-2], backend=backend)
            probs = plan.compute_probs(scores, owned=False)
            np.testing.assert_allclose(
                plan.contract(probs, v), unfused, rtol=1e-5, atol=1e-6,
                err_msg=backend,
            )

    def test_fused_with_fully_masked_rows(self):
        # a zero-window block mask leaves most score groups entirely at the
        # sentinel; both backends' plans must agree on them
        q, k, v = _qkv((), seq=64, d=16, seed=31)
        mask = sliding_window_mask(64, block_size=16, window_blocks=0)
        ref = dfss_attention(q, k, v, pattern="2:4", block_mask=mask, backend=REFERENCE)
        fast = dfss_attention(q, k, v, pattern="2:4", block_mask=mask, backend=FAST)
        np.testing.assert_allclose(fast, ref, atol=1e-6)


class TestEndToEndParity:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("batch", [(), (2,), (2, 3)])
    def test_dfss_attention_backends_agree(self, pattern, batch):
        q, k, v = _qkv(batch, seed=37)
        ref = dfss_attention(q, k, v, pattern=pattern, backend=REFERENCE)
        fast = dfss_attention(q, k, v, pattern=pattern, backend=FAST)
        np.testing.assert_allclose(fast, ref, rtol=1e-5, atol=1e-6)

    def test_return_weights_path(self):
        q, k, v = _qkv((2,), seed=41)
        out_ref, w_ref = dfss_attention(q, k, v, pattern="2:4", return_weights=True,
                                        backend=REFERENCE)
        out_fast, w_fast = dfss_attention(q, k, v, pattern="2:4", return_weights=True,
                                          backend=FAST)
        np.testing.assert_array_equal(w_ref.indices, w_fast.indices)
        np.testing.assert_allclose(w_ref.values, w_fast.values, atol=1e-7)
        np.testing.assert_allclose(out_ref, out_fast, rtol=1e-5, atol=1e-6)

    def test_env_var_dispatch_end_to_end(self, monkeypatch):
        from repro.core import backend as backend_mod

        q, k, v = _qkv((2,), seed=43)
        monkeypatch.setenv(backend_mod.ENV_VAR, "reference")
        via_env = dfss_attention(q, k, v, pattern="2:4")
        monkeypatch.delenv(backend_mod.ENV_VAR)
        explicit = dfss_attention(q, k, v, pattern="2:4", backend=REFERENCE)
        np.testing.assert_array_equal(via_env, explicit)
