"""Parity tests: the fast backend must reproduce the reference backend.

Inputs are drawn from a coarse integer lattice (values ``j/8`` with small
``j``) so every intermediate product and partial sum is exactly representable
in float32, which makes the N:M *selections* (not just the values)
deterministic and exactly comparable — including genuine ties inside a
group, where the selection network must keep the lower index as the
argsort reference does.
"""

import numpy as np
import pytest

from repro.core.attention import dfss_attention
from repro.core.backend import FAST, REFERENCE, get_kernel
from repro.core.blocked_ell import sliding_window_mask
from repro.core.row_block import RowBlockStructure
from repro.core.patterns import resolve_pattern
from repro.core.plan import plan_for_nm
from repro.core.pruning import (
    nm_compress,
    nm_compress_lanes,
    nm_keep_lanes,
    nm_prune_mask,
    nm_prune_mask_fast,
)
from repro.core.sddmm import sddmm_nm
from repro.core.softmax import masked_dense_softmax, sparse_softmax
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


def _compress_lanes(x, pattern, criterion="value"):
    """``nm_compress`` through the selection network: split ``x``'s groups
    into lane arrays, keep by :func:`nm_keep_lanes`, compress the lanes."""
    pattern = resolve_pattern(pattern)
    groups = x.reshape(x.shape[:-1] + (x.shape[-1] // pattern.m, pattern.m))
    lanes = tuple(np.ascontiguousarray(groups[..., i]) for i in range(pattern.m))
    return nm_compress_lanes(lanes, nm_keep_lanes(lanes, pattern, criterion), pattern)


class TestCompressFast:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("criterion", ["value", "magnitude"])
    def test_bitwise_equal_including_ties(self, pattern, criterion):
        # a tiny lattice guarantees many exact ties within groups
        x = _lattice((7, 9, 24), seed=3, denom=2, span=3)
        ref_vals, ref_idx = nm_compress(x, pattern, criterion)
        fast_vals, fast_idx = _compress_lanes(x, pattern, criterion)
        np.testing.assert_array_equal(ref_idx, fast_idx)
        np.testing.assert_array_equal(ref_vals, fast_vals)
        np.testing.assert_array_equal(
            nm_prune_mask(x, pattern, criterion), nm_prune_mask_fast(x, pattern, criterion)
        )

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_sentinel_and_infinite_scores(self, pattern):
        x = _lattice((4, 8, 16), seed=5)
        x[0, 0, :4] = -1e30  # blocked-ELL sentinel
        x[1, 2, 0] = np.inf
        x[2, 3, 4:6] = -np.inf
        ref_vals, ref_idx = nm_compress(x, pattern)
        fast_vals, fast_idx = _compress_lanes(x, pattern)
        np.testing.assert_array_equal(ref_idx, fast_idx)
        np.testing.assert_array_equal(ref_vals, fast_vals)
        np.testing.assert_array_equal(nm_prune_mask(x, pattern), nm_prune_mask_fast(x, pattern))

    def test_generic_pattern_falls_back(self):
        x = _lattice((5, 12), seed=7)
        ref = nm_compress(x, "2:6")
        fast = _compress_lanes(x, "2:6")
        np.testing.assert_array_equal(ref[0], fast[0])
        np.testing.assert_array_equal(ref[1], fast[1])
        np.testing.assert_array_equal(nm_prune_mask(x, "2:6"), nm_prune_mask_fast(x, "2:6"))

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_prune_mask_fast_matches(self, pattern):
        x = _lattice((3, 6, 32), seed=9, denom=2, span=3)
        np.testing.assert_array_equal(
            nm_prune_mask(x, pattern), nm_prune_mask_fast(x, pattern)
        )


def _assert_selects_as_sddmm(q, k, v, pattern, **kwargs):
    """The fused fast forward keeps exactly the entries the ``sddmm_nm``
    oracle keeps, and its probabilities are the oracle scores' softmax."""
    scores = sddmm_nm(q, k, pattern=pattern, **kwargs)
    _, probs = get_kernel("nm_attention", FAST)(
        q, k, v, pattern=pattern, return_probs=True, **kwargs
    )
    assert probs.dense_shape == scores.dense_shape
    np.testing.assert_array_equal(probs.indices, scores.indices)
    np.testing.assert_allclose(
        probs.values, sparse_softmax(scores).values, rtol=1e-5, atol=1e-6
    )


class TestSddmmParity:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_backends_bitwise_equal(self, pattern, batch):
        q, k, v = _qkv(batch)
        _assert_selects_as_sddmm(q, k, v, pattern)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_ragged_seq_smaller_than_tile(self, pattern):
        # L=96 < the oracle's 128-wide tiles, L % 4 == 0
        q, k, v = _qkv((2,), seq=96, d=24, seed=11)
        _assert_selects_as_sddmm(q, k, v, pattern)

    def test_structure_parity(self):
        # the fused forward over a structure keeps the entries the sddmm_nm
        # oracle keeps under the structure's mask, wherever that is allowed
        q, k, v = _qkv((2,), seq=64, d=16, seed=13)
        allowed = sliding_window_mask(64, block_size=16, window_blocks=1).dense_mask(64, 64)
        scores = sddmm_nm(q, k, pattern="2:4", mask=allowed)
        _, stats = get_kernel("nm_attention", FAST)(
            q, k, v, pattern="2:4", structure=RowBlockStructure.from_mask(allowed),
            return_stats=True,
        )
        np.testing.assert_array_equal(stats.to_mask(), scores.to_mask() & allowed)

    def test_magnitude_criterion_parity(self):
        q, k, v = _qkv((3,), seq=32, d=16, seed=17)
        _assert_selects_as_sddmm(q, k, v, "2:4", criterion="magnitude")


class TestSoftmaxSpmmParity:
    # the staged softmax and SpMM are the oracle of the fused kernels; each
    # is checked against dense masked math over every batch shape
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_sparse_softmax_matches_masked_dense(self, pattern, batch):
        q, k, _ = _qkv(batch, seed=19)
        scores = sddmm_nm(q, k, pattern=pattern)
        probs = sparse_softmax(scores)
        np.testing.assert_array_equal(probs.indices, scores.indices)
        expected = masked_dense_softmax(scores.to_dense(0.0), scores.to_mask())
        np.testing.assert_allclose(probs.to_dense(0.0), expected, atol=1e-6)

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_spmm_matches_dense_matmul(self, pattern, batch):
        q, k, v = _qkv(batch, seed=23)
        weights = sparse_softmax(sddmm_nm(q, k, pattern=pattern))
        np.testing.assert_allclose(
            spmm(weights, v), weights.to_dense(0.0) @ v, rtol=1e-5, atol=1e-6
        )

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_plan_softmax_contract_matches_unfused(self, pattern):
        # both backends' N:M plans against the standalone staged kernels
        q, k, v = _qkv((2, 3), seed=29)
        scores = sddmm_nm(q, k, pattern=pattern)
        unfused = spmm(sparse_softmax(scores), v)
        for backend in (REFERENCE, FAST):
            plan = plan_for_nm(pattern, q.shape[-2], k.shape[-2], backend=backend)
            np.testing.assert_allclose(
                plan.forward(q, k, v), unfused, rtol=1e-5, atol=1e-6,
                err_msg=backend,
            )

    def test_fused_with_fully_masked_rows(self):
        # a zero-window structure leaves most score groups unscored in the
        # fast tiles and entirely at the sentinel in the reference chain;
        # both backends' plans must agree on them
        q, k, v = _qkv((), seq=64, d=16, seed=31)
        mask = sliding_window_mask(64, block_size=16, window_blocks=0)
        structure = RowBlockStructure.from_mask(mask.dense_mask(64, 64))
        ref = dfss_attention(q, k, v, pattern="2:4", structure=structure, backend=REFERENCE)
        fast = dfss_attention(q, k, v, pattern="2:4", structure=structure, backend=FAST)
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
