"""Parity tests for the backward-pass kernels of the sparse attention op.

Like ``test_backend_parity``, inputs are drawn from coarse lattices so every
intermediate is exactly representable in float32 and the reference and fast
backends are exactly (or near-bitwise) comparable, ties included.
"""

import numpy as np
import pytest

from repro.core.attention_grad import masked_attention_bwd, softmax_grad_compressed
from repro.core.backend import FAST, REFERENCE
from repro.core.sddmm import sddmm_masked, sddmm_nm
from repro.core.softmax import sparse_softmax
from repro.core.spmm import spmm_t

PATTERNS = ["1:2", "2:4"]
BATCH_SHAPES = [(), (3,), (2, 3)]


def _lattice(shape, seed=0, denom=8, span=16):
    rng = np.random.default_rng(seed)
    return (rng.integers(-span, span + 1, size=shape) / denom).astype(np.float32)


def _problem(batch, seq=64, d=32, pattern="2:4", seed=0):
    shape = tuple(batch) + (seq, d)
    q = _lattice(shape, seed=seed)
    k = _lattice(shape, seed=seed + 1)
    v = _lattice(shape, seed=seed + 2)
    g = _lattice(shape, seed=seed + 3)
    probs = sparse_softmax(sddmm_nm(q, k, pattern=pattern))
    return q, k, v, g, probs


class TestSpmmT:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_backends_agree(self, pattern, batch):
        _, _, _, g, probs = _problem(batch, pattern=pattern)
        ref = spmm_t(probs, g, backend=REFERENCE)
        fast = spmm_t(probs, g, backend=FAST)
        np.testing.assert_allclose(fast, ref, rtol=1e-5, atol=1e-6)

    def test_matches_dense_transpose(self):
        _, _, _, g, probs = _problem((2,), pattern="2:4", seed=5)
        dense = probs.to_dense(0.0)
        expected = np.matmul(np.swapaxes(dense, -1, -2), g)
        for backend in (REFERENCE, FAST):
            np.testing.assert_allclose(
                spmm_t(probs, g, backend=backend), expected, rtol=1e-5, atol=1e-6
            )

    def test_shape_validation(self):
        _, _, _, g, probs = _problem((2,), pattern="2:4")
        with pytest.raises(ValueError, match="rows"):
            spmm_t(probs, g[..., :-1, :])


class TestSddmmMasked:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_backends_agree(self, pattern, batch):
        _, _, v, g, probs = _problem(batch, pattern=pattern, seed=7)
        ref = sddmm_masked(g, v, probs, backend=REFERENCE)
        fast = sddmm_masked(g, v, probs, backend=FAST)
        np.testing.assert_array_equal(ref.indices, fast.indices)
        np.testing.assert_allclose(fast.values, ref.values, rtol=1e-5, atol=1e-6)

    def test_matches_dense_restriction(self):
        _, _, v, g, probs = _problem((3,), pattern="1:2", seed=9)
        dense = np.matmul(g, np.swapaxes(v, -1, -2))
        restricted = np.take_along_axis(dense, probs.column_indices(), axis=-1)
        for backend in (REFERENCE, FAST):
            out = sddmm_masked(g, v, probs, backend=backend)
            np.testing.assert_allclose(out.values, restricted, rtol=1e-5, atol=1e-6)

    def test_structure_is_preserved(self):
        _, _, v, g, probs = _problem((), pattern="2:4", seed=11)
        out = sddmm_masked(g, v, probs)
        np.testing.assert_array_equal(out.indices, probs.indices)
        assert out.dense_cols == probs.dense_cols

    def test_feature_dim_validation(self):
        _, _, v, g, probs = _problem((2,), pattern="2:4")
        with pytest.raises(ValueError, match="feature dims"):
            sddmm_masked(g[..., :-1], v, probs)


class TestSoftmaxGrad:
    def test_zero_rows_give_zero_gradient(self):
        probs = np.zeros((4, 8), dtype=np.float32)
        d_probs = np.ones_like(probs)
        np.testing.assert_array_equal(softmax_grad_compressed(probs, d_probs), 0.0)

    def test_matches_dense_jacobian(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(5, 6)).astype(np.float32)
        p = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        dp = rng.normal(size=p.shape).astype(np.float32)
        expected = np.einsum(
            "ri,rij->rj",
            dp,
            np.einsum("ri,ij->rij", p, np.eye(6, dtype=np.float32))
            - np.einsum("ri,rj->rij", p, p),
        )
        np.testing.assert_allclose(
            softmax_grad_compressed(p, dp), expected, rtol=1e-4, atol=1e-6
        )


class TestFusedBackward:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_backends_agree(self, pattern, batch):
        q, k, v, g, probs = _problem(batch, pattern=pattern, seed=13)
        scale = 0.25
        ref = masked_attention_bwd(probs, q, k, v, g, scale, backend=REFERENCE)
        fast = masked_attention_bwd(probs, q, k, v, g, scale, backend=FAST)
        for r, f in zip(ref, fast):
            np.testing.assert_allclose(f, r, rtol=1e-5, atol=1e-6)

    def test_dropout_keep_mask_applied(self):
        q, k, v, g, probs = _problem((2,), pattern="2:4", seed=19)
        scale = 0.25
        rng = np.random.default_rng(0)
        keep = (rng.random(probs.values.shape) >= 0.5).astype(np.float32) * 2.0
        ref = masked_attention_bwd(
            probs, q, k, v, g, scale, drop_keep=keep, backend=REFERENCE
        )
        fast = masked_attention_bwd(
            probs, q, k, v, g, scale, drop_keep=keep, backend=FAST
        )
        for r, f in zip(ref, fast):
            np.testing.assert_allclose(f, r, rtol=1e-5, atol=1e-6)
        plain = masked_attention_bwd(probs, q, k, v, g, scale, backend=FAST)
        assert not np.allclose(fast[2], plain[2])
