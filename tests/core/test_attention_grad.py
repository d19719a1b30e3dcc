"""Tests of the staged backward primitives of compressed sparse attention
(the oracle of the ``nm_attention_bwd`` kernel) against dense math.

Like ``test_backend_parity``, inputs are drawn from coarse lattices so every
intermediate is exactly representable in float32, ties included.
"""

import numpy as np
import pytest

from repro.core.attention_grad import masked_attention_bwd, softmax_grad_compressed
from repro.core.backend import FAST, get_kernel
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
    def test_matches_dense_transpose(self):
        _, _, _, g, probs = _problem((2,), pattern="2:4", seed=5)
        dense = probs.to_dense(0.0)
        expected = np.matmul(np.swapaxes(dense, -1, -2), g)
        np.testing.assert_allclose(spmm_t(probs, g), expected, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_matches_dense_per_batch(self, pattern, batch):
        _, _, _, g, probs = _problem(batch, pattern=pattern)
        expected = np.swapaxes(probs.to_dense(0.0), -1, -2) @ g
        np.testing.assert_allclose(spmm_t(probs, g), expected, rtol=1e-5, atol=1e-6)

    def test_shape_validation(self):
        _, _, _, g, probs = _problem((2,), pattern="2:4")
        with pytest.raises(ValueError, match="rows"):
            spmm_t(probs, g[..., :-1, :])


class TestSddmmMasked:
    def test_matches_dense_restriction(self):
        _, _, v, g, probs = _problem((3,), pattern="1:2", seed=9)
        dense = np.matmul(g, np.swapaxes(v, -1, -2))
        restricted = np.take_along_axis(dense, probs.column_indices(), axis=-1)
        out = sddmm_masked(g, v, probs)
        np.testing.assert_allclose(out.values, restricted, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_matches_dense_per_batch(self, pattern, batch):
        _, _, v, g, probs = _problem(batch, pattern=pattern, seed=7)
        out = sddmm_masked(g, v, probs)
        np.testing.assert_array_equal(out.indices, probs.indices)
        dense = g @ np.swapaxes(v, -1, -2)
        np.testing.assert_allclose(
            out.to_dense(0.0), dense * probs.to_mask(), rtol=1e-5, atol=1e-6
        )

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


def _dense_bwd(probs, q, k, v, g, scale, keep=None):
    """``(dQ, dK, dV)`` of ``(P ∘ keep) V`` by dense matrix algebra."""
    p = probs.to_dense(0.0)
    drop = np.ones_like(p) if keep is None else probs.with_values(keep).to_dense(0.0)
    d_v = np.swapaxes(p * drop, -1, -2) @ g
    d_p = (g @ np.swapaxes(v, -1, -2)) * drop * probs.to_mask()
    d_s = p * (d_p - np.sum(p * d_p, axis=-1, keepdims=True))
    return d_s @ k * scale, np.swapaxes(d_s, -1, -2) @ q * scale, d_v


class TestFusedBackward:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_matches_dense_gradients(self, pattern, batch):
        q, k, v, g, probs = _problem(batch, pattern=pattern, seed=13)
        grads = masked_attention_bwd(probs, q, k, v, g, 0.25)
        for ours, dense in zip(grads, _dense_bwd(probs, q, k, v, g, 0.25)):
            np.testing.assert_allclose(ours, dense, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_fast_kernel_matches_staged_oracle(self, pattern, batch):
        # the staged backward is the oracle of the fused fast nm_attention_bwd
        q, k, v, g, probs = _problem(batch, pattern=pattern, seed=17)
        scale = 1.0 / np.sqrt(q.shape[-1])
        fwd, bwd = get_kernel("nm_attention", FAST), get_kernel("nm_attention_bwd", FAST)
        out, stats = fwd(q, k, v, pattern=pattern, return_stats=True)
        fused = bwd(q, k, v, g, out, stats.shift, stats.denom, stats.selection,
                    pattern=pattern)
        staged = masked_attention_bwd(probs, q, k, v, g, scale)
        for ours, oracle in zip(fused, staged):
            np.testing.assert_allclose(ours, oracle, rtol=1e-5, atol=1e-5)

    def test_dropout_keep_mask_applied(self):
        q, k, v, g, probs = _problem((2,), pattern="2:4", seed=19)
        scale = 0.25
        rng = np.random.default_rng(0)
        keep = (rng.random(probs.values.shape) >= 0.5).astype(np.float32) * 2.0
        dropped = masked_attention_bwd(probs, q, k, v, g, scale, drop_keep=keep)
        for ours, dense in zip(dropped, _dense_bwd(probs, q, k, v, g, scale, keep)):
            np.testing.assert_allclose(ours, dense, rtol=1e-5, atol=1e-6)
        plain = masked_attention_bwd(probs, q, k, v, g, scale)
        assert not np.allclose(dropped[2], plain[2])
