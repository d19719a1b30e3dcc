"""Gradcheck parity of the padded-CSR sparse training path, per mechanism.

Every mask-based mechanism now trains through
:func:`repro.nn.sparse_attention.masked_sparse_attention` by default; the
dense masked autograd formulation is retained as ``path="dense"`` and acts as
the oracle here.  Inputs are tie-exact lattices (small multiples of 1/2 with
a power-of-four head dim) so data-dependent masks select identically on both
paths and outputs/gradients agree to float tolerance.
"""

import numpy as np
import pytest

from repro.core.backend import FAST, MULTICORE, REFERENCE
from repro.nn.attention_layer import (
    BigBirdDfssCore,
    LinformerDfssCore,
    MaskedScoreCore,
    StaticMaskCore,
)
from repro.nn.autograd import Tensor
from repro.nn.layers import Dropout
from repro.nn.sparse_attention import masked_sparse_attention
from repro.registry import available_mechanisms, make_core

#: every previously dense-only mask-based mechanism that must now train
#: through the compressed padded-CSR (or N:M) path
MASK_MECHANISMS = (
    "topk",
    "local",
    "sparse_transformer",
    "fixed_truncated",
    "longformer",
    "bigbird",
    "reformer",
    "routing",
    "sinkhorn",
)


def _lattice(shape, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(-2, 3, size=shape) / 2).astype(np.float32)


def _tensors(batch=(2, 3), seq=32, d=16, seed=0):
    shape = tuple(batch) + (seq, d)
    return tuple(
        Tensor(_lattice(shape, seed=seed + i), requires_grad=True) for i in range(3)
    )


class TestPerMechanismGradcheckParity:
    @pytest.mark.parametrize("mechanism", MASK_MECHANISMS)
    @pytest.mark.parametrize("backend", [REFERENCE, FAST, MULTICORE])
    def test_sparse_matches_dense_masked_path(self, mechanism, backend):
        q1, k1, v1 = _tensors(seed=1)
        q2, k2, v2 = _tensors(seed=1)
        sparse = make_core(mechanism, seq_len_hint=32, path="sparse", backend=backend)
        dense = make_core(mechanism, seq_len_hint=32, path="dense", backend=backend)
        out_s = sparse(q1, k1, v1)
        out_d = dense(q2, k2, v2)
        np.testing.assert_allclose(out_s.data, out_d.data, atol=1e-6, err_msg=mechanism)
        (out_s * out_s).sum().backward()
        (out_d * out_d).sum().backward()
        for a, b in ((q1, q2), (k1, k2), (v1, v2)):
            assert a.grad is not None and b.grad is not None
            np.testing.assert_allclose(
                a.grad, b.grad, rtol=1e-5, atol=1e-6, err_msg=mechanism
            )

    @pytest.mark.parametrize("mechanism", MASK_MECHANISMS)
    def test_masks_agree_between_paths(self, mechanism):
        q1, k1, v1 = _tensors(seed=2)
        q2, k2, v2 = _tensors(seed=2)
        sparse = make_core(mechanism, seq_len_hint=32, path="sparse")
        dense = make_core(mechanism, seq_len_hint=32, path="dense")
        sparse(q1, k1, v1)
        dense(q2, k2, v2)
        np.testing.assert_array_equal(sparse.last_mask(), dense.last_mask())

    def test_every_compressed_mask_mechanism_is_covered(self):
        # the sweep above must cover what the registry advertises (minus the
        # DFSS-family mechanisms, which tests/nn/test_sparse_attention.py pins)
        advertised = set(
            available_mechanisms(trainable=True, produces_mask=True, compressed=True)
        )
        assert advertised - {"dfss", "bigbird_dfss"} == set(MASK_MECHANISMS)
        assert len(MASK_MECHANISMS) >= 5  # acceptance: at least 5 mechanisms


class TestEdgeCases:
    class DeadRowCore(StaticMaskCore):
        """Local-window mask with one fully masked query row."""

        def __init__(self, path):
            def mask_fn(nq, nk):
                from repro.baselines.fixed import local_window_mask

                mask = local_window_mask(nq, nk, 4)
                mask[0, :] = False
                return mask

            super().__init__(mask_fn, "dead_row", path=path)

    def test_fully_masked_row_zero_output_and_gradients(self):
        q, k, v = _tensors(seed=3)
        core = self.DeadRowCore(path="sparse")
        out = core(q, k, v)
        np.testing.assert_array_equal(out.data[..., 0, :], 0.0)
        (out * out).sum().backward()
        assert np.all(np.isfinite(q.grad))
        # a dead query row contributes no gradient to its query vector
        np.testing.assert_array_equal(q.grad[..., 0, :], 0.0)

    def test_fully_masked_row_parity_with_dense(self):
        q1, k1, v1 = _tensors(seed=4)
        q2, k2, v2 = _tensors(seed=4)
        out_s = self.DeadRowCore(path="sparse")(q1, k1, v1)
        out_d = self.DeadRowCore(path="dense")(q2, k2, v2)
        np.testing.assert_allclose(out_s.data, out_d.data, atol=1e-6)
        out_s.sum().backward()
        out_d.sum().backward()
        for a, b in ((q1, q2), (k1, k2), (v1, v2)):
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-5, atol=1e-6)

    def test_ragged_row_lengths_parity(self):
        # a hand-built mask with strongly varying nnz per row, including
        # singleton rows and one dead row
        rng = np.random.default_rng(5)
        mask = rng.random((2, 2, 16, 16)) < 0.2
        mask[..., 3, :] = False          # dead row
        mask[..., 5, :] = True           # full row (forces maximum width)
        mask[..., 7, :] = False
        mask[..., 7, 2] = True           # singleton row
        q1, k1, v1 = _tensors(batch=(2, 2), seq=16, seed=6)
        q2, k2, v2 = _tensors(batch=(2, 2), seq=16, seed=6)
        out_s, probs = masked_sparse_attention(q1, k1, v1, mask)
        assert probs.width == 16 and probs.row_lengths().min() == 0
        scale = 1.0 / np.sqrt(q2.shape[-1])
        from repro.core.softmax import masked_dense_softmax

        weights = masked_dense_softmax(
            np.matmul(q2.data, np.swapaxes(k2.data, -1, -2)) * scale, mask
        )
        np.testing.assert_allclose(
            out_s.data, np.matmul(weights, v2.data), atol=1e-5
        )
        out_s.sum().backward()
        assert all(np.all(np.isfinite(t.grad)) for t in (q1, k1, v1))

    def test_2d_mask_broadcasts_over_batch(self):
        q, k, v = _tensors(seed=7)
        from repro.baselines.fixed import local_window_mask

        mask2d = local_window_mask(32, 32, 4)
        out, probs = masked_sparse_attention(q, k, v, mask2d)
        assert out.shape == q.shape
        assert probs.batch_shape == (2, 3)

    def test_dropout_requires_seeded_rng(self):
        q, k, v = _tensors(seed=8)
        mask = np.ones((32, 32), dtype=bool)
        with pytest.raises(ValueError, match="dropout_rng"):
            masked_sparse_attention(q, k, v, mask, dropout_p=0.5, training=True)

    def test_prescored_caller_score_buffer_survives(self):
        # Top-K hands its precomputed compressed scores to the op; the plan's
        # in-place softmax must copy (owned=False), never overwrite them
        from repro.core.padded_csr import PaddedCSRMatrix
        from repro.core.sddmm import sddmm_csr

        q, k, v = _tensors(batch=(), seq=16, d=16, seed=11)
        mask = np.triu(np.ones((16, 16), dtype=bool), -4)
        structure = PaddedCSRMatrix.from_mask(mask)
        scores = sddmm_csr(q.data, k.data, structure, scale=0.25)
        before = scores.values.copy()
        out, _ = masked_sparse_attention(
            q, k, v, structure, scale=0.25, scores=scores
        )
        np.testing.assert_array_equal(scores.values, before)
        unscored_out, _ = masked_sparse_attention(
            Tensor(q.data), Tensor(k.data), Tensor(v.data), structure, scale=0.25
        )
        np.testing.assert_array_equal(out.data, unscored_out.data)


class TestDropoutLayoutIndependence:
    """Seeded dropout must agree between the CSR sparse op and the dense path."""

    def _cores(self, mechanism="local", p=0.5, seed=42):
        sparse = make_core(mechanism, seq_len_hint=32, path="sparse")
        dense = make_core(mechanism, seq_len_hint=32, path="dense")
        sparse.attn_dropout = Dropout(p, seed=seed)
        dense.attn_dropout = Dropout(p, seed=seed)
        return sparse, dense

    @pytest.mark.parametrize("mechanism", ["local", "topk", "longformer", "dfss_2:4"])
    def test_seeded_paths_comparable_under_dropout(self, mechanism):
        sparse, dense = self._cores(mechanism)
        for step in range(2):
            q1, k1, v1 = _tensors(seed=20 + step)
            q2, k2, v2 = _tensors(seed=20 + step)
            out_s = sparse(q1, k1, v1)
            out_d = dense(q2, k2, v2)
            np.testing.assert_allclose(out_s.data, out_d.data, atol=1e-6)
            (out_s * out_s).sum().backward()
            (out_d * out_d).sum().backward()
            for a, b in ((q1, q2), (k1, k2), (v1, v2)):
                # atol absorbs float-order noise amplified by the 1/(1-p)
                # dropout scaling; a misaligned mask would differ at O(1)
                np.testing.assert_allclose(a.grad, b.grad, rtol=1e-5, atol=5e-6)

    def test_dropout_actually_drops(self):
        sparse, _ = self._cores()
        q, k, v = _tensors(seed=25)
        out1 = sparse(q, k, v).data.copy()
        out2 = sparse(q, k, v).data
        assert not np.allclose(out1, out2)

    def test_eval_mode_is_identity(self):
        sparse, dense = self._cores()
        sparse.attn_dropout.training = False
        dense.attn_dropout.training = False
        q1, k1, v1 = _tensors(seed=26)
        q2, k2, v2 = _tensors(seed=26)
        np.testing.assert_allclose(
            sparse(q1, k1, v1).data, dense(q2, k2, v2).data, atol=1e-6
        )


class TestSparseIsTheDefaultPath:
    @pytest.mark.parametrize("mechanism", MASK_MECHANISMS)
    def test_default_core_path_is_sparse(self, mechanism):
        core = make_core(mechanism, seq_len_hint=32)
        assert isinstance(core, MaskedScoreCore)
        assert core.path == "sparse"

    def test_static_mask_structure_is_cached_across_steps(self):
        core = make_core("local", seq_len_hint=32)
        q, k, v = _tensors(seed=30)
        core(q, k, v)
        first = next(iter(core._csr_cache.values()))
        core(*_tensors(seed=31))
        assert next(iter(core._csr_cache.values())) is first

    def test_invalid_path_rejected(self):
        with pytest.raises(ValueError, match="path"):
            make_core("local", path="warp")

    def test_numpy_mechanism_rejects_core_only_kwargs(self):
        from repro.registry import make_mechanism

        with pytest.raises(TypeError, match="path"):
            make_mechanism("local", path="dense")

    def test_training_step_reduces_loss(self):
        from repro.nn.attention_layer import MultiHeadSelfAttention
        from repro.nn.optim import SGD

        layer = MultiHeadSelfAttention(
            model_dim=16, num_heads=2, mechanism="local", seed=0
        )
        opt = SGD(layer.parameters(), lr=0.05)
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 8, 16)).astype(np.float32))
        target = rng.normal(size=(2, 8, 16)).astype(np.float32)
        losses = []
        for _ in range(8):
            layer.zero_grad()
            diff = layer(x) - Tensor(target)
            loss = (diff * diff).mean()
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        assert losses[-1] < losses[0]


class TestComboCores:
    """bigbird_dfss / linformer_dfss gained trainable cores (ROADMAP item)."""

    def test_bigbird_dfss_parity_with_dense_path(self):
        q1, k1, v1 = _tensors(seed=40)
        q2, k2, v2 = _tensors(seed=40)
        sparse = make_core("bigbird_dfss", seq_len_hint=32, block_size=8)
        dense = make_core("bigbird_dfss", seq_len_hint=32, block_size=8, path="dense")
        assert isinstance(sparse, BigBirdDfssCore)
        out_s = sparse(q1, k1, v1)
        out_d = dense(q2, k2, v2)
        np.testing.assert_allclose(out_s.data, out_d.data, atol=1e-6)
        (out_s * out_s).sum().backward()
        (out_d * out_d).sum().backward()
        for a, b in ((q1, q2), (k1, k2), (v1, v2)):
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-5, atol=1e-6)

    def test_bigbird_dfss_mask_respects_block_mask(self):
        q, k, v = _tensors(seed=41)
        core = make_core("bigbird_dfss", seq_len_hint=32, block_size=8,
                         num_random_blocks=0)
        core(q, k, v)
        allowed = core.block_mask.dense_mask(32, 32)
        mask = core.last_mask()
        assert not mask[..., ~allowed].any()

    def test_linformer_dfss_trains_and_matches_dense_path(self):
        # the projection is random-normal, so the N:M scores are not
        # tie-exact: the sparse op's tf32-emulated SDDMM rounds differently
        # from the dense path's fp32 matmul (~1e-4 relative), hence the
        # looser tolerances — a wrong mask or misrouted gradient would show
        # up as O(1) differences
        q1, k1, v1 = _tensors(seed=42)
        q2, k2, v2 = _tensors(seed=42)
        sparse = make_core("linformer_dfss", seq_len_hint=32, proj_dim=16)
        dense = make_core("linformer_dfss", seq_len_hint=32, proj_dim=16, path="dense")
        assert isinstance(sparse, LinformerDfssCore)
        out_s = sparse(q1, k1, v1)
        out_d = dense(q2, k2, v2)
        np.testing.assert_allclose(out_s.data, out_d.data, atol=5e-3)
        (out_s * out_s).sum().backward()
        (out_d * out_d).sum().backward()
        for a, b in ((q1, q2), (k1, k2), (v1, v2)):
            np.testing.assert_allclose(a.grad, b.grad, atol=2e-2)

    def test_linformer_dfss_projection_rounds_to_pattern_groups(self):
        core = LinformerDfssCore(proj_dim=15, pattern="2:4")
        proj = core._projection(32)
        assert proj.shape[0] % 4 == 0

    def test_combo_cores_are_trainable_in_registry(self):
        trainable = available_mechanisms(trainable=True)
        assert "bigbird_dfss" in trainable and "linformer_dfss" in trainable
