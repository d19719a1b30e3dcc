"""Tests for the trainable sparse DFSS attention op and its nn wiring.

The gradcheck tests compare the analytic compressed backward against the
dense masked autograd path on tie-exact lattice inputs (entries are small
multiples of 1/2 and the head dim is a power of four, so the score scale is
exact and both paths select bit-identical N:M masks).
"""

import numpy as np
import pytest

from repro.core.backend import FAST, MULTICORE, REFERENCE
from repro.core.blocked_ell import sliding_window_mask
from repro.nn import functional as F
from repro.nn.attention_layer import DfssCore, MultiHeadSelfAttention
from repro.nn.autograd import Tensor
from repro.nn.layers import Dropout
from repro.nn.sparse_attention import dfss_sparse_attention
from repro.registry import make_core
from repro.utils.seeding import attention_dropout_keep, hashed_uniform

PATTERNS = ["1:2", "2:4"]


def _lattice(shape, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(-2, 3, size=shape) / 2).astype(np.float32)


def _tensors(batch=(2, 3), seq=32, d=16, seed=0):
    shape = tuple(batch) + (seq, d)
    return tuple(
        Tensor(_lattice(shape, seed=seed + i), requires_grad=True) for i in range(3)
    )


class TestGradcheckAgainstDensePath:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("backend", [REFERENCE, FAST, MULTICORE])
    def test_gradients_match_dense_masked_path(self, pattern, backend):
        q1, k1, v1 = _tensors(seed=1)
        q2, k2, v2 = _tensors(seed=1)
        sparse = DfssCore(pattern, backend=backend, path="sparse")
        dense = DfssCore(pattern, backend=backend, path="dense")
        out_sparse = sparse(q1, k1, v1)
        out_dense = dense(q2, k2, v2)
        np.testing.assert_allclose(out_sparse.data, out_dense.data, atol=1e-6)
        (out_sparse * out_sparse).sum().backward()
        (out_dense * out_dense).sum().backward()
        for a, b in ((q1, q2), (k1, k2), (v1, v2)):
            assert a.grad is not None and b.grad is not None
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_masks_are_identical_on_lattice_inputs(self, pattern):
        q1, k1, v1 = _tensors(seed=2)
        q2, k2, v2 = _tensors(seed=2)
        sparse = DfssCore(pattern, path="sparse")
        dense = DfssCore(pattern, path="dense")
        sparse(q1, k1, v1)
        dense(q2, k2, v2)
        np.testing.assert_array_equal(sparse.last_mask(), dense.last_mask())

    def test_finite_difference_gradcheck(self):
        # The analytic gradient treats the N:M selection as a constant of the
        # graph, so central differences are only valid at coordinates whose
        # perturbation does not flip the selection — boundary coordinates are
        # skipped explicitly.
        rng = np.random.default_rng(7)
        shape = (1, 1, 16, 8)
        arrays = [rng.normal(size=shape).astype(np.float32) for _ in range(3)]
        w = rng.normal(size=shape).astype(np.float32)

        def loss(qa, ka, va):
            q, k, v = (Tensor(a, requires_grad=True) for a in (qa, ka, va))
            out, probs = dfss_sparse_attention(q, k, v, pattern="2:4")
            val = (out * Tensor(w)).sum()
            val.backward()
            return float(val.data), (q.grad, k.grad, v.grad), probs.indices

        _, grads, base_idx = loss(*arrays)
        eps = 5e-3
        checked = 0
        for which in range(3):
            for index in [(0, 0, 3, 2), (0, 0, 11, 5), (0, 0, 7, 1)]:
                plus = [a.copy() for a in arrays]
                minus = [a.copy() for a in arrays]
                plus[which][index] += eps
                minus[which][index] -= eps
                val_p, _, idx_p = loss(*plus)
                val_m, _, idx_m = loss(*minus)
                if not (np.array_equal(idx_p, base_idx) and np.array_equal(idx_m, base_idx)):
                    continue  # perturbation crossed a selection boundary
                fd = (val_p - val_m) / (2 * eps)
                assert grads[which][index] == pytest.approx(fd, rel=5e-2, abs=2e-3)
                checked += 1
        assert checked >= 5  # most coordinates must be checkable

    def test_returned_probs_describe_the_mask(self):
        q, k, v = _tensors(seed=3)
        _, probs = dfss_sparse_attention(q, k, v, pattern="2:4")
        mask = probs.to_mask()
        assert mask.mean() == pytest.approx(0.5)
        assert mask.shape == (2, 3, 32, 32)


class TestFullyMaskedRows:
    def test_nn_masked_softmax_zeroes_dead_rows(self):
        x = Tensor(np.zeros((2, 4, 6), np.float32), requires_grad=True)
        mask = np.ones((2, 4, 6), dtype=bool)
        mask[0, 1] = False
        mask[1, 3] = False
        weights = F.masked_softmax(x, mask)
        np.testing.assert_array_equal(weights.data[0, 1], 0.0)
        np.testing.assert_array_equal(weights.data[1, 3], 0.0)
        np.testing.assert_allclose(weights.data[0, 0].sum(), 1.0, atol=1e-6)
        weights.sum().backward()
        assert np.all(np.isfinite(x.grad))
        np.testing.assert_array_equal(x.grad[0, 1], 0.0)

    def test_core_masked_dense_softmax_zeroes_dead_rows(self):
        from repro.core.softmax import masked_dense_softmax

        scores = np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32)
        mask = np.ones((3, 5), dtype=bool)
        mask[2] = False
        out = masked_dense_softmax(scores, mask)
        np.testing.assert_array_equal(out[2], 0.0)
        np.testing.assert_allclose(out[:2].sum(axis=-1), 1.0, atol=1e-6)

    def test_no_uniform_leak_through_masked_core(self):
        """A mask-based core whose mask kills a row must emit zeros there."""

        class DeadRowCore(DfssCore):
            def _mask(self, scores, q, k):
                mask = super()._mask(scores, q, k)
                mask[..., 0, :] = False
                return mask

        q, k, v = _tensors(seed=4)
        core = DeadRowCore("2:4", path="dense")
        out = core(q, k, v)
        np.testing.assert_array_equal(out.data[..., 0, :], 0.0)


class TestFactoryForwarding:
    def test_backend_is_forwarded(self):
        core = make_core("dfss_2:4", backend="reference")
        assert isinstance(core, DfssCore)
        assert core.backend == "reference"
        assert core.pattern.name == "2:4"

    def test_path_is_forwarded(self):
        core = make_core("dfss", pattern="1:2", path="dense")
        assert core.path == "dense"
        assert core.pattern.name == "1:2"

    def test_pattern_kwarg_beats_name_suffix(self):
        core = make_core("dfss_2:4", pattern="1:2")
        assert core.pattern.name == "1:2"

    @pytest.mark.parametrize("mechanism", [
        "full", "dfss_2:4", "topk", "local", "sparse_transformer", "longformer",
        "bigbird", "linformer", "linear_transformer", "performer",
        "nystromformer", "synthesizer", "reformer",
    ])
    def test_unconsumed_kwargs_raise(self, mechanism):
        with pytest.raises(TypeError):
            make_core(mechanism, definitely_not_a_kwarg=1)

    def test_invalid_path_rejected(self):
        with pytest.raises(ValueError, match="path"):
            DfssCore("2:4", path="warp")


class TestDropoutPlacement:
    def test_sparse_dropout_is_identity_in_eval(self):
        layer = MultiHeadSelfAttention(
            model_dim=16, num_heads=2, mechanism="dfss_2:4", dropout=0.5, seed=0
        )
        layer.eval()
        x = Tensor(np.random.default_rng(0).normal(size=(2, 8, 16)).astype(np.float32))
        out1 = layer(x).data.copy()
        out2 = layer(x).data
        np.testing.assert_array_equal(out1, out2)

    def test_train_dropout_perturbs_attention_not_output_activations(self):
        layer = MultiHeadSelfAttention(
            model_dim=16, num_heads=2, mechanism="dfss_2:4", dropout=0.5, seed=0
        )
        x = Tensor(np.random.default_rng(1).normal(size=(2, 8, 16)).astype(np.float32))
        out1 = layer(x).data.copy()
        out2 = layer(x).data
        # dropout on the attention probabilities re-randomises between calls
        assert not np.allclose(out1, out2)

    def test_train_dropout_gradients_flow(self):
        for mechanism in ("dfss_2:4", "full", "topk"):
            layer = MultiHeadSelfAttention(
                model_dim=16, num_heads=2, mechanism=mechanism, dropout=0.3, seed=0
            )
            x = Tensor(
                np.random.default_rng(2).normal(size=(2, 8, 16)).astype(np.float32),
                requires_grad=True,
            )
            layer(x).sum().backward()
            for name, p in layer.named_parameters():
                assert p.grad is not None and np.all(np.isfinite(p.grad)), name

    def test_resid_dropout_knob(self):
        layer = MultiHeadSelfAttention(
            model_dim=16, num_heads=2, mechanism="full", resid_dropout=0.5, seed=0
        )
        x = Tensor(np.ones((1, 4, 16), np.float32))
        out1 = layer(x).data.copy()
        out2 = layer(x).data
        assert not np.allclose(out1, out2)  # residual dropout active in training
        layer.eval()
        out3 = layer(x).data.copy()
        out4 = layer(x).data
        np.testing.assert_array_equal(out3, out4)

    @pytest.mark.parametrize("mechanism", [
        "linear_transformer", "performer", "linformer", "nystromformer",
        "synthesizer",
    ])
    def test_kernel_and_lowrank_mechanisms_still_get_dropout(self, mechanism):
        layer = MultiHeadSelfAttention(
            model_dim=16, num_heads=2, mechanism=mechanism, dropout=0.5, seed=0,
            max_len=8,
        )
        x = Tensor(np.random.default_rng(5).normal(size=(2, 8, 16)).astype(np.float32))
        out1 = layer(x).data.copy()
        out2 = layer(x).data
        assert not np.allclose(out1, out2), mechanism  # dropout active in training
        layer.eval()
        np.testing.assert_array_equal(layer(x).data, layer(x).data)

    def test_sparse_op_requires_seeded_rng_for_dropout(self):
        q, k, v = _tensors(seed=6)
        with pytest.raises(ValueError, match="dropout_rng"):
            dfss_sparse_attention(q, k, v, dropout_p=0.5, training=True)

    def test_core_swap_reattaches_dropout(self):
        layer = MultiHeadSelfAttention(
            model_dim=16, num_heads=2, mechanism="full", dropout=0.4, seed=0
        )
        layer.set_mechanism("dfss", pattern="2:4")
        assert layer.core.attn_dropout is layer.attn_dropout


class TestDropoutLayoutIndependence:
    """Seeded dropout must agree between the sparse op and the dense escape hatch."""

    def _cores(self, p=0.5, seed=42, backend=None):
        sparse = DfssCore("2:4", path="sparse", backend=backend)
        dense = DfssCore("2:4", path="dense", backend=backend)
        sparse.attn_dropout = Dropout(p, seed=seed)
        dense.attn_dropout = Dropout(p, seed=seed)
        return sparse, dense

    @pytest.mark.parametrize("backend", [REFERENCE, FAST, MULTICORE])
    def test_seeded_paths_bit_comparable_under_dropout(self, backend):
        sparse, dense = self._cores(backend=backend)
        for step in range(3):  # alignment must survive several steps
            q1, k1, v1 = _tensors(seed=10 + step)
            q2, k2, v2 = _tensors(seed=10 + step)
            out_s = sparse(q1, k1, v1)
            out_d = dense(q2, k2, v2)
            np.testing.assert_allclose(out_s.data, out_d.data, atol=1e-6)
            (out_s * out_s).sum().backward()
            (out_d * out_d).sum().backward()
            for a, b in ((q1, q2), (k1, k2), (v1, v2)):
                np.testing.assert_allclose(a.grad, b.grad, rtol=1e-5, atol=1e-6)

    def test_both_paths_consume_one_draw_per_call(self):
        sparse, dense = self._cores()
        q1, k1, v1 = _tensors(seed=20)
        q2, k2, v2 = _tensors(seed=20)
        sparse(q1, k1, v1)
        dense(q2, k2, v2)
        # generators advanced identically -> next draws agree
        assert (sparse.attn_dropout.rng.integers(1 << 62)
                == dense.attn_dropout.rng.integers(1 << 62))

    def test_dropout_actually_drops(self):
        sparse, _ = self._cores(p=0.5)
        q, k, v = _tensors(seed=21)
        out1 = sparse(q, k, v).data.copy()
        out2 = sparse(q, k, v).data
        assert not np.allclose(out1, out2)  # re-randomised between calls

    def test_eval_mode_is_identity_on_both_paths(self):
        sparse, dense = self._cores()
        sparse.attn_dropout.training = False
        dense.attn_dropout.training = False
        q1, k1, v1 = _tensors(seed=22)
        q2, k2, v2 = _tensors(seed=22)
        np.testing.assert_allclose(
            sparse(q1, k1, v1).data, dense(q2, k2, v2).data, atol=1e-6
        )

    def test_full_layer_paths_match_with_dropout(self):
        # Through the projections the scores are not tie-exact, so the two
        # paths can pick different N:M survivors at fp ties (~1e-4 output
        # noise, present without dropout too).  A *misaligned* dropout mask
        # would instead zero/double different entries and produce O(1)
        # differences, so the tight bound below still proves alignment.
        outs = []
        for path in ("sparse", "dense"):
            layer = MultiHeadSelfAttention(
                model_dim=16, num_heads=2, mechanism="dfss_2:4", dropout=0.4,
                seed=0, path=path,
            )
            x = Tensor(_lattice((2, 8, 16), seed=23))
            outs.append(layer(x).data)
        np.testing.assert_allclose(outs[0], outs[1], atol=5e-3)

    def test_hashed_uniform_is_position_keyed(self):
        positions = np.arange(64, dtype=np.uint64).reshape(8, 8)
        full = hashed_uniform(123, positions)
        subset = hashed_uniform(123, positions[::2, 1::3])
        np.testing.assert_array_equal(full[::2, 1::3], subset)
        assert not np.array_equal(full, hashed_uniform(124, positions))
        assert 0.0 <= full.min() and full.max() < 1.0

    def test_attention_dropout_keep_scales_and_validates(self):
        keep = attention_dropout_keep(7, 0.5, np.arange(10_000, dtype=np.uint64))
        assert set(np.unique(keep)) == {0.0, 2.0}
        assert keep.mean() == pytest.approx(1.0, abs=0.05)
        with pytest.raises(ValueError):
            attention_dropout_keep(7, 1.0, np.arange(4, dtype=np.uint64))


class TestBlockMaskTrainableOp:
    """The trainable op accepts the blocked-ELL coarse mask (ROADMAP item)."""

    def _block_mask(self, seq=32):
        return sliding_window_mask(seq_len=seq, block_size=8, window_blocks=1)

    def test_masked_positions_carry_zero_probability(self):
        q, k, v = _tensors(seed=30)
        block = self._block_mask()
        _, probs = dfss_sparse_attention(q, k, v, pattern="2:4", block_mask=block)
        dense_probs = probs.to_dense(0.0)
        outside = ~block.dense_mask(32, 32)
        np.testing.assert_array_equal(dense_probs[..., outside], 0.0)

    @pytest.mark.parametrize("backend", [REFERENCE, FAST, MULTICORE])
    # block_size=2 puts a block boundary INSIDE every 2:4 group: the dense
    # path must exclude blocked scores before the N:M selection (promoting
    # allowed runners-up), exactly like the sddmm_nm epilogue
    @pytest.mark.parametrize("block_size", [8, 2])
    def test_sparse_path_matches_dense_path_with_block_mask(self, backend, block_size):
        block = sliding_window_mask(seq_len=32, block_size=block_size, window_blocks=1)
        q1, k1, v1 = _tensors(seed=31)
        q2, k2, v2 = _tensors(seed=31)
        sparse = DfssCore("2:4", path="sparse", backend=backend, block_mask=block)
        dense = DfssCore("2:4", path="dense", backend=backend, block_mask=block)
        out_s = sparse(q1, k1, v1)
        out_d = dense(q2, k2, v2)
        np.testing.assert_allclose(out_s.data, out_d.data, atol=1e-6)
        (out_s * out_s).sum().backward()
        (out_d * out_d).sum().backward()
        for a, b in ((q1, q2), (k1, k2), (v1, v2)):
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-5, atol=1e-6)

    def test_mechanism_mask_excludes_before_selection(self):
        # the numpy DfssMechanism must agree with dfss_attention's epilogue
        # on block boundaries that do not align with N:M groups
        from repro.baselines.dfss import DfssMechanism
        from repro.core.attention import dfss_attention

        rng = np.random.default_rng(40)
        q = (rng.integers(-2, 3, size=(2, 32, 16)) / 2).astype(np.float32)
        k = (rng.integers(-2, 3, size=(2, 32, 16)) / 2).astype(np.float32)
        v = rng.normal(size=(2, 32, 16)).astype(np.float32)
        block = sliding_window_mask(seq_len=32, block_size=2, window_blocks=1)
        mech = DfssMechanism(pattern="2:4", block_mask=block)
        _, weights = dfss_attention(q, k, v, pattern="2:4", block_mask=block,
                                    return_weights=True)
        kernel_mask = weights.to_dense(0.0) > 0
        mech_mask = mech.attention_mask(q, k)
        # every position the kernel assigns weight must be in the mask
        assert not (kernel_mask & ~mech_mask).any()

    def test_last_mask_respects_block_mask(self):
        block = self._block_mask()
        q, k, v = _tensors(seed=32)
        core = DfssCore("2:4", path="sparse", block_mask=block)
        core(q, k, v)
        mask = core.last_mask()
        assert not mask[..., ~block.dense_mask(32, 32)].any()

    def test_engine_forwards_block_mask_to_core(self):
        from repro.engine import AttentionEngine

        block = self._block_mask()
        core = AttentionEngine("dfss", pattern="2:4", block_mask=block).core()
        assert core.block_mask is block

    def test_block_mask_with_dropout(self):
        block = self._block_mask()
        q, k, v = _tensors(seed=33)
        core = DfssCore("2:4", path="sparse", block_mask=block)
        core.attn_dropout = Dropout(0.3, seed=5)
        out = core(q, k, v)
        assert np.all(np.isfinite(out.data))
        out.sum().backward()
        assert np.all(np.isfinite(q.grad))


class TestSparseIsTheDefaultTrainingPath:
    def test_mha_dfss_uses_sparse_op(self):
        layer = MultiHeadSelfAttention(model_dim=16, num_heads=2, mechanism="dfss_2:4")
        assert isinstance(layer.core, DfssCore)
        assert layer.core.path == "sparse"
        x = Tensor(np.random.default_rng(3).normal(size=(2, 8, 16)).astype(np.float32))
        layer(x)
        assert layer.core._last_structure is not None  # compressed, not dense autograd

    def test_training_step_reduces_loss(self):
        from repro.nn.optim import SGD

        layer = MultiHeadSelfAttention(model_dim=16, num_heads=2, mechanism="dfss_2:4",
                                       seed=0)
        opt = SGD(layer.parameters(), lr=0.05)
        rng = np.random.default_rng(4)
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
