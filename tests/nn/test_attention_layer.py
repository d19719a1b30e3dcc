"""Tests for the trainable multi-head attention layer and its mechanism cores."""

import numpy as np
import pytest

from repro.nn.attention_layer import DfssCore, FullCore, MultiHeadSelfAttention
from repro.nn.autograd import Tensor
from repro.registry import make_core

MECHANISMS = [
    "full", "dfss_1:2", "dfss_2:4", "topk", "local", "sparse_transformer",
    "fixed_truncated", "longformer", "bigbird", "reformer", "routing", "sinkhorn",
    "linformer", "linear_transformer", "performer", "nystromformer",
    "nystromformer_dfss", "synthesizer",
]


def _qkv(batch=2, heads=2, seq=16, d=8, seed=0):
    rng = np.random.default_rng(seed)
    mk = lambda: Tensor(rng.normal(size=(batch, heads, seq, d)).astype(np.float32),
                        requires_grad=True)
    return mk(), mk(), mk()


class TestCores:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_forward_shape_and_backward(self, mechanism):
        core = make_core(mechanism, seq_len_hint=16)
        q, k, v = _qkv()
        out = core(q, k, v)
        assert out.shape == (2, 2, 16, 8)
        assert np.all(np.isfinite(out.data))
        out.sum().backward()
        assert v.grad is not None and np.all(np.isfinite(v.grad))

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            make_core("flash")

    def test_dfss_core_matches_masked_full(self):
        q, k, v = _qkv(seed=3)
        dfss_out = DfssCore("2:4")(q, k, v)
        full_out = FullCore()(q, k, v)
        # outputs differ (pruning) but stay correlated
        assert not np.allclose(dfss_out.data, full_out.data)
        corr = np.corrcoef(dfss_out.data.ravel(), full_out.data.ravel())[0, 1]
        assert corr > 0.5

    def test_dfss_core_mask_density(self):
        q, k, v = _qkv(seed=4)
        core = DfssCore("2:4")
        core(q, k, v)
        assert core.last_mask().mean() == pytest.approx(0.5)

    def test_full_core_rows_sum_to_one_through_v_identity(self):
        q, k, _ = _qkv(seed=5)
        ones = Tensor(np.ones((2, 2, 16, 1), np.float32))
        out = FullCore()(q, k, ones)
        np.testing.assert_allclose(out.data, 1.0, atol=1e-5)

    @pytest.mark.parametrize("mechanism", ["nystromformer", "nystromformer_dfss"])
    def test_nystrom_batch_equals_slices_run_alone(self, mechanism):
        # one slice's queries scaled up: a batch-wide pseudo-inverse scale
        # would leak it into the other slice's output
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((2, 64, 16)).astype(np.float32) for _ in range(3))
        q[1] *= 4
        core = make_core(mechanism, seq_len_hint=64, num_landmarks=8)
        batch = core(Tensor(q), Tensor(k), Tensor(v)).data
        for b in range(2):
            alone = core(Tensor(q[b:b + 1]), Tensor(k[b:b + 1]), Tensor(v[b:b + 1])).data
            assert np.array_equal(batch[b:b + 1], alone), b

    @pytest.mark.parametrize("backend", ["fast", "multicore"])
    def test_csr_batch_equals_slices_run_alone(self, monkeypatch, backend):
        # slice 1's rows are longer than slice 0's, so the batch pads slice 0
        # past its own width: its softmax must still sum in the order it
        # gets alone, on every backend and worker count
        monkeypatch.setenv("REPRO_MULTICORE_WORKERS", "2")
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((2, 64, 16)).astype(np.float32) for _ in range(3))
        q[1] *= 4
        k[1] *= 3
        core = make_core("sinkhorn", seq_len_hint=64, backend=backend)
        tensors = [Tensor(x, requires_grad=True) for x in (q, k, v)]
        batch = core(*tensors)
        (batch * batch).sum().backward()
        grads = [t.grad for t in tensors]
        fast = make_core("sinkhorn", seq_len_hint=64, backend="fast")
        for b in range(2):
            alone = [Tensor(x[b:b + 1], requires_grad=True) for x in (q, k, v)]
            out = fast(*alone)
            (out * out).sum().backward()
            assert np.array_equal(batch.data[b:b + 1], out.data), b
            for whole, part in zip(grads, alone):
                assert np.array_equal(whole[b:b + 1], part.grad), b

    def test_mechanism_gradients_flow_to_queries(self):
        for mechanism in ("dfss_2:4", "performer", "nystromformer", "linformer"):
            q, k, v = _qkv(seed=6)
            out = make_core(mechanism, seq_len_hint=16)(q, k, v)
            (out * out).sum().backward()
            assert q.grad is not None and np.abs(q.grad).sum() > 0, mechanism


class TestMultiHeadSelfAttention:
    def test_forward_shape(self):
        layer = MultiHeadSelfAttention(model_dim=32, num_heads=4, mechanism="dfss_2:4", seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 16, 32)).astype(np.float32))
        out = layer(x)
        assert out.shape == (2, 16, 32)

    def test_invalid_head_split(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(model_dim=30, num_heads=4)

    def test_set_mechanism_preserves_weights(self):
        layer = MultiHeadSelfAttention(model_dim=16, num_heads=2, mechanism="full", seed=0)
        w_before = layer.q_proj.weight.data.copy()
        layer.set_mechanism("dfss", pattern="1:2")
        assert layer.mechanism == "dfss"
        np.testing.assert_array_equal(layer.q_proj.weight.data, w_before)

    def test_output_changes_with_mechanism(self):
        layer = MultiHeadSelfAttention(model_dim=16, num_heads=2, mechanism="full", seed=0)
        layer.eval()
        x = Tensor(np.random.default_rng(1).normal(size=(1, 12, 16)).astype(np.float32))
        out_full = layer(x).data.copy()
        layer.set_mechanism("dfss", pattern="2:4")
        out_dfss = layer(x).data
        assert not np.allclose(out_full, out_dfss)

    def test_synthesizer_registers_trainable_table(self):
        layer = MultiHeadSelfAttention(model_dim=16, num_heads=2, mechanism="synthesizer",
                                       seed=0, max_len=32)
        names = [n for n, _ in layer.named_parameters()]
        assert any("core_weight" in n for n in names)
        layer.set_mechanism("full")
        names = [n for n, _ in layer.named_parameters()]
        assert not any("core_weight" in n for n in names)

    def test_backward_produces_gradients_for_all_projections(self):
        layer = MultiHeadSelfAttention(model_dim=16, num_heads=2, mechanism="dfss_2:4", seed=0)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 8, 16)).astype(np.float32))
        layer(x).sum().backward()
        for name, p in layer.named_parameters():
            assert p.grad is not None, name
