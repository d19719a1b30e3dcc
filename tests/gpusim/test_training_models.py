"""Tests for the training-step (backward-pass) latency and memory models."""

import pytest

from repro.gpusim import (
    AMPERE_A100,
    AttentionConfig,
    training_attention_latency,
    training_attention_speedup,
    training_memory_reduction,
    training_peak_memory,
)
from repro.gpusim import LayerConfig, attention_peak_memory
from repro.gpusim.memory import training_attention_memory
from repro.gpusim.ops import (
    attention_bwd_nm_ops,
    nm_attention_bwd_ops,
    sddmm_masked_nm,
    spmm_t_nm,
)

CFG = AttentionConfig(seq_len=1024, num_heads=8, head_dim=64, batch_size=4)
LAYER = LayerConfig(seq_len=1024, num_heads=8, head_dim=64, batch_size=4)


class TestBackwardTraffic:
    def test_backward_kernel_sequence(self):
        names = [op.name for op in attention_bwd_nm_ops(4, 1024, 1024, 64, "float32")]
        assert names == ["spmm_t_dv", "sddmm_dp", "softmax_bwd", "spmm_dq", "spmm_t_dk"]

    def test_recomputing_backward_prices_the_recompute_first(self):
        # the training forward saves only per-row statistics, so the modelled
        # backward re-scores, re-selects and recomputes P ahead of the five
        # backward ops, and costs more than them alone
        ops = nm_attention_bwd_ops(4, 1024, 1024, 64, "float32")
        names = [op.name for op in ops]
        assert names[:2] == ["sddmm_rescore", "softmax_recompute"]
        assert names[2:] == [
            op.name for op in attention_bwd_nm_ops(4, 1024, 1024, 64, "float32")
        ]
        latency = sum(op.latency(AMPERE_A100) for op in ops)
        five = sum(
            op.latency(AMPERE_A100)
            for op in attention_bwd_nm_ops(4, 1024, 1024, 64, "float32")
        )
        assert latency > five

    def test_transposed_spmm_writes_dense_rows(self):
        op = spmm_t_nm(1, 1024, 1024, 64, "float32")
        dense_out_bytes = 1024 * 64 * 4
        assert op.bytes_written == dense_out_bytes

    def test_masked_sddmm_writes_only_nonzeros(self):
        op = sddmm_masked_nm(1, 1024, 1024, 64, "float32")
        assert op.bytes_written == (1024 * 1024 // 2) * 4  # n^2/2 kept values

    def test_backward_traffic_scales_with_seq_len(self):
        small = sum(
            op.latency(AMPERE_A100)
            for op in attention_bwd_nm_ops(1, 2048, 2048, 64, "float32")
        )
        large = sum(
            op.latency(AMPERE_A100)
            for op in attention_bwd_nm_ops(1, 8192, 8192, 64, "float32")
        )
        # the n^2 traffic terms dominate once past launch overhead: a 4x
        # longer sequence costs well over 4x
        assert large > 8 * small


class TestTrainingLatency:
    def test_total_is_forward_plus_backward(self):
        lat = training_attention_latency("dfss", CFG)
        assert lat.total == pytest.approx(lat.forward.total + lat.backward)
        assert lat.backward == pytest.approx(
            sum(op.latency(AMPERE_A100) for op in lat.backward_kernels)
        )

    def test_dfss_backward_is_the_recomputing_kernel_sequence(self):
        # the model prices the backward that runs: re-score and recompute
        # P from the saved row statistics, then the five backward ops
        lat = training_attention_latency("dfss", CFG)
        expected = nm_attention_bwd_ops(4 * 8, 1024, 1024, 64, "float32")
        assert [op.name for op in lat.backward_kernels] == [op.name for op in expected]

    def test_dfss_training_faster_than_dense(self):
        speedup = training_attention_speedup("dfss", CFG)
        assert 1.0 < speedup < 3.0

    def test_backward_costs_more_than_forward(self):
        # the backward runs ~2x the forward's matmul traffic for both models
        for mechanism in ("transformer", "dfss"):
            lat = training_attention_latency(mechanism, CFG)
            assert lat.backward > lat.forward.total

    def test_unmodelled_mechanism_raises(self):
        with pytest.raises(ValueError, match="no training backward model"):
            training_attention_latency("performer", CFG)


class TestTrainingMemory:
    def test_dfss_keeps_row_statistics_selection_and_one_tile(self):
        # the recomputing step keeps no probabilities: float32 shift and
        # denominator per row, one selection byte per 2:4 group (bfloat16's
        # pattern), and one 128-row tile each of recomputed P̃ and dS
        b, h, n = 4, 8, 1024
        expected = b * h * n * 8 + b * h * n * (n // 4) + 2 * 128 * n * 4
        assert training_attention_memory("dfss", LAYER) == expected

    def test_dense_keeps_probabilities_and_their_gradient(self):
        assert training_attention_memory("transformer", LAYER) == 2 * attention_peak_memory(
            "transformer", LAYER
        )

    def test_training_memory_reduction_band(self):
        reduction = training_memory_reduction("dfss", LAYER)
        assert 3.0 < reduction < 4.0

    def test_reduction_grows_with_seq_len(self):
        # dense keeps n² weights twice, DFSS n²/M selection bytes
        reductions = [
            training_memory_reduction("dfss", LayerConfig(seq_len=n, num_heads=8, batch_size=4))
            for n in (512, 1024, 2048, 4096)
        ]
        assert reductions == sorted(reductions)

    def test_training_adds_qkv_gradients_and_attention_state(self):
        from repro.gpusim.memory import end_to_end_peak_memory

        for mechanism in ("transformer", "dfss"):
            inference_base = end_to_end_peak_memory(mechanism, LAYER) - attention_peak_memory(
                mechanism, LAYER
            )
            qkv_grads = 3 * 4 * 1024 * 512 * 2
            assert training_peak_memory(mechanism, LAYER) == (
                inference_base + qkv_grads + training_attention_memory(mechanism, LAYER)
            )

    def test_training_needs_more_than_inference(self):
        assert training_peak_memory("dfss", LAYER) > attention_peak_memory("dfss", LAYER)
