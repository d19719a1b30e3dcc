"""Tests for reduced-precision emulation."""

import numpy as np
import pytest

from repro.core.precision import (
    dtype_bytes,
    quantize,
    simulate_tensor_core_matmul,
    tensor_core_operand,
    to_bfloat16,
    to_float16,
    to_tfloat32,
)


class TestBfloat16:
    def test_exactly_representable_values_unchanged(self):
        # powers of two and small integers are exactly representable in bf16
        x = np.array([0.0, 1.0, -2.0, 0.5, 256.0, -1024.0], dtype=np.float32)
        np.testing.assert_array_equal(to_bfloat16(x), x)

    def test_rounding_error_within_bf16_ulp(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=1000).astype(np.float32)
        y = to_bfloat16(x)
        # bf16 has 8 bits of precision -> relative error <= 2^-8
        rel = np.abs(y - x) / np.maximum(np.abs(x), 1e-30)
        assert np.max(rel) <= 2.0**-8

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=100).astype(np.float32)
        once = to_bfloat16(x)
        np.testing.assert_array_equal(to_bfloat16(once), once)

    def test_preserves_nan_inf(self):
        x = np.array([np.nan, np.inf, -np.inf], dtype=np.float32)
        y = to_bfloat16(x)
        assert np.isnan(y[0]) and np.isposinf(y[1]) and np.isneginf(y[2])

    def test_coarser_than_tf32(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=10000).astype(np.float32)
        err_bf16 = np.abs(to_bfloat16(x) - x).mean()
        err_tf32 = np.abs(to_tfloat32(x) - x).mean()
        assert err_bf16 > err_tf32


class TestTfloat32AndFloat16:
    def test_tf32_error_bound(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=1000).astype(np.float32)
        rel = np.abs(to_tfloat32(x) - x) / np.maximum(np.abs(x), 1e-30)
        assert np.max(rel) <= 2.0**-11

    def test_float16_matches_numpy(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=100).astype(np.float32)
        np.testing.assert_array_equal(
            to_float16(x), x.astype(np.float16).astype(np.float32)
        )


class TestQuantize:
    def test_float32_is_copy(self):
        x = np.arange(10, dtype=np.float32)
        y = quantize(x, "float32")
        np.testing.assert_array_equal(x, y)
        y[0] = 99
        assert x[0] == 0  # no aliasing

    def test_unknown_dtype_raises(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(3), "int4")

    def test_dtype_bytes(self):
        assert dtype_bytes("float32") == 4
        assert dtype_bytes("bfloat16") == 2
        with pytest.raises(ValueError):
            dtype_bytes("fp8")


class TestTensorCoreMatmul:
    def test_close_to_fp32_reference(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(64, 32)).astype(np.float32)
        b = rng.normal(size=(32, 48)).astype(np.float32)
        ref = a @ b
        out = simulate_tensor_core_matmul(a, b, "float32")
        assert np.abs(out - ref).max() / np.abs(ref).max() < 1e-2

    def test_bf16_noisier_than_tf32(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(128, 64)).astype(np.float32)
        b = rng.normal(size=(64, 128)).astype(np.float32)
        ref = a @ b
        err_tf32 = np.abs(simulate_tensor_core_matmul(a, b, "float32") - ref).mean()
        err_bf16 = np.abs(simulate_tensor_core_matmul(a, b, "bfloat16") - ref).mean()
        assert err_bf16 >= err_tf32

    def test_batched(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 16, 8)).astype(np.float32)
        b = rng.normal(size=(3, 8, 16)).astype(np.float32)
        out = simulate_tensor_core_matmul(a, b, "float32")
        assert out.shape == (3, 16, 16)

    @pytest.mark.parametrize("dtype", ["float32", "bfloat16", "float16"])
    def test_operand_is_c_contiguous_whatever_the_strides(self, dtype):
        # the fused N:M forward rounds a transposed, lane-major view of K
        x = np.arange(96, dtype=np.float32).reshape(2, 8, 2, 3).transpose(0, 2, 3, 1)
        y = tensor_core_operand(x, dtype)
        assert y.flags["C_CONTIGUOUS"] and not np.shares_memory(x, y)
        np.testing.assert_array_equal(y, x)  # small integers are exact on every grid

    def test_invalid_dtype(self):
        with pytest.raises(ValueError):
            simulate_tensor_core_matmul(np.eye(4), np.eye(4), "int8")
