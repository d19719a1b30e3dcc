"""Tests for the Figure-3 ``dspattn`` compatibility API."""

import numpy as np
import pytest

from repro import dspattn
from repro.core.attention import dfss_attention
from repro.core.backend import REFERENCE, get_kernel
from repro.core.sparse import NMSparseMatrix


def _qkv(seq=64, d=32, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(seq, d)).astype(np.float32),
        rng.normal(size=(seq, d)).astype(np.float32),
        rng.normal(size=(seq, d)).astype(np.float32),
    )


class TestFigure3Api:
    def test_three_step_pipeline_matches_dfss_attention(self):
        q, k, v = _qkv()
        nonzeros, metadata = dspattn.GEMM(q, k, pattern="2:4")
        attn = dspattn.Softmax(nonzeros)
        out = dspattn.SpMM(attn, metadata, v)
        np.testing.assert_allclose(out, dfss_attention(q, k, v, pattern="2:4"), atol=1e-5)

    @pytest.mark.parametrize("seq, pattern", [(130, "2:4"), (129, "1:2")])
    def test_key_length_not_a_multiple_of_m(self, seq, pattern):
        q, k, v = _qkv(seq=seq)
        nonzeros, metadata = dspattn.GEMM(q, k, pattern=pattern)
        out = dspattn.SpMM(dspattn.Softmax(nonzeros), metadata, v)
        np.testing.assert_allclose(out, dfss_attention(q, k, v, pattern=pattern), atol=1e-5)

    def test_three_calls_are_the_reference_kernel_bit_for_bit(self):
        # the shim and the reference nm_attention run the one staged chain
        rng = np.random.default_rng(5)
        q, k, v = (rng.normal(size=(2, 130, 32)).astype(np.float32) for _ in range(3))
        nonzeros, metadata = dspattn.GEMM(q, k, pattern="2:4")
        out = dspattn.SpMM(dspattn.Softmax(nonzeros), metadata, v)
        expected, _ = get_kernel("nm_attention", REFERENCE)(q, k, v, pattern="2:4")
        np.testing.assert_array_equal(out, expected)

    def test_gemm_returns_compressed_matrix_and_metadata(self):
        q, k, _ = _qkv()
        nonzeros, metadata = dspattn.GEMM(q, k, dtype="bfloat16")
        assert isinstance(nonzeros, NMSparseMatrix)
        assert nonzeros.pattern.name == "2:4"  # bfloat16 default
        assert metadata.dtype == np.uint16

    def test_softmax_type_check(self):
        with pytest.raises(TypeError):
            dspattn.Softmax(np.zeros((4, 4)))

    def test_spmm_type_and_metadata_checks(self):
        q, k, v = _qkv()
        nonzeros, metadata = dspattn.GEMM(q, k)
        attn = dspattn.Softmax(nonzeros)
        with pytest.raises(TypeError):
            dspattn.SpMM(np.zeros((4, 4)), metadata, v)
        with pytest.raises(ValueError):
            dspattn.SpMM(attn, metadata[:, :1], v)

    def test_object_wrapper(self):
        q, k, v = _qkv(seed=3)
        attn = dspattn.DynamicSparseAttention(dtype="float32")
        assert attn.pattern.name == "1:2"
        out = attn(q, k, v)
        np.testing.assert_allclose(out, dfss_attention(q, k, v, pattern="1:2"), atol=1e-5)

    def test_batched_inputs(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(2, 4, 32, 16)).astype(np.float32)
        v = rng.normal(size=(2, 4, 32, 16)).astype(np.float32)
        out = dspattn.DynamicSparseAttention(pattern="2:4")(q, q, v)
        assert out.shape == (2, 4, 32, 16)
