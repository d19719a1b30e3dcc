"""Microbenchmarks of the core DFSS kernels (the fused N:M forward, sparse
softmax, SpMM).

These do not correspond to a single paper table; they time the NumPy
kernels so regressions in the algorithmic implementation are caught, and
they report the compressed-matrix footprint reduction (the quantity behind
the paper's memory claims).  The staged ``sddmm_nm`` is the tile-by-tile
reference; it only builds the softmax and SpMM inputs here.
"""

import numpy as np
import pytest

import repro
from repro.core.attention import dfss_attention
from repro.core.sddmm import sddmm_nm
from repro.core.softmax import sparse_softmax
from repro.core.spmm import spmm

SEQ_LEN = 256
HEAD_DIM = 64


@pytest.fixture(scope="module")
def qkv():
    rng = np.random.default_rng(0)
    shape = (4, SEQ_LEN, HEAD_DIM)
    return tuple(rng.normal(size=shape).astype(np.float32) for _ in range(3))


def test_bench_sddmm_nm(benchmark, qkv):
    # the fused forward scores and prunes each tile in place: its compressed
    # probabilities are the N:M matrix the paper's SDDMM epilogue writes
    q, k, v = qkv
    _, sp = benchmark(lambda: dfss_attention(q, k, v, pattern="2:4", return_weights=True))
    assert sp.values.shape == (4, SEQ_LEN, SEQ_LEN // 2)
    print(f"\ncompression ratio: {sp.compression_ratio():.2f}x")


def test_bench_sparse_softmax(benchmark, qkv):
    q, k, _ = qkv
    sp = sddmm_nm(q, k, pattern="2:4")
    out = benchmark(lambda: sparse_softmax(sp))
    np.testing.assert_allclose(out.values.sum(-1), 1.0, atol=1e-5)


def test_bench_spmm(benchmark, qkv):
    q, k, v = qkv
    weights = sparse_softmax(sddmm_nm(q, k, pattern="2:4"))
    out = benchmark(lambda: spmm(weights, v))
    assert out.shape == v.shape


def test_bench_full_attention_reference(benchmark, qkv):
    q, k, v = qkv
    out = benchmark(lambda: repro.attention(q, k, v, mechanism="full"))
    assert out.shape == v.shape


def test_bench_dfss_attention_pipeline(benchmark, qkv):
    q, k, v = qkv
    out = benchmark(lambda: repro.attention(q, k, v, mechanism="dfss_2:4"))
    assert out.shape == v.shape
