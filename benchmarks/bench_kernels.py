"""Microbenchmarks of the core DFSS kernels (the fused N:M forward and the
attention pipelines).

These do not correspond to a single paper table; they time the NumPy
kernels so regressions in the algorithmic implementation are caught, and
they report the compressed-matrix footprint reduction (the quantity behind
the paper's memory claims).  The staged ``sddmm_nm → sparse_softmax →
spmm`` chain is the reference oracle, not a timed path, so it has no
benchmark here.
"""

import numpy as np
import pytest

import repro
from repro.core.attention import dfss_attention

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


def test_bench_full_attention_reference(benchmark, qkv):
    q, k, v = qkv
    out = benchmark(lambda: repro.attention(q, k, v, mechanism="full"))
    assert out.shape == v.shape


def test_bench_dfss_attention_pipeline(benchmark, qkv):
    q, k, v = qkv
    out = benchmark(lambda: repro.attention(q, k, v, mechanism="dfss_2:4"))
    assert out.shape == v.shape
