"""The fused kernels read transposed head views in place.

A multi-head layer hands the kernels Q, K and V as transposed views of its
projections, ``x.reshape(B, L, H, d).transpose(0, 2, 1, 3)``.  The four
fused kernels must give bitwise the results of the same call on contiguous
copies, on ``fast`` and on ``multicore``, without copying the operands:
each tile reads its ``(batch·head)`` slice in place, and the outputs are
laid out in the operand's memory order, so a head merge is a view.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.backend import FAST, MULTICORE, get_kernel
from repro.core.multicore import WORKERS_ENV_VAR
from repro.registry import make_mechanism

B, H, D = 2, 2, 16


def _heads(n, seed, scale=1.0):
    """``(B, H, n, D)`` transposed head view of a contiguous ``(B, n, H·D)`` array."""
    x = np.random.default_rng(seed).standard_normal((B, n, H * D), dtype=np.float32) * scale
    return x.reshape(B, n, H, D).transpose(0, 2, 1, 3)


def _operands(n_q, n_k):
    return _heads(n_q, 0, 2.0), _heads(n_k, 1, 2.0), _heads(n_k, 2), _heads(n_q, 3)


def _nm_step(backend, q, k, v, g, dropout):
    fwd, bwd = get_kernel("nm_attention", backend), get_kernel("nm_attention_bwd", backend)
    out, stats = fwd(q, k, v, pattern="2:4", dropout=dropout, return_stats=True)
    grads = bwd(q, k, v, g, out, stats.shift, stats.denom, stats.selection,
                pattern="2:4", dropout=dropout)
    _, probs = fwd(q, k, v, pattern="2:4", dropout=dropout, return_probs=True)
    return (out, stats.shift, stats.denom, stats.selection, probs.values, probs.indices) + grads


def _row_block_step(backend, q, k, v, g, dropout):
    structure = make_mechanism("longformer", window=16).block_structure(q.shape[-2], k.shape[-2])
    fwd = get_kernel("row_block_attention", backend)
    bwd = get_kernel("row_block_attention_bwd", backend)
    out, stats = fwd(q, k, v, structure, None, dropout, True)
    grads = bwd(q, k, v, g, out, stats.shift, stats.denom, structure, None, dropout)
    return (out, stats.shift, stats.denom) + grads


SHAPES = [(64, 64), (130, 130), (96, 130)]


@pytest.mark.parametrize("backend, workers", [(FAST, None), (MULTICORE, "2")])
@pytest.mark.parametrize("step", [_nm_step, _row_block_step], ids=["nm", "row_block"])
@pytest.mark.parametrize("n_q, n_k", SHAPES)
@pytest.mark.parametrize("dropout", [None, (7, 0.25)], ids=["no_dropout", "dropout"])
def test_head_views_equal_contiguous_copies(monkeypatch, backend, workers, step, n_q, n_k,
                                            dropout):
    if workers is not None:
        monkeypatch.setenv(WORKERS_ENV_VAR, workers)
    views = _operands(n_q, n_k)
    copies = [np.ascontiguousarray(x) for x in views]
    for got, want in zip(step(backend, *views, dropout), step(backend, *copies, dropout)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("step", [_nm_step, _row_block_step], ids=["nm", "row_block"])
def test_outputs_follow_the_operand_layout(step):
    """The output and dQ are in Q's layout, dK in K's, dV in V's: undoing the
    head split of each is a view."""
    q, k, v, g = _operands(64, 64)
    out, *_, d_q, d_k, d_v = step(FAST, q, k, v, g, None)
    for result, operand in ((out, q), (d_q, q), (d_k, k), (d_v, v)):
        assert result.strides == operand.strides
        merged = result.transpose(0, 2, 1, 3).reshape(B, -1, H * D)
        assert np.shares_memory(merged, result)


def test_nm_backward_peak_matches_contiguous_call():
    """The backward on head views copies no operand: its peak stays within
    0.5 MiB of the same call on contiguous arrays."""
    shape = (2, 512, 4, 64)
    rng = np.random.default_rng(0)
    views = [
        rng.standard_normal(shape, dtype=np.float32).transpose(0, 2, 1, 3) for _ in range(4)
    ]
    copies = [np.ascontiguousarray(x) for x in views]
    fwd, bwd = get_kernel("nm_attention", FAST), get_kernel("nm_attention_bwd", FAST)

    def peak(q, k, v, g):
        out, stats = fwd(q, k, v, pattern="2:4", return_stats=True)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            bwd(q, k, v, g, out, stats.shift, stats.denom, stats.selection, pattern="2:4")
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    peak(*copies)  # warm the kernel registry outside the measurement
    strided, contiguous = peak(*views), peak(*copies)
    assert strided <= contiguous + (1 << 19), (strided, contiguous)

