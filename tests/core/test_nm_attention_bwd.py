"""Parity matrix of the recomputing N:M backward (the ``nm_attention_bwd`` kernel).

The training forward saves per-row softmax statistics instead of the
probabilities; the backward re-scores, re-selects and recomputes them tile
by tile.  The oracle is the ``reference`` kernel, which re-runs the staged
reference chain and composes the reference backward primitives: ``fast``
matches it within ``rtol=1e-5, atol=1e-6``, and ``multicore`` equals
``fast`` bit for bit whatever the worker count.  Seeded dropout is checked
against dense masked attention on tie-exact lattice inputs.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import nm_attention
from repro.core.backend import FAST, MULTICORE, REFERENCE, get_kernel
from repro.core.blocked_ell import BlockedEllMask
from repro.core.row_block import RowBlockStructure
from repro.core.multicore import WORKERS_ENV_VAR
from repro.core.patterns import resolve_pattern
from repro.core.plan import plan_for_nm
from repro.nn import functional as F
from repro.nn.autograd import Tensor
from repro.nn.sparse_attention import dfss_sparse_attention


def _normal(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape, dtype=np.float32)


def _lattice(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(-2, 3, size=shape) / 2).astype(np.float32)


def _block_structure(block, n_q, n_k, empty_rows):
    """The structure of a blocked-ELL mask keeping a random half of each
    block row's columns; the block rows ``empty_rows`` keep none, so their
    query rows see no key."""
    rng = np.random.default_rng(5)
    block_cols = n_k // block
    cols = np.stack(
        [rng.permutation(block_cols)[: block_cols // 2] for _ in range(n_q // block)]
    )
    cols[list(empty_rows)] = -1
    return RowBlockStructure.from_mask(BlockedEllMask(block, cols).dense_mask(n_q, n_k))


def _random_structure(shape, density, seed=6):
    """The structure of a random mask: scattered keys in every block, and
    with a batch shape one block list per slice."""
    return RowBlockStructure.from_mask(np.random.default_rng(seed).random(shape) < density)


def _train(backend, pattern, q, k, v, g, scale=0.25, **kwargs):
    """``(out, stats, dQ, dK, dV)`` of one forward and backward through a plan."""
    plan = plan_for_nm(pattern, q.shape[-2], k.shape[-2], backend=backend)
    dropout = kwargs.pop("dropout", None)
    out, stats = plan.forward(
        q, k, v, scale=scale, return_stats=True, dropout=dropout, **kwargs
    )
    grads = plan.backward(stats, q, k, v, g, scale, out=out, dropout=dropout)
    return (out, stats, *grads)


def _assert_bitwise(a, b):
    out_a, stats_a, *grads_a = a
    out_b, stats_b, *grads_b = b
    for x, y in [(out_a, out_b), (stats_a.shift, stats_b.shift),
                 (stats_a.denom, stats_b.denom), (stats_a.selection, stats_b.selection),
                 *zip(grads_a, grads_b)]:
        np.testing.assert_array_equal(x, y)


# (pattern, n_q, n_keys, forward options): n_keys 130 is no multiple of 4 or
# 6, and n_q != n_keys; the blocked structure's rows 1 and 4 (of 16 rows
# each) keep no key, so those query rows carry no weight
CASES = {
    "1:2": ("1:2", 96, 130, {}),
    "2:4": ("2:4", 96, 130, {}),
    "2:6": ("2:6", 96, 130, {}),
    "magnitude": ("2:4", 96, 128, {"criterion": "magnitude"}),
    "structure": ("2:4", 96, 128, {"structure": _block_structure(16, 96, 128, (1, 4))}),
    "structure_unaligned": ("2:6", 96, 130, {"structure": _random_structure((96, 130), 0.3)}),
    "structure_dropout": ("1:2", 96, 130, {
        "structure": _random_structure((96, 130), 0.3), "dropout": (321, 0.25),
    }),
    "batched_structure": ("2:4", 96, 130, {"structure": _random_structure((2, 96, 130), 0.2)}),
    "dropout": ("2:4", 96, 130, {"dropout": (321, 0.25)}),
}


@pytest.fixture
def row_tiles(monkeypatch):
    """A tile budget of 32 rows at 132 key lanes: three row blocks per slice."""
    monkeypatch.setattr(nm_attention, "TILE_BYTES", 4 * 132 * 32)
    assert len(nm_attention.row_blocks(96, 132)) == 3


class TestParityMatrix:
    @pytest.mark.parametrize("case", list(CASES))
    def test_fast_matches_reference_and_multicore_is_bitwise(
        self, monkeypatch, row_tiles, case
    ):
        pattern, n_q, n_keys, kwargs = CASES[case]
        q = _normal((2, n_q, 16), 0)
        k, v = _normal((2, n_keys, 16), 1), _normal((2, n_keys, 16), 2)
        g = _normal((2, n_q, 16), 3)
        fast = _train(FAST, pattern, q, k, v, g, **dict(kwargs))
        reference = _train(REFERENCE, pattern, q, k, v, g, **dict(kwargs))
        np.testing.assert_array_equal(fast[1].selection, reference[1].selection)
        np.testing.assert_allclose(fast[1].shift, reference[1].shift, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(fast[1].denom, reference[1].denom, rtol=1e-5, atol=1e-6)
        for name, f, r in zip(("out", "dQ", "dK", "dV"), (fast[0], *fast[2:]),
                              (reference[0], *reference[2:])):
            assert f.shape == r.shape, name
            np.testing.assert_allclose(f, r, rtol=1e-5, atol=1e-6, err_msg=name)
        for workers in ("1", "2", "3"):
            monkeypatch.setenv(WORKERS_ENV_VAR, workers)
            _assert_bitwise(fast, _train(MULTICORE, pattern, q, k, v, g, **dict(kwargs)))

    def test_fully_masked_rows_get_zero_gradient(self, row_tiles):
        _, n_q, n_keys, kwargs = CASES["structure"]
        q = _normal((2, n_q, 16), 0)
        k, v = _normal((2, n_keys, 16), 1), _normal((2, n_keys, 16), 2)
        out, stats, d_q, d_k, d_v = _train(
            FAST, "2:4", q, k, v, _normal((2, n_q, 16), 3), **kwargs
        )
        for block_row in (1, 4):
            rows = slice(16 * block_row, 16 * (block_row + 1))
            assert np.all(out[:, rows] == 0.0)
            assert np.all(d_q[:, rows] == 0.0)
            np.testing.assert_array_equal(stats.denom[:, rows], 1.0)
        assert not stats.to_mask()[:, 16:32].any()

    def test_saves_statistics_not_probabilities(self):
        q, k, v = (_normal((2, 64, 16), s) for s in range(3))
        out, stats = get_kernel("nm_attention", FAST)(q, k, v, pattern="2:4", return_stats=True)
        assert stats.shift.shape == stats.denom.shape == (2, 64)
        assert stats.selection.dtype == np.uint8 and stats.selection.shape == (2, 64, 16)
        assert not hasattr(stats, "values")
        plain = get_kernel("nm_attention", FAST)(q, k, v, pattern="2:4")[0]
        _, probs = get_kernel("nm_attention", FAST)(q, k, v, pattern="2:4", return_probs=True)
        np.testing.assert_array_equal(out, plain)
        np.testing.assert_array_equal(stats.to_mask(), probs.to_mask())
        with pytest.raises(ValueError, match="exclusive"):
            get_kernel("nm_attention", FAST)(
                q, k, v, pattern="2:4", return_probs=True, return_stats=True
            )


class TestDropoutAgainstDenseOracle:
    """Seeded dropout re-hashed per lane plane in the backward drops exactly
    the (row, column) entries the dense oracle drops."""

    @pytest.mark.parametrize("backend", [FAST, MULTICORE, REFERENCE])
    def test_matches_dense_masked_attention(self, row_tiles, backend):
        arrays = [_lattice((2, 96 if i == 0 else 130, 16), 10 + i) for i in range(3)]
        ours = [Tensor(a, requires_grad=True) for a in arrays]
        dense = [Tensor(a, requires_grad=True) for a in arrays]
        out, stats = dfss_sparse_attention(
            *ours, pattern="2:4", backend=backend, dropout_p=0.3,
            dropout_rng=np.random.default_rng(9), training=True,
        )
        expected = F.dense_masked_attention(
            *dense, stats.to_mask(), dropout_p=0.3, dropout_rng=np.random.default_rng(9)
        )
        np.testing.assert_allclose(out.data, expected.data, atol=1e-6)
        (out * out).sum().backward()
        (expected * expected).sum().backward()
        for a, b in zip(ours, dense):
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-5, atol=5e-6)


class TestNaNRow:
    def test_nan_stays_in_its_query_row(self, monkeypatch, row_tiles):
        q, k, v, g = (_normal((2, 96, 16), s) for s in range(4))
        clean = {b: _train(b, "2:4", q, k, v, g) for b in (FAST, REFERENCE)}
        q[1, 33, 5] = np.nan
        dirty = {b: _train(b, "2:4", q, k, v, g) for b in (FAST, REFERENCE)}
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        _assert_bitwise(dirty[FAST], _train(MULTICORE, "2:4", q, k, v, g))
        others = np.ones((2, 96), dtype=bool)
        others[1, 33] = False
        for backend in (FAST, REFERENCE):
            out, stats, d_q, d_k, d_v = dirty[backend]
            clean_out, _, clean_dq, clean_dk, clean_dv = clean[backend]
            assert np.isnan(out[1, 33]).all() and np.isnan(d_q[1, 33]).all()
            # every other query row, and the other slice's dK and dV, equal
            # the clean run of the same backend
            np.testing.assert_array_equal(out[others], clean_out[others])
            np.testing.assert_array_equal(d_q[others], clean_dq[others])
            np.testing.assert_array_equal(d_k[0], clean_dk[0])
            np.testing.assert_array_equal(d_v[0], clean_dv[0])
        np.testing.assert_allclose(
            dirty[FAST][2][others], dirty[REFERENCE][2][others], rtol=1e-5, atol=1e-6
        )


class TestForwardLiveSet:
    """After the training forward the op holds the output, O(n_q) statistics
    and the selection, one byte per 2:4 group: no probability values, no
    dropout keep array."""

    @pytest.mark.parametrize("dropout_p", [0.0, 0.2])
    def test_live_set_growth(self, dropout_p):
        shape = (1, 2, 1024, 64)
        arrays = [_normal(shape, s) for s in range(3)]

        def forward():
            q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
            return dfss_sparse_attention(
                q, k, v, pattern="2:4", backend=FAST, dropout_p=dropout_p,
                dropout_rng=np.random.default_rng(0), training=dropout_p > 0,
            )

        forward()  # warm plans and imports outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out, stats = forward()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        rows = 2 * 1024
        selection = rows * 1024 // resolve_pattern("2:4").m  # one uint8 per group
        assert stats.selection.nbytes == selection
        # output + selection + shift and denominator, plus 64 KiB of Python
        # objects; the float32 probabilities alone would add 4 MiB
        bound = out.data.nbytes + selection + 8 * rows + (64 << 10)
        assert grown <= bound, f"forward kept {grown} B > {bound} B"
