"""Tests for the row-tiled fused N:M forward (the ``nm_attention`` kernel).

The oracle rule (see :mod:`repro.core.nm_attention`): the fast forward
matches the ``reference`` chain (``sddmm_nm → masked_softmax → spmm``) within
``rtol=1e-5, atol=1e-6`` in the output and the compressed probabilities,
and its N:M selection (``probs.indices``) is bitwise equal to the
reference's.  Bitwise equality otherwise holds only across execution
choices: tile size, multicore against fast, a stacked batch against single
requests.  The shapes below are large enough that every slice spans several
row tiles.

Tile-size independence is checked separately with lattice inputs, whose
scores are exact in float32 under any product blocking: the selection and
the probabilities are then bitwise independent of the tile rows, and the
output agrees to float32 rounding (a 1-row product may run another BLAS
kernel than a 256-row one).
"""

import math
import tracemalloc

import numpy as np
import pytest

import repro
from repro.core import nm_attention
from repro.core.attention import dfss_attention, full_attention
from repro.core.backend import FAST, MULTICORE, REFERENCE, get_kernel
from repro.core.multicore import WORKERS_ENV_VAR
from repro.core.blocked_ell import BlockedEllMask, sliding_window_mask
from repro.core.row_block import RowBlockStructure
from repro.core.patterns import resolve_pattern
from repro.core.plan import plan_for_nm
from repro.core.sparse import NMSparseMatrix
from repro.engine import AttentionEngine


def _normal(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape, dtype=np.float32)


def _lattice(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(-8, 9, size=shape) / 4).astype(np.float32)


def _blocked(mask: BlockedEllMask, n_q: int, n_k: int) -> RowBlockStructure:
    """The row-block structure of a blocked-ELL mask."""
    return RowBlockStructure.from_mask(mask.dense_mask(n_q, n_k))


def _returns(kwargs) -> dict:
    """What a call saves: a structured call keeps no dense-width P, so it
    returns its statistics; every other call its compressed probabilities."""
    return {"return_stats": True} if "structure" in kwargs else {"return_probs": True}


def _parts(saved):
    """``(selection, values)`` of compressed probabilities or statistics:
    what must match bitwise, and what within float32 rounding."""
    if isinstance(saved, NMSparseMatrix):
        return (saved.indices,), (saved.values,)
    return (saved.selection,), (saved.shift, saved.denom)


def _assert_same(out, saved, ref_out, ref_saved):
    np.testing.assert_array_equal(out, ref_out)
    for a, b in zip(sum(_parts(saved), ()), sum(_parts(ref_saved), ())):
        np.testing.assert_array_equal(a, b)


def _reference(pattern, q, k, v, **kwargs):
    """``(out, probs)`` (``(out, stats)`` over a structure) of the
    ``reference`` chain, the forward's oracle."""
    return get_kernel("nm_attention", REFERENCE)(
        q, k, v, pattern=pattern, **_returns(kwargs), **kwargs
    )


def _assert_matches_reference(out, saved, ref_out, ref_saved):
    """The oracle rule: the selection is bitwise the reference's, the
    probabilities (or statistics) and the output agree within float32
    rounding."""
    (exact, close), (ref_exact, ref_close) = _parts(saved), _parts(ref_saved)
    for a, b in zip(exact, ref_exact):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(close, ref_close):
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(out, ref_out, rtol=1e-5, atol=1e-6)


# (pattern, batch shape, n_q, n_k, d): n_k=1024 gives 256-row tiles, and
# n_q=600 is neither n_k nor a multiple of 256 (three balanced 200-row tiles)
MULTI_TILE_CASES = [
    ("1:2", (), 600, 1024, 32),
    ("2:4", (2,), 600, 1024, 32),
    ((1, 4), (2,), 600, 1024, 32),  # argsort fallback of nm_keep_lanes
    ("2:4", (2, 3), 300, 1024, 64),
    ("1:2", (2,), 1024, 1024, 64),
]


class TestAgainstReferenceChain:
    @pytest.mark.parametrize("pattern,batch,n_q,n_k,d", MULTI_TILE_CASES)
    def test_forward_matches_reference(self, pattern, batch, n_q, n_k, d):
        q = _normal(batch + (n_q, d), 0)
        k = _normal(batch + (n_k, d), 1)
        v = _normal(batch + (n_k, d), 2)
        plan = plan_for_nm(pattern, n_q, n_k, backend=FAST)
        assert len(nm_attention.row_blocks(n_q, n_k)) > 1
        out, probs = plan.forward(q, k, v, return_probs=True)
        _assert_matches_reference(out, probs, *_reference(pattern, q, k, v))

    def test_magnitude_criterion(self):
        q, k, v = (_normal((2, 1024, 32), s) for s in range(3))
        plan = plan_for_nm("2:4", 1024, 1024, backend=FAST)
        out, probs = plan.forward(q, k, v, criterion="magnitude", return_probs=True)
        ref = _reference("2:4", q, k, v, criterion="magnitude")
        _assert_matches_reference(out, probs, *ref)

    def test_structure(self):
        q, k, v = (_normal((2, 1024, 32), s) for s in range(3))
        structure = _blocked(sliding_window_mask(1024, 64, 1), 1024, 1024)
        plan = plan_for_nm("2:4", 1024, 1024, backend=FAST)
        out, stats = plan.forward(q, k, v, structure=structure, return_stats=True)
        _assert_matches_reference(out, stats, *_reference("2:4", q, k, v, structure=structure))
        # blocks outside the band get exactly zero weight
        assert not stats.to_mask()[..., :64, 128:].any()

    def test_explicit_scale(self):
        q, k, v = (_normal((2, 600, 32), s) for s in range(3))
        plan = plan_for_nm("1:2", 600, 600, backend=FAST)
        for scale in (0.1, 0.25, np.float64(0.3)):
            out, probs = plan.forward(q, k, v, scale=scale, return_probs=True)
            _assert_matches_reference(out, probs, *_reference("1:2", q, k, v, scale=scale))

    @pytest.mark.parametrize("dtype", ["bfloat16", "float16"])
    def test_reduced_precision_operands(self, dtype):
        q, k, v = (_normal((2, 600, 32), s) for s in range(3))
        k = np.ascontiguousarray(k.swapaxes(-1, -2)).swapaxes(-1, -2)  # strided K
        plan = plan_for_nm("2:4", 600, 600, backend=FAST, dtype=dtype)
        out, probs = plan.forward(q, k, v, return_probs=True)
        _assert_matches_reference(out, probs, *_reference("2:4", q, k, v, dtype=dtype))

    def test_single_tile_slices(self):
        q, k, v = (_normal((2, 3, 64, 16), s) for s in range(3))
        plan = plan_for_nm("2:4", 64, 64, backend=FAST)
        out, probs = plan.forward(q, k, v, return_probs=True)
        _assert_matches_reference(out, probs, *_reference("2:4", q, k, v))

    def test_dfss_attention_weights_match(self):
        q, k, v = (_normal((2, 600, 32), s) for s in range(3))
        out, weights = dfss_attention(
            q, k, v, pattern="2:4", return_weights=True, backend=FAST
        )
        _assert_matches_reference(out, weights, *_reference("2:4", q, k, v))
        # asking for the weights does not change the output
        np.testing.assert_array_equal(
            dfss_attention(q, k, v, pattern="2:4", backend=FAST), out
        )

    def test_stacked_batch_equals_single_slices(self):
        q, k, v = (_normal((3, 600, 32), s) for s in range(3))
        out, probs = get_kernel("nm_attention", FAST)(q, k, v, pattern="2:4", return_probs=True)
        for b in range(3):
            one_out, one_probs = get_kernel("nm_attention", FAST)(
                q[b], k[b], v[b], pattern="2:4", return_probs=True
            )
            np.testing.assert_array_equal(out[b], one_out)
            np.testing.assert_array_equal(probs.values[b], one_probs.values)
            np.testing.assert_array_equal(probs.indices[b], one_probs.indices)


def _random_block_mask(block_size, block_rows, block_cols, empty_rows=(), seed=0):
    """Blocked-ELL mask keeping a random half of each block row's columns;
    the ``empty_rows`` keep none, so their query rows see no key at all."""
    rng = np.random.default_rng(seed)
    width = (block_cols + 1) // 2
    cols = np.stack([rng.permutation(block_cols)[:width] for _ in range(block_rows)])
    cols[list(empty_rows)] = -1
    return BlockedEllMask(block_size, cols)


def _forward_all_ways(monkeypatch, pattern, q, k, v, **kwargs):
    """``(fused, reference, multicore)`` runs of one call, each ``(out,
    probs)``, or ``(out, stats)`` over a structure."""
    n_q, n_keys = q.shape[-2], k.shape[-2]
    fast = plan_for_nm(pattern, n_q, n_keys, backend=FAST)
    fused = fast.forward(q, k, v, **_returns(kwargs), **kwargs)
    reference = _reference(pattern, q, k, v, **kwargs)
    monkeypatch.setenv(WORKERS_ENV_VAR, "2")
    tiled = plan_for_nm(pattern, n_q, n_keys, backend=MULTICORE).forward(
        q, k, v, **_returns(kwargs), **kwargs
    )
    return fused, reference, tiled


class TestAdversarialBitwise:
    """Edge inputs of the in-place tile: fused matches the reference chain
    (its selection bit for bit), and multicore equals fast bit for bit."""

    def _check(self, monkeypatch, pattern, q, k, v, **kwargs):
        fused, reference, tiled = _forward_all_ways(monkeypatch, pattern, q, k, v, **kwargs)
        assert len(nm_attention.row_blocks(q.shape[-2], fused[1].dense_cols)) > 1
        _assert_matches_reference(*fused, *reference)
        _assert_same(*fused, *tiled)
        return fused

    def test_structure_rows_without_keys(self, monkeypatch):
        q = _normal((2, 640, 32), 0)
        k, v = _normal((2, 1024, 32), 1), _normal((2, 1024, 32), 2)
        structure = _blocked(_random_block_mask(64, 10, 16, empty_rows=(1, 7)), 640, 1024)
        out, stats = self._check(monkeypatch, "2:4", q, k, v, structure=structure)
        for br in (1, 7):
            rows = slice(64 * br, 64 * (br + 1))
            assert np.all(out[:, rows] == 0.0)
            assert not stats.to_mask()[:, rows].any()
            assert np.all(stats.denom[:, rows] == 1.0) and np.all(stats.shift[:, rows] == 0.0)
        assert np.all(out[:, :64] != 0.0)

    @pytest.mark.parametrize(
        "pattern,block,n_q,n_keys", [("2:4", 30, 600, 990), ("2:6", 64, 640, 1024)]
    )
    def test_unaligned_keys_with_structure(self, monkeypatch, pattern, block, n_q, n_keys):
        assert n_keys % resolve_pattern(pattern).m
        q = _normal((2, n_q, 32), 0)
        k, v = _normal((2, n_keys, 32), 1), _normal((2, n_keys, 32), 2)
        mask = _random_block_mask(block, n_q // block, n_keys // block, empty_rows=(3,))
        structure = _blocked(mask, n_q, n_keys)
        _, stats = self._check(monkeypatch, pattern, q, k, v, structure=structure)
        assert not stats.to_mask()[..., ~mask.dense_mask(n_q, n_keys)].any()

    def test_magnitude_drops_the_largest_lane(self, monkeypatch):
        # lane 0 of every key group scores about +16 and lanes 1-3 about
        # -128, so magnitude drops every row's largest score, and a softmax
        # shifted by that dropped score would underflow every kept lane to
        # zero; lattice scores are exact, so the premise is checked on the
        # values the selection saw
        q = _lattice((2, 600, 16), 0)
        q[..., 0] = 1.0
        k = _lattice((2, 1024, 16), 1) / 32
        k[..., 0] = np.where(np.arange(1024) % 4 == 0, 64.0, -512.0)
        v = _normal((2, 1024, 16), 2)
        _, probs = self._check(monkeypatch, "2:4", q, k, v, criterion="magnitude")
        scores = q @ np.swapaxes(k, -1, -2)
        largest = scores.argmax(axis=-1)[..., None]
        assert not np.take_along_axis(probs.to_mask(), largest, axis=-1).any()
        np.testing.assert_allclose(probs.values.sum(axis=-1), 1.0, rtol=1e-5)

    @pytest.mark.parametrize("pattern,n_keys", [((1, 4), 1024), ("2:6", 1020)])
    def test_generic_patterns(self, monkeypatch, pattern, n_keys):
        q = _normal((2, 600, 32), 0)
        k, v = _normal((2, n_keys, 32), 1), _normal((2, n_keys, 32), 2)
        self._check(monkeypatch, pattern, q, k, v)

    def test_nan_stays_in_its_query_row(self, monkeypatch):
        q, k, v = (_normal((2, 600, 32), s) for s in range(3))
        clean = get_kernel("nm_attention", FAST)(q, k, v, pattern="2:4", return_probs=True)
        clean_reference = _reference("2:4", q, k, v)
        q[1, 333, 5] = np.nan
        fused, reference, tiled = _forward_all_ways(monkeypatch, "2:4", q, k, v)
        assert np.isnan(fused[0][1, 333]).all()
        _assert_same(*fused, *tiled)
        others = np.ones((2, 600), dtype=bool)
        others[1, 333] = False
        # every other row equals the clean run of the same backend
        for (out, probs), (clean_out, clean_probs) in (
            (fused, clean), (reference, clean_reference)
        ):
            np.testing.assert_array_equal(out[others], clean_out[others])
            np.testing.assert_array_equal(probs.values[others], clean_probs.values[others])
            np.testing.assert_array_equal(probs.indices[others], clean_probs.indices[others])
        np.testing.assert_array_equal(fused[1].indices[others], reference[1].indices[others])
        np.testing.assert_allclose(
            fused[1].values[others], reference[1].values[others], rtol=1e-5, atol=1e-6
        )
        np.testing.assert_allclose(fused[0][others], reference[0][others], rtol=1e-5, atol=1e-6)


# the oracle rule's matrix: (pattern, key count, forward options) at 640
# query rows, three row tiles per slice
ORACLE_CASES = {
    "1:2": ("1:2", 1024, {}),
    "2:4": ("2:4", 1024, {}),
    "1:4": ((1, 4), 1024, {}),
    "2:6": ("2:6", 1020, {}),
    "magnitude": ("2:4", 1024, {"criterion": "magnitude"}),
    "structure": ("2:4", 1024, {"structure": _blocked(
        _random_block_mask(64, 10, 16, empty_rows=(2,)), 640, 1024
    )}),
    "scale": ("2:4", 1024, {"scale": 0.3}),
    "unaligned": ("2:4", 1021, {}),
    "dropout": ("2:4", 1021, {"dropout": (99, 0.2)}),
}


class TestOracleRule:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_fast_matches_reference_and_multicore_is_bitwise(self, monkeypatch, case):
        pattern, n_keys, kwargs = ORACLE_CASES[case]
        q = _normal((2, 640, 32), 0)
        k, v = _normal((2, n_keys, 32), 1), _normal((2, n_keys, 32), 2)
        fast = plan_for_nm(pattern, 640, n_keys, backend=FAST).forward(
            q, k, v, **_returns(kwargs), **kwargs
        )
        _assert_matches_reference(*fast, *_reference(pattern, q, k, v, **kwargs))
        for workers in ("1", "2", "3"):
            monkeypatch.setenv(WORKERS_ENV_VAR, workers)
            tiled = plan_for_nm(pattern, 640, n_keys, backend=MULTICORE).forward(
                q, k, v, **_returns(kwargs), **kwargs
            )
            _assert_same(*fast, *tiled)


class TestDropoutInTile:
    @pytest.mark.parametrize("n_keys", [1024, 1021])
    def test_matches_reference_with_drop_keep(self, monkeypatch, n_keys):
        q = _normal((2, 600, 32), 0)
        k, v = _normal((2, n_keys, 32), 1), _normal((2, n_keys, 32), 2)
        dropout = (1234, 0.3)
        fused, reference, tiled = _forward_all_ways(monkeypatch, "2:4", q, k, v, dropout=dropout)
        _assert_matches_reference(*fused, *reference)
        _assert_same(*fused, *tiled)
        # the returned probabilities are the pre-dropout ones
        plain_out, plain_probs = plan_for_nm("2:4", 600, n_keys, backend=FAST).forward(
            q, k, v, return_probs=True
        )
        np.testing.assert_array_equal(fused[1].values, plain_probs.values)
        np.testing.assert_array_equal(fused[1].indices, plain_probs.indices)
        assert not np.array_equal(fused[0], plain_out)


class TestTileSizeIndependence:
    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("pattern", ["1:2", "2:4", (1, 4)])
    def test_selection_and_probs_bitwise(self, monkeypatch, pattern, rows):
        n_q, n_k = 90, 128
        q = _lattice((2, n_q, 16), 0)
        k = _lattice((2, n_k, 16), 1)
        v = _normal((2, n_k, 16), 2)
        plan = plan_for_nm(pattern, n_q, n_k, backend=FAST)
        # the oracle: one tile per slice (a budget far above the slice),
        # itself held to the reference chain by the oracle rule
        monkeypatch.setattr(nm_attention, "TILE_BYTES", 1 << 30)
        ref_out, ref_probs = plan.forward(q, k, v, return_probs=True)
        _assert_matches_reference(ref_out, ref_probs, *_reference(pattern, q, k, v))
        budget = 1 << 30 if rows is None else 4 * n_k * rows
        monkeypatch.setattr(nm_attention, "TILE_BYTES", budget)
        expected = n_q if rows is None else rows
        assert max(b - a for a, b in nm_attention.row_blocks(n_q, n_k)) == expected
        out, probs = plan.forward(q, k, v, return_probs=True)
        np.testing.assert_array_equal(probs.indices, ref_probs.indices)
        np.testing.assert_array_equal(probs.values, ref_probs.values)
        np.testing.assert_allclose(out, ref_out, rtol=1e-5, atol=1e-6)


class TestRowBlocks:
    def test_budget_rows(self):
        assert nm_attention.row_blocks(4096, 4096)[0] == (0, 64)
        assert nm_attention.row_blocks(512, 512) == [(0, 512)]

    def test_balanced_partition(self):
        blocks = nm_attention.row_blocks(600, 1024)
        assert blocks == [(0, 200), (200, 400), (400, 600)]

    def test_empty(self):
        assert nm_attention.row_blocks(0, 64) == []


class TestKernel:
    def test_return_probs_off_returns_no_probabilities(self):
        q, k, v = (_normal((2, 64, 16), s) for s in range(3))
        out, probs = get_kernel("nm_attention", FAST)(q, k, v, pattern="2:4")
        assert probs is None
        plan = plan_for_nm("2:4", 64, 64, backend=FAST)
        assert isinstance(plan.forward(q, k, v), np.ndarray)

    def test_reference_is_the_staged_reference_chain(self):
        q, k, v = (_lattice((2, 64, 16), s) for s in range(3))
        out, probs = get_kernel("nm_attention", REFERENCE)(
            q, k, v, pattern="2:4", return_probs=True
        )
        assert isinstance(probs, NMSparseMatrix)
        fast_out, fast_probs = get_kernel("nm_attention", FAST)(
            q, k, v, pattern="2:4", return_probs=True
        )
        np.testing.assert_array_equal(probs.indices, fast_probs.indices)
        np.testing.assert_allclose(probs.values, fast_probs.values, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(out, fast_out, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("backend", [FAST, REFERENCE])
    def test_operand_mismatch_raises(self, backend):
        q = _normal((2, 64, 16), 0)
        kernel = get_kernel("nm_attention", backend)
        with pytest.raises(ValueError):
            kernel(q, q, _normal((3, 64, 16), 1))
        with pytest.raises(ValueError):
            kernel(q, q, _normal((2, 32, 16), 1))


class TestAnyKeyLength:
    """Unaligned key counts run, padded to whole M-groups with masked lanes."""

    @pytest.mark.parametrize("backend", [FAST, REFERENCE])
    @pytest.mark.parametrize(
        "pattern,n_k",
        [("1:2", 1), ("1:2", 3), ("1:2", 130), ("2:4", 1), ("2:4", 3), ("2:4", 5), ("2:4", 130)],
    )
    def test_matches_dense_attention_under_the_cropped_mask(self, backend, pattern, n_k):
        q = _normal((2, 9, 16), 0)
        k, v = _normal((2, n_k, 16), 1), _normal((2, n_k, 8), 2)
        engine = AttentionEngine(f"dfss_{pattern}", backend=backend)
        mask = engine.attention_mask(q, k)
        assert mask.shape == (2, 9, n_k) and mask.any(axis=-1).all()
        np.testing.assert_allclose(
            engine(q, k, v), full_attention(q, k, v, mask=mask), rtol=0, atol=1e-5
        )

    @pytest.mark.parametrize("pattern", ["1:2", "2:4"])
    def test_multicore_bitwise_equals_fast(self, monkeypatch, pattern):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        q, k, v = (_normal((3, 2, 40, 16), s) for s in range(3))
        k, v = k[..., :37, :], v[..., :37, :]
        fast = dfss_attention(q, k, v, pattern=pattern, backend=FAST)
        tiled = dfss_attention(q, k, v, pattern=pattern, backend=MULTICORE)
        assert fast.tobytes() == tiled.tobytes()

    def test_padded_lanes_carry_zero_weight(self):
        q, k, v = _normal((2, 6, 8), 0), _normal((2, 5, 8), 1), _normal((2, 5, 8), 2)
        for backend in (FAST, REFERENCE):
            _, probs = get_kernel("nm_attention", backend)(
                q, k, v, pattern="2:4", return_probs=True
            )
            assert probs.dense_cols == 8
            dense = probs.to_dense()
            assert np.all(dense[..., 5:] == 0.0)
            np.testing.assert_allclose(dense.sum(-1), 1.0, rtol=1e-6)

    def test_aligned_keys_are_not_copied(self):
        # contiguous slices, and the transposed head views a multi-head layer
        # passes: every tile reads its slice of Q, K and V in place
        heads = [_normal((2, 16, 2, 8), s).transpose(0, 2, 1, 3) for s in range(4)]
        for q, k, v, g in (heads, [np.ascontiguousarray(x) for x in heads]):
            fwd = nm_attention.NMForwardJob(q, k, v, pattern="2:4")
            assert fwd.n_k == fwd.n_keys == 16
            out, stats = get_kernel("nm_attention", FAST)(
                q, k, v, pattern="2:4", return_stats=True
            )
            bwd = nm_attention.NMBackwardJob(
                q, k, v, g, out, stats.shift, stats.denom, stats.selection, pattern="2:4"
            )
            for job in (fwd, bwd):
                assert all(np.shares_memory(view, q) for view in job._q)
                assert all(np.shares_memory(view, v) for view in job._v)
            assert all(np.shares_memory(view, k) for view in bwd._k)
            assert all(np.shares_memory(view, g) for view in bwd._g)

    def test_facade_runs_at_length_30(self):
        q = _normal((30, 16), 0)
        out = repro.attention(q, q, q, "dfss_2:4")
        mask = AttentionEngine("dfss_2:4").attention_mask(q, q)
        np.testing.assert_allclose(out, full_attention(q, q, q, mask=mask), rtol=0, atol=1e-5)


def _numpy_dense_attention(q, k, v):
    """Plain numpy ``softmax(QKᵀ)V`` with in-place softmax on the score tensor."""
    scores = np.matmul(q, np.swapaxes(k, -1, -2))
    scores *= np.float32(1.0 / math.sqrt(q.shape[-1]))
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return np.matmul(scores, v)


def _peak_bytes(fn):
    fn()  # warm caches (plans, imports) outside the measurement
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_compressed_path_peak_at_most_dense(self):
        q, k, v = (_normal((1, 2, 1024, 64), s) for s in range(3))
        dfss = _peak_bytes(lambda: dfss_attention(q, k, v, backend=FAST))
        dense = _peak_bytes(lambda: _numpy_dense_attention(q, k, v))
        assert dfss <= dense, f"dfss peak {dfss} B > dense peak {dense} B"

    def test_tiled_forward_peak_far_below_dense(self):
        # The floor at this shape is about 3 MiB: rounded Kᵀ, the output and
        # the lane planes, which are the score tile (1 MiB each), against
        # about 33 MiB for dense; the forward peaks near 3.9 MiB.  An n²
        # tensor, or one more 1 MiB per-tile buffer such as a lane copy of
        # the tile, breaks the 1/8 bound.
        q, k, v = (_normal((1, 2, 2048, 64), s) for s in range(3))
        dfss = _peak_bytes(lambda: dfss_attention(q, k, v, pattern="2:4", backend=FAST))
        dense = _peak_bytes(lambda: _numpy_dense_attention(q, k, v))
        assert 8 * dfss <= dense, f"dfss peak {dfss} B > 1/8 of dense peak {dense} B"


class TestOneForward:
    """N:M attention has one fast forward, ``nm_attention``: the staged
    chain is only the reference oracle, never a registered fast kernel."""

    def test_sddmm_nm_is_not_a_registered_kernel(self):
        from repro.core.backend import available_kernels

        assert "sddmm_nm" not in available_kernels()
        assert {"nm_attention", "nm_attention_bwd"} <= set(available_kernels())

    @staticmethod
    def _kernel_spans(fn):
        from repro.core.backend import use_backend
        from repro.core.plan import clear_plan_cache
        from repro.profile.tracer import trace

        clear_plan_cache()
        with use_backend(FAST), trace() as active:
            fn()
        return [e["name"] for e in active.events if e.get("cat") == "kernel"]

    def test_train_step_runs_only_the_nm_kernels(self):
        from repro.nn.autograd import parameter
        from repro.nn.sparse_attention import dfss_sparse_attention

        q, k, v = (parameter(_normal((1, 2, 130, 16), s)) for s in range(3))

        def step():
            out, _ = dfss_sparse_attention(q, k, v, pattern="2:4")
            out.sum().backward()

        names = self._kernel_spans(step)
        assert sorted(set(names)) == ["nm_attention", "nm_attention_bwd"]

    @pytest.mark.parametrize(
        "mechanism,calls", [("nystromformer_dfss", 2), ("linformer_dfss", 1)]
    )
    def test_combos_run_only_nm_attention(self, mechanism, calls):
        from repro.registry import make_mechanism

        q, k, v = (_normal((1, 2, 130, 16), s) for s in range(3))
        mech = make_mechanism(mechanism, pattern="2:4")
        assert self._kernel_spans(lambda: mech(q, k, v)) == ["nm_attention"] * calls


def test_tile_buffers_are_cache_line_aligned():
    # where malloc puts a tile buffer must not decide whether the tile's
    # elementwise passes split their vector loads
    q, k, v, g = (_normal((2, 130, 8), s) for s in range(4))
    fwd = nm_attention.NMForwardJob(q, k, v, pattern="2:4")
    out, stats = get_kernel("nm_attention", FAST)(q, k, v, pattern="2:4", return_stats=True)
    bwd = nm_attention.NMBackwardJob(
        q, k, v, g, out, stats.shift, stats.denom, stats.selection, pattern="2:4",
        dropout=(0, 0.25),
    )
    for _ in range(3):
        for buf in (*fwd.new_buffer(), *bwd.new_buffer()):
            assert buf.ctypes.data % 64 == 0
            assert buf.dtype == np.float32 and buf.flags.c_contiguous
