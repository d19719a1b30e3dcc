"""Tests for the multicore tiled backend.

Bitwise parity with ``fast`` is the contract, not a tolerance: every kernel
in the fused chain is per-leading-slice independent, so tiling the flattened
batch×head dimension must never perturb a bit — forward and backward, N:M
and ragged CSR, and the grouped serving path.
The pool itself must start lazily, degenerate to inline execution at one
worker, survive env reconfiguration, and put each tile on its own worker
lane in a Chrome trace.
"""

import numpy as np
import pytest

from repro.core.attention import dfss_attention
from repro.core.backend import FAST, MULTICORE, use_backend
from repro.core.multicore import (
    WORKERS_ENV_VAR,
    WorkerPool,
    resolve_worker_count,
    slice_costs,
    tile_slices,
)
from repro.nn.autograd import Tensor
from repro.nn.layers import Dropout
from repro.nn.sparse_attention import dfss_sparse_attention, masked_sparse_attention
from repro.profile.tracer import trace
from repro.registry import available_mechanisms, find_spec, make_core

#: Every mechanism whose spec advertises a compressed execution path; the
#: tiled plan must be invisible to all of them.
COMPRESSED_MECHANISMS = tuple(
    name for name in available_mechanisms() if find_spec(name).compressed
)
#: The compressed mechanisms whose core applies attention dropout (the
#: Nystrom landmark kernels have no attention-probability dropout).
DROPOUT_MECHANISMS = tuple(
    name for name in COMPRESSED_MECHANISMS if name != "nystromformer_dfss"
)

SHAPE = (3, 2, 64, 32)


@pytest.fixture
def two_workers(monkeypatch):
    """Force a two-worker pool so the tiled paths execute even on one core."""
    monkeypatch.setenv(WORKERS_ENV_VAR, "2")
    yield
    # monkeypatch restores the env; the shared pool re-resolves it (and
    # rebuilds if needed) on its next run, so no manual cleanup is required


def _qkv(shape=SHAPE, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(shape).astype(np.float32),
        rng.standard_normal(shape).astype(np.float32),
        rng.standard_normal(shape).astype(np.float32),
    )


class TestTileSlices:
    def test_degenerate_inputs_collapse_to_one_slice(self):
        assert tile_slices(1, 8) == [slice(0, 1)]
        assert tile_slices(8, 1) == [slice(0, 8)]
        assert tile_slices(0, 4) == [slice(0, 0)]

    def test_uniform_slices_partition_the_batch(self):
        slices = tile_slices(16, 2)
        assert slices[0].start == 0 and slices[-1].stop == 16
        for a, b in zip(slices, slices[1:]):
            assert a.stop == b.start
        # oversubscribed beyond the worker count, bounded by the batch
        assert 2 <= len(slices) <= 16

    def test_cost_balancing_isolates_a_heavy_index(self):
        costs = np.array([100.0, 1, 1, 1, 1, 1, 1, 1])
        slices = tile_slices(8, 2, costs)
        assert slices[0] == slice(0, 1)  # the heavy index gets its own tile
        assert slices[0].start == 0 and slices[-1].stop == 8
        for a, b in zip(slices, slices[1:]):
            assert a.stop == b.start

    def test_cost_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            tile_slices(8, 2, np.ones(5))

    def test_zero_costs_fall_back_to_uniform(self):
        assert tile_slices(8, 2, np.zeros(8)) == tile_slices(8, 2)

    def test_slice_costs(self):
        costs = np.arange(8, dtype=float)
        slices = [slice(0, 4), slice(4, 8)]
        assert slice_costs(slices, costs) == [6.0, 22.0]
        assert slice_costs(slices, None) is None


class TestWorkerPoolLifecycle:
    def test_lazy_start_and_clean_shutdown(self, two_workers):
        pool = WorkerPool()
        assert not pool.started
        assert pool.run([lambda: 1]) == [1]  # single thunk: inline, no pool
        assert not pool.started
        assert pool.run([lambda: 1, lambda: 2]) == [1, 2]
        assert pool.started
        pool.shutdown()
        assert not pool.started
        pool.shutdown()  # idempotent

    def test_one_worker_degenerates_inline(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        pool = WorkerPool()
        thunks = [(lambda i=i: i) for i in range(4)]
        assert pool.run(thunks) == [0, 1, 2, 3]
        assert not pool.started

    def test_results_keep_input_order_despite_cost_ordering(self, two_workers):
        pool = WorkerPool()
        thunks = [(lambda i=i: i) for i in range(8)]
        assert pool.run(thunks, costs=list(range(8))) == list(range(8))
        pool.shutdown()

    def test_executor_reused_across_runs(self, two_workers):
        pool = WorkerPool()
        pool.run([lambda: 1, lambda: 2])
        executor = pool._executor
        pool.run([lambda: 3, lambda: 4])
        assert pool._executor is executor
        pool.shutdown()

    def test_worker_count_change_rebuilds_pool(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        pool = WorkerPool()
        pool.run([lambda: 1, lambda: 2])
        executor = pool._executor
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert pool.workers == 3
        pool.run([lambda: 1, lambda: 2])
        assert pool._executor is not executor
        pool.shutdown()

    def test_exceptions_propagate(self, two_workers):
        pool = WorkerPool()

        def boom():
            raise RuntimeError("tile failed")

        with pytest.raises(RuntimeError, match="tile failed"):
            pool.run([lambda: 1, boom])
        pool.shutdown()

    def test_resolve_worker_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_worker_count() >= 1
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_worker_count() == 3
        assert resolve_worker_count(2) == 2  # explicit arg beats the env
        assert resolve_worker_count(0) == 1  # floored at one
        monkeypatch.setenv(WORKERS_ENV_VAR, "garbage")
        with pytest.raises(ValueError):
            resolve_worker_count()


class TestBitwiseParity:
    @pytest.mark.parametrize("pattern", ["1:2", "2:4"])
    def test_nm_forward(self, two_workers, pattern):
        q, k, v = _qkv()
        fast = dfss_attention(q, k, v, pattern=pattern, backend=FAST)
        tiled = dfss_attention(q, k, v, pattern=pattern, backend=MULTICORE)
        assert np.array_equal(fast, tiled)

    @pytest.mark.parametrize("pattern", ["1:2", "2:4"])
    def test_nm_train_step(self, two_workers, pattern):
        q, k, v = _qkv()
        arms = {}
        for backend in (FAST, MULTICORE):
            qt = Tensor(q, requires_grad=True)
            kt = Tensor(k, requires_grad=True)
            vt = Tensor(v, requires_grad=True)
            out, _ = dfss_sparse_attention(
                qt, kt, vt, pattern=pattern, backend=backend
            )
            out.sum().backward()
            arms[backend] = (out.data, qt.grad, kt.grad, vt.grad)
        for fast_arr, tiled_arr in zip(arms[FAST], arms[MULTICORE]):
            assert np.array_equal(fast_arr, tiled_arr)

    def test_ragged_csr_forward(self, two_workers):
        from repro.baselines.longformer import longformer_mask
        from repro.core.padded_csr import PaddedCSRMatrix
        from repro.core.plan import plan_for_structure

        q, k, v = _qkv()
        # band + global mask: ragged row lengths exercise the cost-balanced
        # tile scheduler (the global row is full-width, band rows narrow)
        mask = longformer_mask(SHAPE[-2], SHAPE[-2], 8, 1)
        structure = PaddedCSRMatrix.from_mask(mask).broadcast_to(q.shape[:-2])
        arms = {}
        for backend in (FAST, MULTICORE):
            plan = plan_for_structure(structure, backend)
            arms[backend] = plan.forward(
                q, k, v, structure=structure, scale=0.125
            )
        assert np.array_equal(arms[FAST], arms[MULTICORE])

    def test_ragged_csr_train_step(self, two_workers):
        from repro.registry import make_core

        q, k, v = _qkv()
        arms = {}
        for backend in (FAST, MULTICORE):
            core = make_core(
                "longformer", seq_len_hint=SHAPE[-2], path="sparse",
                backend=backend,
            )
            qt = Tensor(q, requires_grad=True)
            kt = Tensor(k, requires_grad=True)
            vt = Tensor(v, requires_grad=True)
            out = core(qt, kt, vt)
            out.sum().backward()
            arms[backend] = (out.data, qt.grad, kt.grad, vt.grad)
        for fast_arr, tiled_arr in zip(arms[FAST], arms[MULTICORE]):
            assert np.array_equal(fast_arr, tiled_arr)

    def test_grouped_serving_parity(self, two_workers):
        from repro.baselines.longformer import longformer_mask
        from repro.core.padded_csr import PaddedCSRMatrix
        from repro.serve.executor import grouped_attention

        rng = np.random.default_rng(7)
        g, rows, d = 6, 32, 16
        structure = PaddedCSRMatrix.from_mask(longformer_mask(rows, rows, 4, 1))
        q3 = rng.standard_normal((g, rows, d)).astype(np.float32)
        k3 = rng.standard_normal((g, rows, d)).astype(np.float32)
        v3 = rng.standard_normal((g, rows, d)).astype(np.float32)
        with use_backend(FAST):
            stacked = grouped_attention(q3, k3, v3, structure)
        with use_backend(MULTICORE):
            tiled = grouped_attention(q3, k3, v3, structure)
        assert np.array_equal(stacked, tiled)

    def test_workers_one_is_exactly_the_fast_plan(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        q, k, v = _qkv()
        fast = dfss_attention(q, k, v, pattern="1:2", backend=FAST)
        inline = dfss_attention(q, k, v, pattern="1:2", backend=MULTICORE)
        assert np.array_equal(fast, inline)


def _lattice(shape, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(-2, 3, size=shape) / 2).astype(np.float32)


def _lattice_tensors(batch=(2, 3), seq=32, d=16, seed=0):
    shape = tuple(batch) + (seq, d)
    return tuple(
        Tensor(_lattice(shape, seed=seed + i), requires_grad=True) for i in range(3)
    )


def _run_core(mechanism, backend, dropout=0.0, seed=1):
    """One fwd+bwd pass of the mechanism's trainable core on ``backend``."""
    q, k, v = _lattice_tensors(seed=seed)
    try:
        core = make_core(mechanism, seq_len_hint=32, path="sparse", backend=backend)
    except TypeError:  # hybrid cores without a path switch are already sparse
        core = make_core(mechanism, seq_len_hint=32, backend=backend)
    if dropout:
        core.attn_dropout = Dropout(dropout, seed=5)
    out = core(q, k, v)
    (out * out).sum().backward()
    return out.data, q.grad, k.grad, v.grad


class TestMechanismMatrix:
    def test_the_matrix_is_not_empty(self):
        assert {"dfss", "topk", "longformer", "bigbird"} <= set(
            COMPRESSED_MECHANISMS
        )

    @pytest.mark.parametrize("mechanism", COMPRESSED_MECHANISMS)
    def test_multicore_bitwise_equals_fast(self, two_workers, mechanism):
        fast = _run_core(mechanism, FAST)
        tiled = _run_core(mechanism, MULTICORE)
        for name, a, b in zip(("out", "dq", "dk", "dv"), fast, tiled):
            assert a is not None and b is not None
            np.testing.assert_array_equal(a, b, err_msg=f"{mechanism}:{name}")

    @pytest.mark.parametrize("mechanism", DROPOUT_MECHANISMS)
    def test_multicore_bitwise_equals_fast_under_dropout(
        self, two_workers, mechanism
    ):
        # the dropout draw is made once per call over the whole batch, so
        # tiling must not change which probabilities are dropped
        fast = _run_core(mechanism, FAST, dropout=0.25)
        tiled = _run_core(mechanism, MULTICORE, dropout=0.25)
        assert not np.array_equal(fast[0], _run_core(mechanism, FAST)[0])
        for name, a, b in zip(("out", "dq", "dk", "dv"), fast, tiled):
            np.testing.assert_array_equal(a, b, err_msg=f"{mechanism}:{name}")


class TestRaggedAndFullyMaskedRows:
    @staticmethod
    def _ragged_mask(seq=24):
        # ragged band + global columns, with two fully-masked rows
        mask = np.triu(np.tril(np.ones((seq, seq), dtype=bool), 3), -6)
        mask[:, :2] = True
        mask[5] = False
        mask[17] = False
        return mask

    def _run(self, backend, dropout=0.0, seed=3):
        q, k, v = _lattice_tensors(batch=(2, 2), seq=24, d=16, seed=seed)
        kwargs = {}
        if dropout:
            kwargs = dict(
                dropout_p=dropout,
                dropout_rng=np.random.default_rng(123),
                training=True,
            )
        out, probs = masked_sparse_attention(
            q, k, v, self._ragged_mask(), backend=backend, **kwargs
        )
        (out * out).sum().backward()
        return (out.data, q.grad, k.grad, v.grad), probs

    def test_ragged_rows_bitwise(self, two_workers):
        fast, _ = self._run(FAST)
        tiled, _ = self._run(MULTICORE)
        for a, b in zip(fast, tiled):
            np.testing.assert_array_equal(a, b)

    def test_fully_masked_rows_get_exactly_zero_weight(self, two_workers):
        (out, *_), probs = self._run(MULTICORE)
        dense = probs.to_dense(0.0)
        assert np.all(dense[..., 5, :] == 0.0) and np.all(dense[..., 17, :] == 0.0)
        assert np.all(out[..., 5, :] == 0.0) and np.all(out[..., 17, :] == 0.0)

    def test_dropout_bitwise_under_the_same_seed(self, two_workers):
        fast, _ = self._run(FAST, dropout=0.25)
        tiled, _ = self._run(MULTICORE, dropout=0.25)
        for a, b in zip(fast, tiled):
            np.testing.assert_array_equal(a, b)

    def test_nm_dropout_bitwise(self, two_workers):
        arms = {}
        for backend in (FAST, MULTICORE):
            q, k, v = _lattice_tensors(seed=7)
            out, _ = dfss_sparse_attention(
                q, k, v, pattern="2:4", backend=backend,
                dropout_p=0.25, dropout_rng=np.random.default_rng(99),
                training=True,
            )
            (out * out).sum().backward()
            arms[backend] = (out.data, q.grad, k.grad, v.grad)
        for a, b in zip(arms[FAST], arms[MULTICORE]):
            np.testing.assert_array_equal(a, b)


class TestTraceIntegration:
    def test_tiles_land_on_multiple_named_worker_lanes(self, two_workers):
        q, k, v = _qkv((4, 2, 64, 32))
        with trace() as active:
            dfss_attention(q, k, v, pattern="1:2", backend=MULTICORE)
        payload = active.payload()
        tiles = [
            e for e in payload["traceEvents"] if e.get("name") == "mc_tile"
        ]
        assert tiles, "no mc_tile spans recorded"
        assert len({e["tid"] for e in tiles}) >= 2
        for event in tiles:
            assert {"stage", "tile", "rows", "shape", "workers"} <= set(
                event["args"]
            )
            assert event["args"]["workers"] == 2
        lane_names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert any(name.startswith("repro-mc") for name in lane_names)
