"""Tests for the multicore tiled backend.

Bitwise parity with ``fast`` is the contract, not a tolerance: a fused job's
tiles run the fast tile code on disjoint parts of its outputs, so running
them on a pool must never perturb a bit — forward and backward, N:M and row
blocks (static and mask-built), and the serving batcher's plan calls.
The pool itself must start lazily, degenerate to inline execution at one
worker, survive env reconfiguration, and put each tile on its own worker
lane in a Chrome trace.
"""

import itertools
import threading

import numpy as np
import pytest

from repro.core.attention import dfss_attention
from repro.core.backend import FAST, MULTICORE, get_kernel
from repro.core.multicore import (
    WORKERS_ENV_VAR,
    WorkerPool,
    get_pool,
    resolve_worker_count,
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


@pytest.fixture
def rendezvous(two_workers, monkeypatch):
    # Short tiles can all be drained by whichever worker wakes first; the
    # first two tiles of every pool run meet at a barrier, so a run that
    # reached the pool provably occupies two worker lanes.
    pool = get_pool()
    run = pool.run

    def meeting_run(thunks, spans=None):
        barrier = threading.Barrier(2)
        arrivals = itertools.count()

        def meet(thunk):
            def call():
                if next(arrivals) < 2:
                    barrier.wait(timeout=5)
                return thunk()
            return call

        return run([meet(t) for t in thunks], spans)

    monkeypatch.setattr(pool, "run", meeting_run)


def _qkv(shape=SHAPE, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(shape).astype(np.float32),
        rng.standard_normal(shape).astype(np.float32),
        rng.standard_normal(shape).astype(np.float32),
    )


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

    def test_results_keep_input_order(self, two_workers):
        pool = WorkerPool()
        thunks = [(lambda i=i: i) for i in range(8)]
        assert pool.run(thunks) == list(range(8))
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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("pattern", ["1:2", "2:4"])
    def test_nm_forward_row_tiles(self, monkeypatch, workers, pattern):
        # several 256-row tiles per slice, a row count that is no multiple
        # of the tile budget, and the compressed probabilities
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        q, k, v = _qkv((2, 600, 32))
        fast, fast_w = dfss_attention(
            q, k, v, pattern=pattern, backend=FAST, return_weights=True
        )
        tiled, tiled_w = dfss_attention(
            q, k, v, pattern=pattern, backend=MULTICORE, return_weights=True
        )
        assert np.array_equal(fast, tiled)
        assert np.array_equal(fast_w.values, tiled_w.values)
        assert np.array_equal(fast_w.indices, tiled_w.indices)
        assert np.array_equal(
            tiled, dfss_attention(q, k, v, pattern=pattern, backend=MULTICORE)
        )

    def test_nm_forward_row_tiles_with_block_mask(self, monkeypatch):
        from repro.core.blocked_ell import sliding_window_mask

        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        q, k, v = _qkv((2, 1024, 32))
        mask = sliding_window_mask(1024, 64, 1)
        fast = dfss_attention(q, k, v, pattern="2:4", block_mask=mask, backend=FAST)
        tiled = dfss_attention(
            q, k, v, pattern="2:4", block_mask=mask, backend=MULTICORE
        )
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

    def test_nm_train_step_with_block_mask(self, two_workers):
        from repro.core.blocked_ell import sliding_window_mask

        q, k, v = _qkv()
        mask = sliding_window_mask(SHAPE[-2], 16, 1)
        arms = {}
        for backend in (FAST, MULTICORE):
            qt = Tensor(q, requires_grad=True)
            kt = Tensor(k, requires_grad=True)
            vt = Tensor(v, requires_grad=True)
            out, stats = dfss_sparse_attention(
                qt, kt, vt, pattern="2:4", backend=backend, block_mask=mask
            )
            (out * out).sum().backward()
            arms[backend] = (
                out.data, stats.selection, stats.shift, stats.denom, qt.grad, kt.grad, vt.grad
            )
        for fast_arr, tiled_arr in zip(arms[FAST], arms[MULTICORE]):
            assert np.array_equal(fast_arr, tiled_arr)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", ["aligned", "unaligned_dropout", "block_mask"])
    def test_nm_train_step_row_tiles(self, monkeypatch, workers, case):
        # several row blocks per slice, so dK and dV accumulate over blocks;
        # the block list depends only on the geometry, never on the workers
        from repro.core.blocked_ell import sliding_window_mask
        from repro.core.nm_attention import row_blocks

        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        seq = 1030 if case == "unaligned_dropout" else 1024
        assert len(row_blocks(seq, seq)) > 1
        mask = sliding_window_mask(seq, 64, 1) if case == "block_mask" else None
        dropout_p = 0.25 if case == "unaligned_dropout" else 0.0
        q, k, v = _qkv((3, seq, 16), seed=3)
        arms = {}
        for backend in (FAST, MULTICORE):
            qt, kt, vt = (Tensor(a, requires_grad=True) for a in (q, k, v))
            out, stats = dfss_sparse_attention(
                qt, kt, vt, pattern="2:4", backend=backend, block_mask=mask,
                dropout_p=dropout_p, dropout_rng=np.random.default_rng(7),
                training=True,
            )
            (out * out).sum().backward()
            arms[backend] = (
                out.data, stats.selection, stats.shift, stats.denom, qt.grad, kt.grad, vt.grad
            )
        for fast_arr, tiled_arr in zip(arms[FAST], arms[MULTICORE]):
            assert np.array_equal(fast_arr, tiled_arr)

    def test_mask_built_structure_forward(self, two_workers):
        from repro.baselines.longformer import longformer_mask
        from repro.core.plan import plan_for_blocks
        from repro.core.row_block import RowBlockStructure

        q, k, v = _qkv((3, 2, 200, 32))
        # band + global mask, one slice per head with its own band width:
        # each slice's blocks are its own
        mask = np.stack([longformer_mask(200, 200, w, 1) for w in (4, 40)])
        structure = RowBlockStructure.from_mask(mask)
        arms = {}
        for backend in (FAST, MULTICORE):
            plan = plan_for_blocks(structure, backend)
            arms[backend] = plan.forward(
                q, k, v, structure=structure, scale=0.125
            )
        assert np.array_equal(arms[FAST], arms[MULTICORE])

    def test_static_mask_train_step(self, two_workers):
        from repro.registry import make_core

        q, k, v = _qkv()
        arms = {}
        for backend in (FAST, MULTICORE):
            core = make_core(
                "longformer", seq_len_hint=SHAPE[-2], backend=backend,
            )
            qt = Tensor(q, requires_grad=True)
            kt = Tensor(k, requires_grad=True)
            vt = Tensor(v, requires_grad=True)
            out = core(qt, kt, vt)
            out.sum().backward()
            arms[backend] = (out.data, qt.grad, kt.grad, vt.grad)
        for fast_arr, tiled_arr in zip(arms[FAST], arms[MULTICORE]):
            assert np.array_equal(fast_arr, tiled_arr)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_serving_parity(self, workers, monkeypatch):
        from repro.serve import AttentionServer, ServeRequest

        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        rng = np.random.default_rng(7)
        mix = [
            ("longformer", {"window": 4, "num_global": 1}, 32),
            ("longformer", {"window": 4, "num_global": 1}, 32),
            ("dfss_2:4", {}, 32),
            ("dfss_2:4", {}, 30),
            ("topk", {"k": 4}, 32),
        ]
        requests = [
            ServeRequest(
                q=rng.standard_normal((3, n, 16), dtype=np.float32),
                mechanism=mechanism, options=options,
            )
            for mechanism, options, n in mix
        ]
        outputs = {}
        for backend in (FAST, MULTICORE):
            server = AttentionServer(backend=backend)
            for request in requests:
                server.enqueue(request)
            outputs[backend] = [r.output for r in server.drain()]
        for fast, tiled in zip(outputs[FAST], outputs[MULTICORE]):
            assert fast.tobytes() == tiled.tobytes()

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
        out, stats = masked_sparse_attention(
            q, k, v, self._ragged_mask(), backend=backend, **kwargs
        )
        (out * out).sum().backward()
        return (out.data, q.grad, k.grad, v.grad), stats

    def test_ragged_rows_bitwise(self, two_workers):
        fast, _ = self._run(FAST)
        tiled, _ = self._run(MULTICORE)
        for a, b in zip(fast, tiled):
            np.testing.assert_array_equal(a, b)

    def test_fully_masked_rows_get_exactly_zero_weight(self, two_workers):
        (out, dq, *_), stats = self._run(MULTICORE)
        mask = stats.structure.to_mask()
        assert not mask[..., 5, :].any() and not mask[..., 17, :].any()
        assert np.all(out[..., 5, :] == 0.0) and np.all(out[..., 17, :] == 0.0)
        assert np.all(dq[..., 5, :] == 0.0) and np.all(dq[..., 17, :] == 0.0)

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


class TestRegisteredKernels:
    @pytest.mark.parametrize("kernel", [
        "nm_attention", "nm_attention_bwd", "row_block_attention", "row_block_attention_bwd",
    ])
    def test_multicore_registers_its_own_fused_kernels(self, kernel):
        assert get_kernel(kernel, MULTICORE) is not get_kernel(kernel, FAST)

    @staticmethod
    def _assert_spans_match_fast(train_step, names):
        """The registry's tracing wrapper emits the multicore fused spans: the
        backend differs from ``fast``, the span arguments do not."""
        spans = {}
        for backend in (FAST, MULTICORE):
            with trace() as active:
                train_step(backend)
            spans[backend] = {
                e["name"]: e["args"]
                for e in active.payload()["traceEvents"]
                if e.get("cat") == "kernel" and e.get("name") in names
            }
        assert set(spans[MULTICORE]) == set(names)
        for name, args in spans[MULTICORE].items():
            fast_args = dict(spans[FAST][name])
            assert (args.pop("backend"), fast_args.pop("backend")) == (MULTICORE, FAST)
            assert "tiles" in args and args == fast_args, name

    def test_traced_train_step_kernel_spans_match_fast(self, two_workers):
        q, k, v = _qkv()

        def train_step(backend):
            qt, kt, vt = (Tensor(a, requires_grad=True) for a in (q, k, v))
            out, _ = dfss_sparse_attention(qt, kt, vt, pattern="2:4", backend=backend)
            (out * out).sum().backward()

        self._assert_spans_match_fast(train_step, ("nm_attention", "nm_attention_bwd"))

    def test_traced_row_block_train_step_spans_match_fast(self, two_workers):
        def train_step(backend):
            q, k, v = _lattice_tensors(batch=(2, 2), seq=128, d=16)
            out = make_core("longformer", seq_len_hint=128, backend=backend)(q, k, v)
            (out * out).sum().backward()

        self._assert_spans_match_fast(
            train_step, ("row_block_attention", "row_block_attention_bwd")
        )


class TestTraceIntegration:
    def test_tiles_land_on_multiple_named_worker_lanes(self, rendezvous):
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


class TestEveryStageTiles:
    """A stage that silently ran whole-batch would still match ``fast``
    bit for bit, so parity alone cannot see it: the trace must show each
    stage as several tiles on several worker lanes."""

    @pytest.mark.parametrize(
        "mechanism, seq, stages",
        [
            ("dfss_2:4", 64, ("nm_attention", "nm_attention_bwd")),
            # the row-block forward's tiles are its 64-row blocks: two of them
            ("longformer", 128, ("row_block_attention", "row_block_attention_bwd")),
        ],
        ids=["dfss_2:4", "longformer"],
    )
    def test_train_step_stages_run_as_tiles(self, rendezvous, mechanism, seq, stages):
        q, k, v = _lattice_tensors(batch=(2, 2), seq=seq, d=16)
        if mechanism.startswith("dfss"):
            def core(q, k, v):
                return dfss_sparse_attention(q, k, v, pattern="2:4", backend=MULTICORE)[0]
        else:
            core = make_core(mechanism, seq_len_hint=seq, backend=MULTICORE)
        with trace() as active:
            out = core(q, k, v)
            (out * out).sum().backward()
        lanes = {}
        for event in active.payload()["traceEvents"]:
            if event.get("name") == "mc_tile":
                lanes.setdefault(event["args"]["stage"], []).append(event["tid"])
        for stage in stages:
            tids = lanes.get(stage, [])
            assert len(tids) >= 2, f"{stage} ran as {len(tids)} tile(s)"
            assert len(set(tids)) >= 2, f"{stage} tiles ran on one lane"
