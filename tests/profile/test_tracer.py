"""Tests for the Chrome-trace tracer: event format, session lifecycle,
dispatch-layer wiring, and the cache statistics carried in trace metadata."""

import json

import numpy as np
import pytest

from repro.core.backend import FAST, MULTICORE, get_kernel, resolve_backend
from repro.core.plan import PlanKey, clear_plan_cache, get_plan, plan_cache_stats
from repro.profile import tracer as tracer_mod
from repro.profile.dag import build_dag, load_trace
from repro.profile.report import kernel_attribution
from repro.profile.tracer import Tracer, current_tracer, is_tracing, trace

REQUIRED_COMPLETE_FIELDS = {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
REQUIRED_INSTANT_FIELDS = {"name", "cat", "ph", "s", "ts", "pid", "tid", "args"}


def _record_fused_step(pattern="2:4", shape=(1, 2, 64, 32), seed=0):
    """Trace one fused DFSS forward+backward step; returns the tracer."""
    from repro.nn.autograd import parameter
    from repro.nn.sparse_attention import dfss_sparse_attention

    rng = np.random.default_rng(seed)
    q = parameter(rng.standard_normal(shape, dtype=np.float32))
    k = parameter(rng.standard_normal(shape, dtype=np.float32))
    v = parameter(rng.standard_normal(shape, dtype=np.float32))
    clear_plan_cache()
    with trace() as active:
        with active.span("train_step", "step"):
            out, _ = dfss_sparse_attention(q, k, v, pattern=pattern)
            out.sum().backward()
    return active


class TestSessionLifecycle:
    def test_disabled_by_default(self):
        assert current_tracer() is None
        assert not is_tracing()

    def test_trace_context_installs_and_uninstalls(self):
        with trace() as active:
            assert current_tracer() is active
            assert is_tracing()
        assert current_tracer() is None

    def test_start_while_active_raises(self):
        with trace():
            with pytest.raises(RuntimeError, match="already active"):
                tracer_mod.start_trace()

    def test_stop_without_active_raises(self):
        with pytest.raises(RuntimeError, match="no trace session"):
            tracer_mod.stop_trace()

    def test_uninstalls_even_when_body_raises(self):
        with pytest.raises(ValueError):
            with trace():
                raise ValueError("boom")
        assert current_tracer() is None

    def test_write_on_stop(self, tmp_path):
        path = tmp_path / "t.trace.json"
        with trace(str(path)) as active:
            active.instant("tick")
        payload = load_trace(str(path))
        assert payload["traceEvents"][0]["name"] == "tick"


class TestEventFormat:
    def test_complete_event_fields(self):
        tracer = Tracer()
        with tracer.span("op", "kernel", backend="fast"):
            pass
        (event,) = tracer.events
        assert REQUIRED_COMPLETE_FIELDS <= set(event)
        assert event["ph"] == "X"
        assert event["ts"] >= 0.0
        assert event["dur"] >= 0.0
        assert event["args"]["backend"] == "fast"
        assert event["args"]["phase"] == "fwd"

    def test_instant_event_fields(self):
        tracer = Tracer()
        tracer.instant("plan_cache_hit", mechanism="dfss")
        (event,) = tracer.events
        assert REQUIRED_INSTANT_FIELDS <= set(event)
        assert event["ph"] == "i"
        assert event["s"] == "t"
        assert event["args"]["mechanism"] == "dfss"

    def test_payload_is_json_serialisable_chrome_trace(self):
        tracer = Tracer()
        with tracer.span("op"):
            tracer.instant("hit")
        payload = json.loads(json.dumps(tracer.payload()))
        assert isinstance(payload["traceEvents"], list)
        assert payload["displayTimeUnit"] == "ms"
        assert "metadata" in payload

    def test_phase_scope_stamps_and_restores(self):
        tracer = Tracer()
        with tracer.span("fwd_op"):
            pass
        with tracer.phase_scope("bwd"):
            with tracer.span("bwd_op"):
                pass
        with tracer.span("fwd_again"):
            pass
        phases = [e["args"]["phase"] for e in tracer.events]
        assert phases == ["fwd", "bwd", "fwd"]

    def test_label_scope_merges_and_nests(self):
        tracer = Tracer()
        with tracer.label_scope(mechanism="dfss"):
            with tracer.label_scope(shape_class="1x64"):
                tracer.instant("inner")
            tracer.instant("outer")
        inner, outer = tracer.events
        assert inner["args"]["mechanism"] == "dfss"
        assert inner["args"]["shape_class"] == "1x64"
        assert "shape_class" not in outer["args"]

    def test_timestamps_consistent_with_durations(self):
        """Every span lies inside the session and dur matches its bounds."""
        active = _record_fused_step()
        spans = [e for e in active.events if e["ph"] == "X"]
        assert spans
        for event in spans:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
        step = next(e for e in spans if e["cat"] == "step")
        for event in spans:
            if event["cat"] == "kernel":
                assert event["ts"] >= step["ts"]
                assert event["ts"] + event["dur"] <= step["ts"] + step["dur"] + 1e-6


class TestDispatchWiring:
    def test_get_kernel_returns_raw_function_when_disabled(self):
        fn = get_kernel("nm_attention", FAST)
        assert get_kernel("nm_attention", FAST) is fn
        assert not hasattr(fn, "__wrapped__")

    def test_get_kernel_wraps_while_tracing(self):
        raw = get_kernel("nm_attention", FAST)
        with trace():
            wrapped = get_kernel("nm_attention", FAST)
            assert wrapped is not raw
            assert wrapped.__wrapped__ is raw
        assert get_kernel("nm_attention", FAST) is raw

    def test_fused_step_records_pipeline_kernels(self):
        active = _record_fused_step()
        names = {e["name"] for e in active.events if e.get("cat") == "kernel"}
        assert {"nm_attention", "nm_attention_bwd"} <= names

    def test_backward_kernels_stamped_bwd(self):
        active = _record_fused_step()
        kernels = [e for e in active.events if e.get("cat") == "kernel"]
        phases = {e["args"]["phase"] for e in kernels}
        assert phases == {"fwd", "bwd"}

    def test_plan_kernel_events_carry_mechanism_labels(self):
        active = _record_fused_step()
        event = next(
            e for e in active.events
            if e.get("cat") == "kernel" and e["name"] == "nm_attention"
        )
        assert event["args"]["mechanism"].startswith("dfss")
        # the kernel span's backend arg names the plan that ran: the fast or
        # reference kernel, or the multicore plan mapping the fast tiles
        assert event["args"]["backend"] == resolve_backend(None)
        assert "shape_class" in event["args"]


class TestTiledForwardSpan:
    """The row-tiled N:M inference forward is one kernel span whose args
    carry its tile geometry, output bytes and the plan's labels."""

    @pytest.mark.parametrize("backend", [FAST, MULTICORE])
    def test_one_kernel_span_with_tile_geometry(self, monkeypatch, backend):
        from repro.core.attention import dfss_attention
        from repro.core.multicore import WORKERS_ENV_VAR

        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        rng = np.random.default_rng(0)
        q, k, v = (
            rng.standard_normal((1, 2, 1024, 32), dtype=np.float32) for _ in range(3)
        )
        with trace() as active:
            with active.span("infer", "step"):
                dfss_attention(q, k, v, pattern="2:4", backend=backend)
        kernels = [e for e in active.events if e.get("cat") == "kernel"]
        assert [e["name"] for e in kernels] == ["nm_attention"]
        args = kernels[0]["args"]
        assert args["backend"] == backend
        assert args["tiles"] == 2 * 4  # two slices of four 256-row tiles
        assert args["tile_shape"] == "256x1024"
        assert args["out_bytes"] == 4 * 2 * 1024 * 32
        assert args["mechanism"] == "dfss_2:4"
        assert args["shape_class"] == "1024x1024x512"
        rows = kernel_attribution(build_dag(active.payload()))
        assert [r["kernel"] for r in rows] == ["nm_attention"]

    def test_out_bytes_count_requested_probabilities(self):
        from repro.core.attention import dfss_attention

        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((2, 64, 16), dtype=np.float32) for _ in range(3))
        with trace() as active:
            dfss_attention(q, k, v, pattern="2:4", backend=FAST, return_weights=True)
        (event,) = [e for e in active.events if e.get("cat") == "kernel"]
        kept = 2 * 64 * 32
        assert event["args"]["out_bytes"] == 4 * 2 * 64 * 16 + 5 * kept


class TestTiledBackwardSpan:
    """The N:M training backward walks the forward's row tiles; its span
    carries the same geometry plus the gradient bytes it writes."""

    def test_backward_span_carries_tile_geometry(self):
        from repro.nn.autograd import parameter
        from repro.nn.sparse_attention import dfss_sparse_attention

        rng = np.random.default_rng(0)
        q, k, v = (
            parameter(rng.standard_normal((1, 2, 1030, 16), dtype=np.float32))
            for _ in range(3)
        )
        with trace() as active:
            out, _ = dfss_sparse_attention(q, k, v, pattern="2:4", backend=FAST)
            out.sum().backward()
        (event,) = [
            e for e in active.events
            if e.get("cat") == "kernel" and e["name"] == "nm_attention_bwd"
        ]
        args = event["args"]
        assert args["phase"] == "bwd"
        # the key axis pads to 1032 lanes: five balanced row blocks per slice
        assert args["tiles"] == 2 * 5
        assert args["tile_shape"] == "206x1032"
        # dQ, plus dK and dV over the padded key axis
        assert args["out_bytes"] == 4 * 2 * 16 * (1030 + 2 * 1032)


    def test_bigbird_dfss_spans_count_the_structure_tiles(self):
        # the span arguments come from each block's key groups, not from the
        # tiles the job builds; pinned to the values of the job's own tiles
        from repro.nn.autograd import parameter
        from repro.registry import make_core

        rng = np.random.default_rng(0)
        q, k, v = (
            parameter(rng.standard_normal((1, 2, 1024, 16), dtype=np.float32))
            for _ in range(3)
        )
        core = make_core("bigbird_dfss", backend=FAST)
        with trace() as active:
            core(q, k, v).sum().backward()
        spans = {
            e["name"]: e["args"] for e in active.events
            if e.get("cat") == "kernel" and e["name"].startswith("nm_attention")
        }
        for name, out_bytes in (("nm_attention", 329728), ("nm_attention_bwd", 393216)):
            args = spans[name]
            assert (args["tiles"], args["tile_shape"], args["pairs"], args["out_bytes"]) == (
                32, "64x1024", 729088, out_bytes
            ), name


class TestRowBlockSpans:
    """The static-mask kernels walk key blocks; both spans carry the block
    tiles, the largest tile and the bytes they write, and gpusim costs them."""

    def test_forward_and_backward_spans_carry_block_geometry(self):
        from repro.nn.autograd import parameter
        from repro.nn.sparse_attention import row_block_sparse_attention
        from repro.gpusim import AMPERE_A100, ops
        from repro.profile.dag import build_dag
        from repro.profile.replay import gpusim_cost_fn
        from repro.registry import make_mechanism

        structure = make_mechanism("longformer", window=32).block_structure(1024, 1024)
        rng = np.random.default_rng(0)
        q, k, v = (
            parameter(rng.standard_normal((1, 2, 1024, 16), dtype=np.float32))
            for _ in range(3)
        )
        with trace() as active:
            out, _ = row_block_sparse_attention(q, k, v, structure, backend=FAST)
            out.sum().backward()
        kernels = {
            e["name"]: e for e in active.events
            if e.get("cat") == "kernel" and e["name"].startswith("row_block")
        }
        fwd = kernels["row_block_attention"]["args"]
        bwd = kernels["row_block_attention_bwd"]["args"]
        assert (fwd["phase"], bwd["phase"]) == ("fwd", "bwd")
        # sixteen 64-row blocks per slice; the first is the global row's
        # dense tile, the others read 1 global + 64 + 2 * 32 window keys
        # (the last block's window ends at the last key: 1 + 64 + 32)
        pairs = 64 * 1024 + 14 * 64 * 129 + 64 * 97
        assert structure.pairs == pairs
        for args in (fwd, bwd):
            assert args["tiles"] == 2 * 16
            assert args["tile_shape"] == "64x1024"
            assert args["pairs"] == 2 * pairs
        # the training forward writes the output and each row's shift and
        # denominator, no block probabilities
        assert fwd["out_bytes"] == 4 * 2 * 1024 * (16 + 2)
        assert bwd["out_bytes"] == 4 * 3 * 2 * 1024 * 16
        cost = gpusim_cost_fn()
        nodes = {
            n.name: n for n in build_dag(active.payload()).nodes if n.name.startswith("row_block")
        }
        assert len(nodes) == 2
        # the backward re-scores and rebuilds P ahead of its five products;
        # both are priced at the pairs their tiles score
        fwd_ops = ops.row_block_attention_ops(2 * 16, 64, 1024, 2 * pairs, 16, "float32")
        bwd_ops = ops.row_block_attention_ops(
            2 * 16, 64, 1024, 2 * pairs, 16, "float32", backward=True
        )
        assert [op.name for op in fwd_ops] == ["block_qk", "softmax", "block_pv"]
        assert [op.name for op in bwd_ops] == [
            "block_qk", "softmax",
            "block_dv", "block_dp", "softmax", "block_dq", "block_dk",
        ]
        priced = {"row_block_attention": fwd_ops, "row_block_attention_bwd": bwd_ops}
        for name, kernels in priced.items():
            expected = ops.total_latency(kernels, AMPERE_A100) * 1e6
            assert cost(nodes[name]) == pytest.approx(expected)


    def test_block_products_are_priced_at_the_scored_pairs(self):
        # Longformer at L1024, window 32: one dense block among fifteen
        # window blocks, so pricing every tile at the largest overcounts the
        # block products by tiles·rows·width / pairs, about 5.6x
        from repro.gpusim import AMPERE_A100, ops
        from repro.profile.replay import gpusim_cost_fn
        from repro.registry import make_mechanism

        structure = make_mechanism("longformer", window=32).block_structure(1024, 1024)
        d = 64
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((1, 2, 1024, d), dtype=np.float32) for _ in range(3))
        with trace() as active:
            get_kernel("row_block_attention", FAST)(q, k, v, structure)
        (node,) = [n for n in build_dag(active.payload()).nodes if n.name == "row_block_attention"]
        pairs = node.args["pairs"]
        assert pairs == 2 * sum(b.rows * b.width for b in structure.blocks)
        priced = ops.row_block_attention_ops(2 * 16, 64, 1024, pairs, d, "float32")
        assert priced[0].name == "block_qk"
        assert priced[0].flops == pytest.approx(2 * d * pairs, rel=1e-12)
        assert gpusim_cost_fn()(node) == pytest.approx(
            ops.total_latency(priced, AMPERE_A100) * 1e6
        )
        largest = ops.row_block_attention_ops(2 * 16, 64, 1024, 2 * 16 * 64 * 1024, d, "float32")
        assert largest[0].flops / priced[0].flops == pytest.approx(16 * 64 * 1024 / (pairs / 2))


class TestCacheStats:
    def test_plan_cache_stats_shape(self):
        clear_plan_cache()
        key = PlanKey("dfss_2:4", "nm", FAST, "float32", (16, 16, 8))
        get_plan(key)
        get_plan(key)
        stats = plan_cache_stats()
        assert stats == {"size": 1, "hits": 1, "misses": 1, "evictions": 0}

    def test_plan_cache_instants_and_metadata(self):
        clear_plan_cache()
        key = PlanKey("dfss_2:4", "nm", FAST, "float32", (16, 16, 8))
        with trace() as active:
            get_plan(key)
            get_plan(key)
        names = [e["name"] for e in active.events if e.get("cat") == "cache"]
        assert names.count("plan_cache_miss") == 1
        assert names.count("plan_cache_hit") == 1
        stats = active.metadata["plan_cache"]
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_session_hook_clears_plan_cache_at_both_ends(self):
        key = PlanKey("dfss_2:4", "nm", FAST, "float32", (16, 16, 8))
        get_plan(key)
        with trace():
            assert plan_cache_stats()["size"] == 0  # cleared at start
            get_plan(key)
        assert plan_cache_stats()["size"] == 0  # cleared at stop

    def test_structure_cache_session_totals_in_metadata(self):
        from repro.serve import serve
        from repro.serve.workload import synthetic_workload

        requests = synthetic_workload(6, seq_lens=(32, 64), head_dim=16, seed=0)
        with trace() as active:
            serve(requests, max_batch_size=4)
        stats = active.metadata["structure_cache"]
        assert set(stats) == {"hits", "misses", "evictions"}
        assert stats["misses"] >= 1

    def test_metadata_provider_failure_is_contained(self):
        name = "test_failing_provider"
        tracer_mod.register_metadata_provider(
            name, lambda: (_ for _ in ()).throw(RuntimeError("nope"))
        )
        try:
            with trace() as active:
                pass
            assert "provider failed" in active.metadata[name]
        finally:
            tracer_mod._METADATA_PROVIDERS.pop(name, None)
