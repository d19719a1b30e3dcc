"""Tests for the Chrome-trace tracer: event format, session lifecycle,
dispatch-layer wiring, and the cache statistics carried in trace metadata."""

import json

import numpy as np
import pytest

from repro.core.backend import FAST, available_backends, get_kernel
from repro.core.plan import PlanKey, clear_plan_cache, get_plan, plan_cache_stats
from repro.profile import tracer as tracer_mod
from repro.profile.dag import load_trace
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
        fn = get_kernel("spmm", FAST)
        assert get_kernel("spmm", FAST) is fn
        assert not hasattr(fn, "__wrapped__")

    def test_get_kernel_wraps_while_tracing(self):
        raw = get_kernel("spmm", FAST)
        with trace():
            wrapped = get_kernel("spmm", FAST)
            assert wrapped is not raw
            assert wrapped.__wrapped__ is raw
        assert get_kernel("spmm", FAST) is raw

    def test_fused_step_records_pipeline_kernels(self):
        active = _record_fused_step()
        names = {e["name"] for e in active.events if e.get("cat") == "kernel"}
        assert {"sddmm_nm", "masked_softmax", "spmm"} <= names

    def test_backward_kernels_stamped_bwd(self):
        active = _record_fused_step()
        kernels = [e for e in active.events if e.get("cat") == "kernel"]
        phases = {e["args"]["phase"] for e in kernels}
        assert phases == {"fwd", "bwd"}

    def test_plan_kernel_events_carry_mechanism_labels(self):
        active = _record_fused_step()
        event = next(
            e for e in active.events
            if e.get("cat") == "kernel" and e["name"] == "sddmm_nm"
        )
        assert event["args"]["mechanism"].startswith("dfss")
        # the kernel span's backend arg tells the fast plan from the reference one
        assert event["args"]["backend"] in available_backends("sddmm_nm")
        assert "shape_class" in event["args"]


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
