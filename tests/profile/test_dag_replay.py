"""Tests for DAG reconstruction, critical-path analysis, and the replayer."""

import numpy as np
import pytest

from repro.core.plan import clear_plan_cache
from repro.profile.dag import OpDag, OpNode, StepSpan, build_dag, critical_path, load_trace
from repro.profile.replay import gpusim_cost_fn, replay
from repro.profile.report import format_report, kernel_attribution, phase_attribution
from repro.profile.tracer import trace
from repro.registry import make_mechanism


def _record_step_payload(shape=(1, 2, 64, 32), pattern="2:4", seed=0):
    from repro.core.backend import use_backend
    from repro.nn.autograd import parameter
    from repro.nn.sparse_attention import dfss_sparse_attention

    rng = np.random.default_rng(seed)
    q = parameter(rng.standard_normal(shape, dtype=np.float32))
    k = parameter(rng.standard_normal(shape, dtype=np.float32))
    v = parameter(rng.standard_normal(shape, dtype=np.float32))
    clear_plan_cache()
    # These tests assert the exact one-kernel-per-stage event sequence of the
    # single-core fast plan; pin it so a multicore REPRO_BACKEND (which tiles
    # stages into several kernel events) doesn't change the recorded trace.
    with use_backend("fast"), trace() as active:
        # warm-up outside the step span so the recorded step is steady state
        out, _ = dfss_sparse_attention(q, k, v, pattern=pattern)
        out.sum().backward()
        with active.span("train_step", "step"):
            out, _ = dfss_sparse_attention(q, k, v, pattern=pattern)
            out.sum().backward()
    return active.payload()


def _record_core_step(mechanism, n, seed=0):
    """The trace of one fast core train step (fwd + bwd) at B1·H2·L``n``·D64."""
    from repro.core.backend import use_backend
    from repro.nn.autograd import parameter
    from repro.registry import make_core

    rng = np.random.default_rng(seed)
    q, k, v = (
        parameter(rng.standard_normal((1, 2, n, 64), dtype=np.float32)) for _ in range(3)
    )
    core = make_core(mechanism, seq_len_hint=n)
    clear_plan_cache()
    with use_backend("fast"), trace() as active:
        # warm-up outside the step span: the recorded step reuses the
        # core's structure, as every step after the first does
        core(q, k, v).sum().backward()
        with active.span("train_step", "step"):
            core(q, k, v).sum().backward()
    return active.payload()


def _hand_built_dag():
    """A diamond DAG on two lanes with a known longest path.

    Lane (1, 0):  a[dur 10] --gap 2--> b[dur 5] --gap 0--> c[dur 20]
    Lane (1, 1):  d[dur 40]

    Longest path is a->b->c: 10 + 2 + 5 + 0 + 20 = 37.
    """
    nodes = [
        OpNode(index=0, name="a", start_us=0.0, dur_us=10.0, pid=1, tid=0),
        OpNode(index=1, name="b", start_us=12.0, dur_us=5.0, pid=1, tid=0, phase="bwd"),
        OpNode(index=2, name="c", start_us=17.0, dur_us=20.0, pid=1, tid=0, phase="bwd"),
        OpNode(index=3, name="d", start_us=0.0, dur_us=40.0, pid=1, tid=1),
    ]
    edges = {0: [(1, 2.0)], 1: [(2, 0.0)], 2: [], 3: []}
    step = StepSpan(name="step", start_us=0.0, dur_us=45.0)
    return OpDag(nodes=nodes, edges=edges, step=step)


class TestLoadTrace:
    def test_rejects_payload_without_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            load_trace({"metadata": {}})

    def test_passes_dict_through(self):
        payload = {"traceEvents": []}
        assert load_trace(payload)["traceEvents"] == []


class TestBuildDag:
    def test_deterministic(self):
        payload = _record_step_payload()
        first = build_dag(payload)
        second = build_dag(payload)
        assert [n.name for n in first.nodes] == [n.name for n in second.nodes]
        assert first.edges == second.edges
        assert first.step == second.step

    def test_only_kernels_inside_step_become_nodes(self):
        payload = _record_step_payload()
        dag = build_dag(payload)
        # the warm-up iteration ran the same kernels outside the span
        all_kernels = [
            e for e in payload["traceEvents"]
            if e.get("cat") == "kernel" and e.get("ph") == "X"
        ]
        assert len(dag.nodes) < len(all_kernels)
        names = [n.name for n in dag.nodes]
        assert names == ["nm_attention", "nm_attention_bwd"]

    def test_indices_topological_and_starts_ordered(self):
        dag = build_dag(_record_step_payload())
        for u, successors in dag.edges.items():
            for v, gap in successors:
                assert v > u
                assert gap >= 0.0
        starts = [n.start_us for n in dag.nodes]
        assert starts == sorted(starts)

    def test_phases_recovered(self):
        dag = build_dag(_record_step_payload())
        assert [n.phase for n in dag.nodes] == ["fwd", "bwd"]

    def test_named_step_selection_and_error(self):
        payload = _record_step_payload()
        assert build_dag(payload, step="train_step").step.name == "train_step"
        with pytest.raises(ValueError, match="recorded steps: train_step"):
            build_dag(payload, step="nope")

    def test_lead_tail_bracket_the_step(self):
        dag = build_dag(_record_step_payload())
        assert dag.lead_us >= 0.0 and dag.tail_us >= 0.0
        kernel_span = max(n.end_us for n in dag.nodes) - min(
            n.start_us for n in dag.nodes
        )
        assert dag.lead_us + kernel_span + dag.tail_us == pytest.approx(
            dag.measured_us, rel=1e-9
        )


class TestCriticalPath:
    def test_hand_built_dag(self):
        length, path = critical_path(_hand_built_dag())
        assert length == pytest.approx(40.0)  # lane d wins: 40 > 37
        assert path == [3]

    def test_cost_override_reroutes_the_path(self):
        dag = _hand_built_dag()
        # shrink d so the chain a->b->c becomes the longest path
        costs = {0: 10.0, 1: 5.0, 2: 20.0, 3: 1.0}
        length, path = critical_path(dag, costs)
        assert length == pytest.approx(37.0)
        assert path == [0, 1, 2]

    def test_empty_dag(self):
        assert critical_path(OpDag(nodes=[], edges={})) == (0.0, [])


class TestReplay:
    def test_self_check_reconstructs_measured_wall(self):
        dag = build_dag(_record_step_payload())
        result = replay(dag)
        assert result.measured_us == pytest.approx(dag.measured_us)
        # lead + chain make-span + tail is an identity on a single-lane trace
        assert result.rel_error is not None
        assert result.rel_error < 0.10  # the acceptance gate; actually ~0
        assert result.rel_error == pytest.approx(0.0, abs=1e-9)

    def test_accepts_payload_directly(self):
        payload = _record_step_payload()
        assert replay(payload).predicted_us > 0.0

    def test_phase_scale_shrinks_prediction(self):
        dag = build_dag(_record_step_payload())
        base = replay(dag)
        faster = replay(dag, phase_scale={"bwd": 0.5})
        assert faster.predicted_us < base.predicted_us

    def test_kernel_scale_zero_removes_that_kernel_cost(self):
        dag = _hand_built_dag()
        result = replay(dag, kernel_scale={"d": 0.0})
        assert result.cost_us[3] == 0.0
        assert result.path_us == pytest.approx(37.0)

    def test_hand_built_prediction(self):
        # lead = 0, make-span = max(37, 40) = 40, tail = 45 - 40 = 5
        result = replay(_hand_built_dag())
        assert result.makespan_us == pytest.approx(40.0)
        assert result.predicted_us == pytest.approx(45.0)

    def test_gpusim_cost_fn_substitutes_modelled_kernels(self):
        dag = build_dag(_record_step_payload())
        cost = gpusim_cost_fn()
        modelled = {n.name: cost(n) for n in dag.nodes}
        assert all(v is not None and v > 0.0 for v in modelled.values())
        simulated = replay(dag, cost_fn=cost)
        assert simulated.predicted_us > 0.0
        assert simulated.predicted_us != pytest.approx(replay(dag).predicted_us)

    def test_gpusim_backward_includes_the_recompute_kernels(self):
        # the N:M backward span is priced as re-score + selection + exp
        # ahead of the five backward kernels
        from repro.gpusim import AMPERE_A100, ops

        (node,) = [
            n for n in build_dag(_record_step_payload()).nodes
            if n.name == "nm_attention_bwd"
        ]
        assert node.args["shape"] == "1x2x64x32"
        b, rows, d = 2, 64, 32
        recompute = ops.nm_attention_bwd_ops(b, rows, rows, d, "float32")
        assert [op.name for op in recompute[:2]] == ["sddmm_rescore", "softmax_recompute"]
        assert gpusim_cost_fn()(node) == pytest.approx(
            ops.total_latency(recompute, AMPERE_A100) * 1e6
        )
        five = ops.attention_bwd_nm_ops(b, rows, rows, d, "float32")
        assert gpusim_cost_fn()(node) > ops.total_latency(five, AMPERE_A100) * 1e6

    def test_gpusim_prices_nm_spans_from_their_pairs(self):
        # n_q = 256 queries against 130 keys: the spans' tiles are 256 rows
        # wide by the 132 padded keys, they score n_q x 132 pairs per slice,
        # and both kernels are priced at that key count
        from repro.gpusim import AMPERE_A100, ops
        from repro.nn.autograd import parameter
        from repro.nn.sparse_attention import dfss_sparse_attention

        rng = np.random.default_rng(0)
        q = parameter(rng.standard_normal((1, 2, 256, 32), dtype=np.float32))
        k, v = (parameter(rng.standard_normal((1, 2, 130, 32), dtype=np.float32)) for _ in "kv")
        with trace() as active:
            out, _ = dfss_sparse_attention(q, k, v, pattern="2:4", backend="fast")
            out.sum().backward()
        nodes = {n.name: n for n in build_dag(active.payload()).nodes}
        b, n_q, n_k, d = 2, 256, 132, 32
        expected = {
            "nm_attention": [
                ops.sddmm_nm_fused(b, n_q, n_k, d, "float32"),
                ops.softmax_sparse_nm(b, n_q, n_k, "float32"),
                ops.spmm_nm(b, n_q, n_k, d, "float32"),
            ],
            "nm_attention_bwd": ops.nm_attention_bwd_ops(b, n_q, n_k, d, "float32"),
        }
        cost = gpusim_cost_fn()
        for name, kernels in expected.items():
            assert nodes[name].args["tile_shape"] == f"{n_q}x{n_k}"
            assert nodes[name].args["pairs"] == b * n_q * n_k
            assert cost(nodes[name]) == pytest.approx(
                ops.total_latency(kernels, AMPERE_A100) * 1e6
            )

    def test_hybrid_spans_score_only_bigbirds_blocks(self):
        # the blocked-ELL + N:M hybrid's spans report the pairs of BigBird's
        # structure, each key block widened to whole 2:4 groups, and the
        # replay prices its N:M kernels at them, below a plain DFSS step's
        # n_q x n_k.  The whole predicted step is not compared: at L1024 it
        # is mostly the host time between the kernels, which the replay keeps
        # as measured
        trace_of = {name: _record_core_step(name, n=1024) for name in ("bigbird_dfss", "dfss_2:4")}
        structure = make_mechanism("bigbird_dfss").bigbird.cached_structure(1024, 1024)
        widened = sum(
            block.rows * 4 * np.unique(block.columns() // 4).size for block in structure.blocks
        )
        cost = gpusim_cost_fn()
        priced = {}
        for name, payload in trace_of.items():
            dag = build_dag(payload)
            nodes = {n.name: n for n in dag.nodes if n.name.startswith("nm_attention")}
            assert set(nodes) == {"nm_attention", "nm_attention_bwd"}
            pairs = {n.args["pairs"] for n in nodes.values()}
            assert pairs == {2 * (widened if name == "bigbird_dfss" else 1024 * 1024)}
            priced[name] = replay(dag, cost_fn=cost)
        assert 2 * widened < 0.5 * 2 * 1024 * 1024
        modelled = {
            name: sum(result.cost_us[n.index] for n in build_dag(trace_of[name]).nodes
                      if n.name.startswith("nm_attention"))
            for name, result in priced.items()
        }
        assert modelled["bigbird_dfss"] < modelled["dfss_2:4"]

    def test_gpusim_prices_content_mask_spans_as_row_blocks(self):
        # Top-K runs on a row-block plan over its mask's structure: both
        # kernels carry the ``row_block`` layout label and are priced from
        # the query-key pairs their tiles score
        from repro.core.backend import use_backend
        from repro.gpusim import AMPERE_A100, ops
        from repro.nn.autograd import parameter
        from repro.registry import make_core

        rng = np.random.default_rng(0)
        q, k, v = (
            parameter(rng.standard_normal((1, 2, 64, 32), dtype=np.float32))
            for _ in range(3)
        )
        core = make_core("topk", seq_len_hint=64, density=0.25)
        clear_plan_cache()
        with use_backend("fast"), trace() as active:
            with active.span("train_step", "step"):
                core(q, k, v).sum().backward()
        dag = build_dag(active.payload())
        nodes = {n.name: n for n in dag.nodes if n.name.startswith("row_block_attention")}
        assert set(nodes) == {"row_block_attention", "row_block_attention_bwd"}
        assert not any(n.name in ("masked_softmax", "spmm") for n in dag.nodes)
        cost = gpusim_cost_fn()
        for name, node in nodes.items():
            assert node.args["layout"] == "row_block" and node.args["mechanism"] == "topk"
            tiles, pairs = node.args["tiles"], node.args["pairs"]
            rows, width = (int(x) for x in node.args["tile_shape"].split("x"))
            kernels = ops.row_block_attention_ops(
                tiles, rows, width, pairs, 32, "float32", name.endswith("_bwd")
            )
            assert cost(node) == pytest.approx(ops.total_latency(kernels, AMPERE_A100) * 1e6)

    def test_gpusim_cost_fn_keeps_unmodelled_kernels(self):
        node = OpNode(index=0, name="mystery", start_us=0.0, dur_us=7.0, pid=0, tid=0)
        assert gpusim_cost_fn()(node) is None


class TestReport:
    def test_attribution_tables(self):
        dag = build_dag(_record_step_payload())
        kernels = kernel_attribution(dag)
        assert {r["kernel"] for r in kernels} == {"nm_attention", "nm_attention_bwd"}
        assert sum(r["share"] for r in kernels) == pytest.approx(1.0)
        phases = phase_attribution(dag)
        assert [r["phase"] for r in phases] == ["bwd", "fwd"]
        assert sum(r["share"] for r in phases) == pytest.approx(1.0)

    def test_format_report_sections(self):
        payload = _record_step_payload()
        dag = build_dag(payload)
        text = format_report(dag, replay(dag))
        assert "Step 'train_step'" in text
        assert "Per-kernel attribution" in text
        assert "Per-phase attribution" in text
        assert "Critical path" in text
        assert "plan_cache:" in text
