"""Smoke tests for ``python -m repro.profile`` — the commands CI runs."""

import json

import pytest

from repro.profile.__main__ import main

# Pin the fast backend: these tests assert replay-accuracy and event-sequence
# properties of the single-core plan; a multicore $REPRO_BACKEND tiles stages
# across worker lanes the replay cannot model on an oversubscribed runner.
TINY = ["--shape", "1", "2", "64", "32", "--warmup", "1", "--backend", "fast"]


class TestTrain:
    def test_train_check_passes(self, capsys):
        assert main(["train", *TINY, "--check"]) == 0
        out = capsys.readouterr().out
        assert "replay self-check OK" in out
        assert "Per-kernel attribution" in out

    def test_train_writes_valid_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "train.trace.json"
        assert main(["train", *TINY, "--trace", str(path), "--check"]) == 0
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list)
        cats = {e.get("cat") for e in payload["traceEvents"]}
        assert {"kernel", "step"} <= cats
        assert "plan_cache" in payload["metadata"]

    def test_train_what_ifs(self, capsys):
        assert main(
            ["train", *TINY, "--gpusim", "--scale-phase", "bwd=0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "What-if" in out
        assert "Gpusim replay" in out

    def test_bad_scale_pair_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", *TINY, "--scale-phase", "bwd"])


class TestServe:
    def test_serve_check_passes(self, capsys):
        assert main(
            ["serve", "--requests", "6", "--batch-size", "4", "--check"]
        ) == 0
        assert "replay self-check OK" in capsys.readouterr().out


class TestReport:
    def test_report_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "step.trace.json"
        assert main(["train", *TINY, "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "Step 'train_step'" in out
        assert "replay self-check OK" in out

    def test_report_unknown_step_fails(self, tmp_path):
        path = tmp_path / "step.trace.json"
        assert main(["train", *TINY, "--trace", str(path)]) == 0
        with pytest.raises(ValueError, match="recorded steps"):
            main(["report", str(path), "--step", "nope"])


class TestOverhead:
    def test_overhead_runs(self, capsys):
        assert main(["overhead", *TINY, "--repeats", "2"]) == 0
        assert "tracing overhead" in capsys.readouterr().out


def _small_classifier(mechanism="dfss_2:4"):
    """A one-layer classifier and a batch small enough to weigh in a test."""
    import numpy as np

    from repro.nn import Adam, SequenceClassifier, TransformerEncoder

    encoder = TransformerEncoder(
        50, 16, mechanism=mechanism, seed=0, model_dim=16, num_heads=2, num_layers=1,
        ffn_dim=32,
    )
    model = SequenceClassifier(encoder, 2, seed=1)
    tokens = np.random.default_rng(0).integers(0, 50, (2, 16))
    labels = np.array([0, 1])
    return (lambda: model.loss(tokens, labels)), model, Adam(model.parameters(), lr=1e-2)


class TestMemory:
    def test_memory_prints_the_node_table(self, capsys):
        assert main(["memory"]) == 0
        out = capsys.readouterr().out
        assert "| # | node (backward order) | output shape | start | peak | end |" in out
        nodes = int(out.split(" nodes)")[0].rsplit("(", 1)[1])
        assert out.count("\n| ") == 2 + nodes  # header, rule, one line per node
        assert "step peak" in out

    def test_rows_follow_the_walk(self):
        from repro.profile.memory import step_memory

        loss_fn, _, opt = _small_classifier("full")
        loss_fn().backward()  # a warm-up step, so Adam's moments exist
        opt.step()
        memory = step_memory(loss_fn, opt)
        names = [node.name for node in memory.nodes]
        assert names[0] == "neg"  # the cross-entropy's last op runs first
        assert {"layer_norm", "gelu", "linear"} <= set(names)
        for node in memory.nodes:
            assert node.peak_mib >= max(node.start_mib, node.end_mib)
        assert memory.peak_mib >= memory.graph_mib > 0

    def test_a_weighed_step_trains_as_a_plain_one(self):
        from repro.profile.memory import step_memory

        params = []
        for weigh in (True, False):
            loss_fn, model, opt = _small_classifier()
            if weigh:
                step_memory(loss_fn, opt)
            else:
                opt.zero_grad()
                loss_fn().backward()
                opt.step()
            params.append([p.data.tobytes() for p in model.parameters()])
        assert params[0] == params[1]

    def test_the_weighed_model_is_perfbench_train_short(self, monkeypatch):
        # the tool names train_short's model and batch once; read them back
        # from the benchmark's workload so the two cannot drift apart
        import importlib
        import pathlib

        from repro.profile import memory

        perfbench = pathlib.Path(__file__).resolve().parents[2] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        train_short = importlib.import_module("workloads").TrainShort
        assert (
            memory.TRAIN_SHORT_BATCH, memory.TRAIN_SHORT_SEQ,
            memory.TRAIN_SHORT_VOCAB, memory.TRAIN_SHORT_CLASSES,
        ) == (train_short.BATCH, train_short.SEQ, train_short.VOCAB, train_short.CLASSES)
        assert memory.TRAIN_SHORT_MODEL == train_short.MODEL
