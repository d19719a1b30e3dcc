"""Tests for the benchmark runner, its JSON artifact, and the CI perf gate."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchShape,
    format_table,
    load_payload,
    results_to_payload,
    run_benchmarks,
    write_payload,
)
from repro.bench.runner import BENCH_KERNELS

REPO_ROOT = Path(__file__).resolve().parents[2]
TINY = BenchShape(batch=1, heads=2, seq_len=32, head_dim=16)


def _load_gate():
    path = REPO_ROOT / "scripts" / "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny_results():
    return run_benchmarks(repeats=2, warmup=0, patterns=("2:4",), shape=TINY)


class TestRunner:
    def test_rows_cover_kernels_and_backends(self, tiny_results):
        combos = {(r.kernel, r.backend) for r in tiny_results}
        assert combos == {(k, b) for k in BENCH_KERNELS for b in ("reference", "fast")}

    def test_reference_rows_are_the_baseline(self, tiny_results):
        for r in tiny_results:
            if r.backend == "reference":
                assert r.speedup == 1.0
                assert r.parity_max_rel_err is None
            else:
                assert r.speedup > 0
                assert r.parity_max_rel_err is not None
                assert r.parity_max_rel_err < 1e-2

    def test_timings_are_positive(self, tiny_results):
        for r in tiny_results:
            assert 0 < r.p10_s <= r.median_s <= r.p90_s
            assert len(r.timings_s) == 2

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            run_benchmarks(scale="gigantic")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernels"):
            run_benchmarks(kernels=["warp_drive"], shape=TINY)


class TestReport:
    def test_payload_roundtrip(self, tiny_results, tmp_path):
        payload = results_to_payload(tiny_results, scale="smoke", repeats=2)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["shape"] == "B1xH2xL32xD16"
        assert len(payload["results"]) == len(tiny_results)
        for row in payload["results"]:
            assert set(row) == {
                "kernel", "shape", "backend", "median_s", "p10_s", "p90_s",
                "speedup", "parity_max_rel_err",
            }
        out = tmp_path / "BENCH_kernels.json"
        write_payload(out, payload)
        assert load_payload(out) == json.loads(out.read_text())

    def test_load_rejects_other_schema(self, tmp_path):
        out = tmp_path / "bad.json"
        out.write_text(json.dumps({"schema_version": 99, "results": []}))
        with pytest.raises(ValueError, match="schema_version"):
            load_payload(out)

    def test_format_table_mentions_every_kernel(self, tiny_results):
        table = format_table(tiny_results)
        for kernel in BENCH_KERNELS:
            assert kernel in table

    def test_cli_writes_artifact(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out = tmp_path / "BENCH_kernels.json"
        rc = main([
            "--shape", "1x2x32x16", "--repeats", "1", "--warmup", "0",
            "--patterns", "2:4", "--kernels", "spmm", "--output", str(out),
        ])
        assert rc == 0
        payload = load_payload(out)
        assert {row["kernel"] for row in payload["results"]} == {"spmm"}
        assert "spmm" in capsys.readouterr().out


class TestPerfGate:
    @pytest.fixture()
    def payloads(self, tiny_results):
        payload = results_to_payload(tiny_results, scale="smoke", repeats=2)
        return payload, copy.deepcopy(payload)

    def test_identical_payloads_pass(self, payloads):
        gate = _load_gate()
        base, fresh = payloads
        failures, _ = gate.check(
            fresh, base, min_e2e_speedup=0.0, min_train_speedup=0.0,
            min_matrix_speedup=0.0,
        )
        assert failures == []

    def test_parity_mismatch_fails(self, payloads):
        gate = _load_gate()
        base, fresh = payloads
        for row in fresh["results"]:
            if row["backend"] == "fast" and row["kernel"] == "spmm":
                row["parity_max_rel_err"] = 0.5
        failures, _ = gate.check(fresh, base, min_e2e_speedup=0.0, min_train_speedup=0.0)
        assert any("parity" in f for f in failures)

    def test_single_kernel_slowdown_fails(self, payloads):
        gate = _load_gate()
        base, fresh = payloads
        for row in fresh["results"]:
            if row["kernel"] == "spmm" and row["backend"] == "fast":
                # a real 10x regression moves both the median and the speedup
                row["median_s"] *= 10.0
                row["speedup"] /= 10.0
        failures, _ = gate.check(fresh, base, min_e2e_speedup=0.0, min_train_speedup=0.0)
        assert any("slowdown" in f or "speedup" in f for f in failures)

    def test_uniform_machine_slowdown_passes(self, payloads):
        gate = _load_gate()
        base, fresh = payloads
        for row in fresh["results"]:
            row["median_s"] *= 3.0
            row["p10_s"] *= 3.0
            row["p90_s"] *= 3.0
        failures, _ = gate.check(
            fresh, base, min_e2e_speedup=0.0, min_train_speedup=0.0,
            min_matrix_speedup=0.0,
        )
        assert failures == []

    def test_missing_row_fails_coverage(self, payloads):
        gate = _load_gate()
        base, fresh = payloads
        fresh["results"] = [r for r in fresh["results"] if r["kernel"] != "masked_softmax"]
        failures, _ = gate.check(fresh, base, min_e2e_speedup=0.0, min_train_speedup=0.0)
        assert any("coverage" in f for f in failures)

    def test_speedup_collapse_fails(self, payloads):
        gate = _load_gate()
        base, fresh = payloads
        for row in fresh["results"]:
            if row["backend"] == "fast":
                row["speedup"] = 0.1
        failures, _ = gate.check(fresh, base, min_e2e_speedup=0.0, min_train_speedup=0.0)
        assert any("speedup" in f for f in failures)

    def test_e2e_floor(self, payloads):
        gate = _load_gate()
        base, fresh = payloads
        for row in fresh["results"]:
            if row["kernel"] == "attention_e2e" and row["backend"] == "fast":
                row["speedup"] = 2.0
        failures, _ = gate.check(fresh, base, min_e2e_speedup=3.0, min_train_speedup=0.0)
        assert any("e2e floor" in f for f in failures)

    def test_train_floor(self, payloads):
        gate = _load_gate()
        base, fresh = payloads
        for row in fresh["results"]:
            if row["kernel"] == "attention_train_step" and row["backend"] == "fast":
                row["speedup"] = 1.2
        failures, _ = gate.check(
            fresh, base, min_e2e_speedup=0.0, min_train_speedup=2.0
        )
        assert any("train floor" in f for f in failures)

    def test_train_floor_requires_rows(self, payloads):
        gate = _load_gate()
        base, fresh = payloads
        fresh["results"] = [
            r for r in fresh["results"] if r["kernel"] != "attention_train_step"
        ]
        failures, _ = gate.check(
            fresh, fresh, min_e2e_speedup=0.0, min_train_speedup=2.0
        )
        assert any("train floor" in f for f in failures)

    @staticmethod
    def _matrix_rows(mechanism, sparse_speedup):
        shape = f"B1xH2xL32xD16/{mechanism}"
        dense = {
            "kernel": "attention_train_matrix", "shape": shape,
            "backend": "dense", "median_s": 0.01, "p10_s": 0.01,
            "p90_s": 0.01, "speedup": 1.0, "parity_max_rel_err": None,
        }
        sparse = dict(dense, backend="sparse", speedup=sparse_speedup,
                      parity_max_rel_err=1e-7)
        return [dense, sparse]

    def test_matrix_floor_binds_band_masks(self, payloads):
        gate = _load_gate()
        base, fresh = payloads
        fresh["results"] += self._matrix_rows("local", 0.8)
        base["results"] += self._matrix_rows("local", 0.8)
        failures, _ = gate.check(fresh, base, min_e2e_speedup=0.0, min_train_speedup=0.0)
        assert any("train matrix floor" in f for f in failures)

    def test_matrix_floor_ignores_data_dependent_masks(self, payloads):
        gate = _load_gate()
        base, fresh = payloads
        extra = self._matrix_rows("local", 1.2) + self._matrix_rows("routing", 0.7)
        fresh["results"] += extra
        base["results"] += copy.deepcopy(extra)
        failures, _ = gate.check(fresh, base, min_e2e_speedup=0.0, min_train_speedup=0.0)
        assert failures == []

    def test_matrix_floor_requires_band_rows(self, payloads):
        gate = _load_gate()
        base, fresh = payloads  # the fixture payload has no matrix rows at all
        failures, _ = gate.check(fresh, fresh, min_e2e_speedup=0.0, min_train_speedup=0.0)
        assert any("train matrix floor" in f for f in failures)

    def test_new_rows_warn_and_skip_instead_of_failing(self, payloads):
        gate = _load_gate()
        base, fresh = payloads
        # rows with no baseline counterpart: diff checks skipped with a
        # warning (absolute floors still apply), never a KeyError/failure
        fresh["results"] += self._matrix_rows("local", 1.5)
        warnings = []
        failures, _ = gate.check(
            fresh, base, min_e2e_speedup=0.0, min_train_speedup=0.0,
            warnings=warnings,
        )
        assert failures == []
        assert any("no baseline entry" in w for w in warnings)

    def test_committed_baseline_is_valid(self):
        gate = _load_gate()
        payload = gate.load(str(REPO_ROOT / "benchmarks" / "baseline_kernels.json"))
        rows = gate.index_rows(payload)
        assert rows, "baseline has no rows"
        e2e = [r for (k, _, b), r in rows.items() if k == "attention_e2e" and b == "fast"]
        assert e2e and all(r["speedup"] >= 3.0 for r in e2e)
        train = [
            r for (k, _, b), r in rows.items()
            if k == "attention_train_step" and b == "fast"
        ]
        assert train and all(r["speedup"] >= 2.0 for r in train)
        failures, factor = gate.check(payload, payload)
        assert failures == [] and factor == 1.0


class TestServingBench:
    @pytest.fixture(scope="class")
    def serving_results(self):
        from repro.bench.runner import run_serving_benchmark

        return run_serving_benchmark(repeats=2, warmup=1, shape=TINY, seed=0)

    def test_rows_and_backends(self, serving_results):
        assert [r.backend for r in serving_results] == ["sequential", "batched"]
        assert all(r.kernel == "serving_throughput" for r in serving_results)

    def test_batched_bitwise_parity_with_sequential(self, serving_results):
        sequential, batched = serving_results
        assert sequential.parity_max_rel_err is None
        assert batched.parity_max_rel_err == 0.0

    def test_latency_and_throughput_extras(self, serving_results):
        for row in serving_results:
            extra = row.extra
            assert extra["requests_per_s"] > 0
            assert (
                0
                <= extra["latency_p50_s"]
                <= extra["latency_p95_s"]
                <= extra["latency_p99_s"]
            )

    def test_speedup_is_throughput_ratio(self, serving_results):
        sequential, batched = serving_results
        assert sequential.speedup == 1.0
        assert batched.speedup == pytest.approx(
            batched.extra["requests_per_s"] / sequential.extra["requests_per_s"],
            rel=1e-9,
        )

    def test_payload_rows_carry_extras(self, serving_results):
        payload = results_to_payload(serving_results, scale="smoke", repeats=2)
        for row in payload["results"]:
            assert set(row) == {
                "kernel", "shape", "backend", "median_s", "p10_s", "p90_s",
                "speedup", "parity_max_rel_err", "requests_per_s",
                "latency_p50_s", "latency_p95_s", "latency_p99_s",
            }

    def test_unknown_serving_backend_rejected(self):
        from repro.bench.runner import run_serving_benchmark

        with pytest.raises(ValueError, match="unknown serving backends"):
            run_serving_benchmark(shape=TINY, backends=("sequential", "warp"))


class TestServeGate:
    @staticmethod
    def _serving_rows(speedup):
        shape = "B1xH2xL32xD16/serve-mix12"
        sequential = {
            "kernel": "serving_throughput", "shape": shape,
            "backend": "sequential", "median_s": 0.01, "p10_s": 0.01,
            "p90_s": 0.01, "speedup": 1.0, "parity_max_rel_err": None,
            "requests_per_s": 1200.0, "latency_p50_s": 1e-3,
            "latency_p95_s": 2e-3, "latency_p99_s": 3e-3,
        }
        batched = dict(sequential, backend="batched", speedup=speedup,
                       parity_max_rel_err=0.0)
        return [sequential, batched]

    def test_serve_floor_fires_below_threshold(self):
        gate = _load_gate()
        payload = {"schema_version": 1, "results": self._serving_rows(1.2)}
        failures, _ = gate.check(
            payload, payload, min_e2e_speedup=0.0, min_train_speedup=0.0,
            min_matrix_speedup=0.0, min_serve_speedup=1.5,
        )
        assert any("serve throughput floor" in f for f in failures)

    def test_serve_floor_passes_above_threshold(self):
        gate = _load_gate()
        payload = {"schema_version": 1, "results": self._serving_rows(2.0)}
        failures, _ = gate.check(
            payload, payload, min_e2e_speedup=0.0, min_train_speedup=0.0,
            min_matrix_speedup=0.0, min_serve_speedup=1.5,
        )
        assert failures == []

    def test_serving_parity_must_be_exactly_zero(self):
        # a tiny-but-nonzero parity error would pass the generic 1e-2
        # tolerance; the serving contract is bitwise, so the gate must fail
        gate = _load_gate()
        rows = self._serving_rows(2.0)
        rows[1]["parity_max_rel_err"] = 1e-6
        payload = {"schema_version": 1, "results": rows}
        failures, _ = gate.check(
            payload, payload, min_e2e_speedup=0.0, min_train_speedup=0.0,
            min_matrix_speedup=0.0, min_serve_speedup=1.5,
        )
        assert any("exact bitwise parity" in f for f in failures)

    def test_serve_floor_requires_rows(self):
        gate = _load_gate()
        payload = {"schema_version": 1, "results": []}
        failures, _ = gate.check(
            payload, payload, min_e2e_speedup=0.0, min_train_speedup=0.0,
            min_matrix_speedup=0.0, min_serve_speedup=1.5,
        )
        assert any("serve throughput floor" in f and "no " in f for f in failures)

    def test_serve_floor_defaults_off_in_check(self):
        # baseline-only payloads (no serving rows) must stay valid for
        # check() callers that predate the serving benchmark; the CLI is
        # what turns the floor on (default 1.5)
        gate = _load_gate()
        payload = {"schema_version": 1, "results": []}
        failures, _ = gate.check(
            payload, payload, min_e2e_speedup=0.0, min_train_speedup=0.0,
            min_matrix_speedup=0.0,
        )
        assert failures == []

    def test_committed_baseline_meets_serve_floor(self):
        gate = _load_gate()
        payload = gate.load(str(REPO_ROOT / "benchmarks" / "baseline_kernels.json"))
        rows = gate.index_rows(payload)
        serving = [
            r for (k, _, b), r in rows.items()
            if k == "serving_throughput" and b == "batched"
        ]
        assert serving, "baseline has no serving_throughput batched rows"
        assert all(r["speedup"] >= 1.5 for r in serving)
        assert all(r["parity_max_rel_err"] == 0.0 for r in serving)


class TestSoftmaxGate:
    @staticmethod
    def _softmax_rows(kernel, speedup):
        shape = "B1xH2xL32xD16/2:4"
        reference = {
            "kernel": kernel, "shape": shape, "backend": "reference",
            "median_s": 0.01, "p10_s": 0.01, "p90_s": 0.01,
            "speedup": 1.0, "parity_max_rel_err": None,
        }
        fast = dict(reference, backend="fast", speedup=speedup,
                    parity_max_rel_err=1e-7)
        return [reference, fast]

    def test_softmax_floor_binds_the_nm_row(self):
        gate = _load_gate()
        payload = {"schema_version": 1, "results": self._softmax_rows("masked_softmax", 0.7)}
        failures, _ = gate.check(
            payload, payload, min_e2e_speedup=0.0, min_train_speedup=0.0,
            min_matrix_speedup=0.0, min_softmax_speedup=1.0,
        )
        assert any(
            "softmax floor" in f and "masked_softmax " in f for f in failures
        )
        payload = {"schema_version": 1, "results": self._softmax_rows("masked_softmax", 1.4)}
        failures, _ = gate.check(
            payload, payload, min_e2e_speedup=0.0, min_train_speedup=0.0,
            min_matrix_speedup=0.0, min_softmax_speedup=1.0,
        )
        assert not any("softmax floor" in f for f in failures)

    def test_new_floors_default_off_in_check(self):
        # synthetic payloads without the new rows must stay valid for
        # check() callers with default arguments; the CLI turns the floors on
        gate = _load_gate()
        payload = {"schema_version": 1, "results": []}
        failures, _ = gate.check(
            payload, payload, min_e2e_speedup=0.0, min_train_speedup=0.0,
            min_matrix_speedup=0.0,
        )
        assert failures == []


class TestMulticoreBench:
    @pytest.fixture(scope="class")
    def multicore_results(self):
        from repro.bench.runner import run_multicore_benchmarks

        return run_multicore_benchmarks(
            repeats=2, warmup=0, patterns=("2:4",), shape=TINY,
            workers=2, scaling=(2,),
        )

    def test_rows_cover_both_arms_and_the_scaling_sweep(self, multicore_results):
        from repro.bench.runner import (
            MULTICORE_BENCH_KERNELS,
            MULTICORE_SCALING_KERNEL,
        )

        combos = {(r.kernel, r.backend) for r in multicore_results}
        expected = {
            (k, b)
            for k in MULTICORE_BENCH_KERNELS
            for b in ("fast", "multicore")
        } | {(MULTICORE_SCALING_KERNEL, "w1"), (MULTICORE_SCALING_KERNEL, "w2")}
        assert combos == expected

    def test_multicore_rows_bitwise_parity_and_workers_column(
        self, multicore_results
    ):
        for r in multicore_results:
            if r.backend == "multicore":
                # exact 0.0, not merely small: the tiles run the same kernels
                assert r.parity_max_rel_err == 0.0
                assert r.extra == {"workers": 2.0}
            elif r.backend == "fast":
                assert r.speedup == 1.0
                assert r.parity_max_rel_err is None

    def test_scaling_rows_carry_worker_counts(self, multicore_results):
        from repro.bench.runner import MULTICORE_SCALING_KERNEL

        rows = {
            r.backend: r
            for r in multicore_results
            if r.kernel == MULTICORE_SCALING_KERNEL
        }
        assert rows["w1"].speedup == 1.0
        assert rows["w1"].extra == {"workers": 1.0}
        assert rows["w2"].extra == {"workers": 2.0}

    def test_payload_rows_carry_workers_column(self, multicore_results):
        payload = results_to_payload(multicore_results, scale="smoke", repeats=2)
        rows = [
            row for row in payload["results"] if row["backend"] == "multicore"
        ]
        assert rows
        assert all(row["workers"] == 2.0 for row in rows)


class TestMulticoreGate:
    @staticmethod
    def _row(kernel, backend, speedup, parity=0.0, workers=None):
        row = {
            "kernel": kernel, "shape": "B4xH8xL512xD64/1:2",
            "backend": backend, "median_s": 0.01, "p10_s": 0.01,
            "p90_s": 0.01, "speedup": speedup, "parity_max_rel_err": parity,
        }
        if workers is not None:
            row["workers"] = workers
        return row

    def _check(self, rows, **kwargs):
        gate = _load_gate()
        warnings = []
        failures, _ = gate.check(
            {"schema_version": 1, "results": rows},
            {"schema_version": 1, "results": []},
            min_e2e_speedup=0.0, min_train_speedup=0.0,
            min_matrix_speedup=0.0, warnings=warnings, **kwargs,
        )
        return failures, warnings

    def test_floor_binds_rows_with_a_parallel_pool(self):
        failures, _ = self._check(
            [
                self._row("attention_multicore", "multicore", 1.1, workers=2.0),
                self._row(
                    "attention_multicore_train", "multicore", 1.5, workers=2.0
                ),
            ],
            min_multicore_speedup=1.3,
        )
        assert any("multicore floor" in f and "1.10x" in f for f in failures)
        assert not any("attention_multicore_train" in f for f in failures)

    def test_floor_skips_single_worker_rows_with_a_warning(self):
        failures, warnings = self._check(
            [
                self._row("attention_multicore", "multicore", 0.9, workers=1.0),
                self._row(
                    "attention_multicore_train", "multicore", 0.9, workers=1.0
                ),
            ],
            min_multicore_speedup=1.3,
        )
        assert not any("multicore floor" in f for f in failures)
        assert any("single-worker" in w for w in warnings)

    def test_bitwise_parity_required_even_on_single_worker_rows(self):
        failures, _ = self._check(
            [
                self._row(
                    "attention_multicore", "multicore", 2.0,
                    parity=1e-7, workers=1.0,
                ),
            ],
        )
        assert any(
            "parity" in f and "attention_multicore" in f for f in failures
        )

    def test_floor_requires_rows(self):
        failures, _ = self._check([], min_multicore_speedup=1.3)
        assert any(
            "no attention_multicore multicore rows" in f for f in failures
        )
