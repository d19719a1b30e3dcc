"""Benchmark runner for the DFSS kernels and the end-to-end attention layer.

``python -m repro.bench`` times the end-to-end multi-head DFSS attention
(``nm_attention``) and its train step under both the ``reference`` and
``fast`` backends, and the per-mechanism train-step matrix
(``attention_train_matrix``: compressed sparse path vs dense masked autograd
for every mask-based trainable mechanism).  It verifies that the paths agree
numerically and emits a machine-readable ``BENCH_kernels.json`` that the CI
perf gate (``scripts/check_bench_regression.py``) diffs against the
committed baseline.
"""

from repro.bench.report import (
    SCHEMA_VERSION,
    format_table,
    load_payload,
    results_to_payload,
    write_payload,
)
from repro.bench.runner import (
    ALL_BENCH_KERNELS,
    BENCH_KERNELS,
    TRAIN_MATRIX_KERNEL,
    BenchResult,
    BenchShape,
    SCALE_SHAPES,
    run_benchmarks,
    run_train_matrix,
)

__all__ = [
    "SCHEMA_VERSION",
    "ALL_BENCH_KERNELS",
    "BENCH_KERNELS",
    "TRAIN_MATRIX_KERNEL",
    "BenchResult",
    "BenchShape",
    "SCALE_SHAPES",
    "format_table",
    "load_payload",
    "results_to_payload",
    "run_benchmarks",
    "run_train_matrix",
    "write_payload",
]
