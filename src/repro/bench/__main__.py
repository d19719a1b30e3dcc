"""Command-line benchmark runner: ``python -m repro.bench``.

Examples
--------
Smoke-scale run with the JSON artifact the CI perf gate consumes::

    PYTHONPATH=src python -m repro.bench --output BENCH_kernels.json

Larger problem, one kernel, more repeats::

    PYTHONPATH=src python -m repro.bench --scale default --kernels attention_e2e --repeats 9
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.report import format_table, results_to_payload, write_payload
from repro.bench.runner import (
    ALL_BENCH_KERNELS,
    BENCH_KERNELS,
    MULTICORE_BENCH_KERNELS,
    SERVING_KERNEL,
    SERVING_LATENCY_KERNEL,
    TRAIN_MATRIX_KERNEL,
    SCALE_SHAPES,
    BenchShape,
    run_benchmarks,
    run_multicore_benchmarks,
    run_serving_benchmark,
    run_serving_open_loop,
    run_train_matrix,
)
from repro.core.backend import available_backends


def _parse_shape(text: str) -> BenchShape:
    try:
        batch, heads, seq_len, head_dim = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid shape {text!r}; expected BxHxLxD, e.g. 2x4x256x64"
        )
    return BenchShape(batch=batch, heads=heads, seq_len=seq_len, head_dim=head_dim)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark DFSS kernels across backends and emit BENCH_kernels.json",
    )
    parser.add_argument("--scale", default="smoke", choices=sorted(SCALE_SHAPES),
                        help="problem size preset (default: smoke)")
    parser.add_argument("--shape", type=_parse_shape, default=None,
                        help="explicit BxHxLxD problem size overriding --scale")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per measurement (default: 5)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="discarded warmup runs per measurement (default: 1)")
    parser.add_argument("--patterns", nargs="+", default=["1:2", "2:4"],
                        help="N:M patterns to benchmark (default: 1:2 2:4)")
    parser.add_argument("--kernels", nargs="+", default=None,
                        choices=ALL_BENCH_KERNELS,
                        help="subset of kernels to benchmark (default: all; "
                             "includes the attention_train_matrix mechanism sweep)")
    parser.add_argument("--mechanisms", nargs="+", default=None,
                        help="mechanism subset for the attention_train_matrix "
                             "sweep (default: every trainable mask-based "
                             "mechanism with a compressed path)")
    parser.add_argument("--multicore-workers", type=int, default=None,
                        help="pool size for the attention_multicore rows "
                             "(default: $REPRO_MULTICORE_WORKERS, else the "
                             "host cpu count)")
    parser.add_argument("--multicore-scaling", nargs="+", type=int, default=None,
                        metavar="N",
                        help="worker counts for the workers-vs-speedup "
                             "scaling sweep (emits attention_multicore_scaling "
                             "rows with a single-worker baseline; default: "
                             "no sweep)")
    parser.add_argument("--serve-requests", type=int, default=None,
                        help="request count for the serving_throughput workload "
                             "(default: 12x the shape's batch size)")
    parser.add_argument("--serve-batch-size", type=int, default=16,
                        help="max ragged batch size for the serving_throughput "
                             "batched rows (default: 16)")
    parser.add_argument("--serve-rate-rps", type=float, default=200.0,
                        help="offered Poisson arrival rate for the open-loop "
                             "serving_latency replay (default: 200)")
    parser.add_argument("--serve-deadline-ms", type=float, default=50.0,
                        help="per-request latency deadline the serving_latency "
                             "row counts misses against (default: 50 ms)")
    parser.add_argument("--backends", nargs="+", default=["reference", "fast"],
                        choices=available_backends(),
                        help="backends to time; the first is the speedup baseline "
                             "(attention_train_matrix rows are dense-vs-sparse "
                             "paths instead, both dispatching to the last entry)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None, metavar="BENCH_kernels.json",
                        help="write the machine-readable JSON artifact here")
    parser.add_argument("--include-timings", action="store_true",
                        help="embed raw per-repeat timings in the JSON output")
    args = parser.parse_args(argv)

    selected = tuple(args.kernels) if args.kernels else ALL_BENCH_KERNELS
    classic = [k for k in selected if k in BENCH_KERNELS]
    multicore = [k for k in selected if k in MULTICORE_BENCH_KERNELS]

    results = _run_selected(args, classic, multicore, selected)
    print(format_table(results))
    if args.output:
        payload = results_to_payload(
            results, scale=args.scale, repeats=args.repeats,
            include_timings=args.include_timings,
        )
        write_payload(args.output, payload)
        print(f"\nwrote {len(payload['results'])} rows to {args.output}")
    return 0


def _run_selected(args, classic, multicore, selected):
    results = []
    if classic:
        results += run_benchmarks(
            scale=args.scale,
            repeats=args.repeats,
            warmup=args.warmup,
            patterns=tuple(args.patterns),
            backends=tuple(args.backends),
            kernels=classic,
            seed=args.seed,
            shape=args.shape,
        )
    if multicore:
        results += run_multicore_benchmarks(
            scale=args.scale,
            repeats=args.repeats,
            warmup=args.warmup,
            patterns=tuple(args.patterns),
            kernels=multicore,
            workers=args.multicore_workers,
            scaling=args.multicore_scaling,
            seed=args.seed,
            shape=args.shape,
        )
    if TRAIN_MATRIX_KERNEL in selected:
        results += run_train_matrix(
            scale=args.scale,
            repeats=args.repeats,
            warmup=args.warmup,
            mechanisms=args.mechanisms,
            # dense/sparse is the matrix's row axis; the kernel backend both
            # paths dispatch to is the last (measured) --backends entry
            backend=args.backends[-1],
            seed=args.seed,
            shape=args.shape,
        )
    if SERVING_KERNEL in selected:
        results += run_serving_benchmark(
            scale=args.scale,
            repeats=args.repeats,
            warmup=args.warmup,
            n_requests=args.serve_requests,
            max_batch_size=args.serve_batch_size,
            seed=args.seed,
            shape=args.shape,
        )
    if SERVING_LATENCY_KERNEL in selected:
        results += run_serving_open_loop(
            scale=args.scale,
            repeats=args.repeats,
            warmup=args.warmup,
            n_requests=args.serve_requests,
            rate_rps=args.serve_rate_rps,
            deadline_s=args.serve_deadline_ms / 1e3,
            max_batch_size=args.serve_batch_size,
            seed=args.seed,
            shape=args.shape,
        )
    return results


if __name__ == "__main__":
    sys.exit(main())
