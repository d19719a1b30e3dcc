#!/usr/bin/env python3
"""CI perf gate: diff a fresh BENCH_kernels.json against the committed baseline.

Usage::

    python scripts/check_bench_regression.py BENCH_kernels.json \
        benchmarks/baseline_kernels.json

Exit status 0 means "ship it"; 1 means at least one check failed:

* **parity** — any ``fast`` row whose ``parity_max_rel_err`` exceeds the
  tolerance (the backends disagree numerically: a correctness bug, never
  noise);
* **coverage** — a (kernel, shape, backend) row present in the baseline is
  missing from the fresh run;
* **median slowdown** — a row's median runtime grew by more than the
  threshold (default 30%) relative to the baseline, after normalising out
  overall machine-speed differences (the geometric mean ratio across all
  ``reference`` rows), so a uniformly slower CI box does not trip the gate
  but a single regressed kernel does;
* **speedup regression** — a ``fast`` row's speedup over ``reference`` fell
  more than the threshold below its baseline value (this ratio is
  machine-independent, making it the strongest cross-machine signal);
* **e2e floor** — the end-to-end ``attention_e2e`` fast speedup dropped
  below the absolute floor (default 3x, the repo's acceptance criterion);
* **train floor** — the fwd+bwd ``attention_train_step`` fast speedup over
  the dense autograd reference path dropped below the absolute floor
  (default 2x, the sparse-training acceptance criterion);
* **train matrix floor** — an ``attention_train_matrix`` sparse row for a
  band-style mask mechanism (local, longformer) fell below the absolute
  floor (default 1x: the row-block path must never train slower than the
  dense masked autograd path on band masks);
* **serve throughput floor** — the ``serving_throughput`` batched speedup
  (batched requests/sec over sequential requests/sec on the synthetic mixed
  workload) dropped below the absolute floor (CLI default 1.5x, the serving
  acceptance criterion; ``check()`` defaults it off so baseline-only
  payloads stay valid);
* **softmax floor** — the fast ``masked_softmax`` row fell below the absolute floor over the streaming reference oracle (CLI
  default 1.0x: the batched softmax must never lose to the chunked loop it
  replaces; ``check()`` defaults it off);
* **multicore floor** — an ``attention_multicore`` /
  ``attention_multicore_train`` ``multicore`` row fell below the absolute
  floor over its single-core ``fast`` arm (CLI default 1.0x; the nightly
  default-scale run raises it to the 1.3x acceptance criterion;
  ``check()`` defaults it off).  The floor only binds rows whose
  ``workers`` column reports a pool of >= 2 — a single-core host cannot
  demonstrate a parallel speedup, so its rows are skipped with a warning
  (bitwise parity still gates them unconditionally).

Kernels in ``EXACT_PARITY_KERNELS`` (serving coalescing and the multicore
tiled plan) are held to *bitwise* parity — their parity column must be exactly 0.0, not
merely under the tolerance — because their baselines are the same kernels on
the same inputs, so any difference is a semantics change, never rounding.

Fresh rows with no baseline counterpart — newly added kernels or mechanisms —
are *skipped with a warning* rather than failing (or KeyError-ing), so adding
a benchmark does not force a same-commit baseline refresh; the refreshed
baseline picks them up on the next update.

The script is stdlib-only so it runs anywhere, including bare CI images.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional, Tuple

Key = Tuple[str, str, str]

#: Reference rows faster than this are dominated by timer noise and Python
#: overhead; they are exempt from the median-slowdown check (the speedup and
#: parity checks still cover them).
MIN_COMPARABLE_SECONDS = 1e-4


def load(path: str) -> Dict:
    with open(path) as fh:
        payload = json.load(fh)
    version = payload.get("schema_version")
    if version != 1:
        raise SystemExit(f"{path}: unsupported schema_version {version!r} (expected 1)")
    return payload


def index_rows(payload: Dict) -> Dict[Key, Dict]:
    rows = {}
    for row in payload.get("results", []):
        rows[(row["kernel"], row["shape"], row["backend"])] = row
    return rows


def machine_factor(fresh: Dict[Key, Dict], base: Dict[Key, Dict]) -> float:
    """Geometric-mean runtime ratio of shared reference rows (fresh / base)."""
    logs: List[float] = []
    for key, fresh_row in fresh.items():
        if key[2] != "reference" or key not in base:
            continue
        fresh_med, base_med = fresh_row["median_s"], base[key]["median_s"]
        if fresh_med > 0 and base_med > 0:
            logs.append(math.log(fresh_med / base_med))
    return math.exp(sum(logs) / len(logs)) if logs else 1.0


#: Mechanisms whose ``attention_train_matrix`` sparse rows are held to the
#: absolute train-matrix floor (the band-style masks of the acceptance
#: criterion; data-dependent masks fluctuate around parity on CPU).
BAND_MASK_MECHANISMS = ("local", "longformer")

#: Kernels whose non-baseline arm must be *bitwise* identical to its baseline
#: arm: serving coalescing (batched vs sequential) and the multicore tiled
#: plan (multicore vs fast) run the same kernels on the same inputs, so any
#: nonzero parity is a semantics change rather than rounding noise.
EXACT_PARITY_KERNELS = {
    "serving_throughput": "serving requires exact bitwise parity",
    "attention_multicore": "the tiled plan must be bitwise-identical to fast",
    "attention_multicore_train": "the tiled plan must be bitwise-identical to fast",
}

#: Kernels whose speedup floor only binds when the row's ``workers`` column
#: reports a pool of at least two — a single-core CI host degenerates the
#: multicore backend to inline execution and cannot demonstrate a speedup.
MULTICORE_FLOOR_KERNELS = ("attention_multicore", "attention_multicore_train")


def check(
    fresh_payload: Dict,
    base_payload: Dict,
    threshold: float = 0.30,
    parity_tol: float = 1e-2,
    min_e2e_speedup: float = 3.0,
    min_train_speedup: float = 2.0,
    min_matrix_speedup: float = 1.0,
    min_serve_speedup: float = 0.0,
    min_softmax_speedup: float = 0.0,
    min_multicore_speedup: float = 0.0,
    warnings: Optional[List[str]] = None,
) -> Tuple[List[str], float]:
    """Return ``(failure messages, machine factor)``; no failures means pass.

    ``warnings`` (when given) collects non-fatal notes: fresh rows that have
    no baseline counterpart are skipped with a warning instead of failing,
    so newly added kernels don't require a same-commit baseline refresh.
    """
    fresh = index_rows(fresh_payload)
    base = index_rows(base_payload)
    factor = machine_factor(fresh, base)
    failures: List[str] = []

    for key in sorted(base):
        if key not in fresh:
            failures.append(f"coverage: baseline row {key} missing from fresh results")
    for key, row in sorted(fresh.items()):
        err = row.get("parity_max_rel_err")
        if key[0] in EXACT_PARITY_KERNELS:
            # these arms run the same kernels on the same inputs as their
            # baseline arm: parity is required to be exactly zero, not small
            if err is not None and err != 0.0:
                failures.append(
                    f"parity: {key} differs from its baseline arm by "
                    f"{err:.2e} ({EXACT_PARITY_KERNELS[key[0]]})"
                )
        elif err is not None and err > parity_tol:
            failures.append(
                f"parity: {key} disagrees with reference by {err:.2e} "
                f"(tolerance {parity_tol:.0e})"
            )
        base_row = base.get(key)
        if base_row is None:
            # a newly added kernel/mechanism: skip the diff checks (the
            # absolute floors below still apply) rather than KeyError or fail
            if warnings is not None:
                warnings.append(
                    f"new row {key} has no baseline entry; slowdown/speedup "
                    f"checks skipped — refresh the baseline to start gating it"
                )
            continue
        base_med = base_row["median_s"]
        if base_med >= MIN_COMPARABLE_SECONDS and base_med > 0:
            slowdown = (row["median_s"] / base_med) / factor
            if slowdown > 1.0 + threshold:
                failures.append(
                    f"slowdown: {key} median {row['median_s'] * 1e3:.2f}ms is "
                    f"{(slowdown - 1.0) * 100:.0f}% slower than baseline "
                    f"{base_med * 1e3:.2f}ms (machine-normalised, "
                    f"threshold {threshold * 100:.0f}%)"
                )
        if key[2] != "reference":
            base_speedup = base_row.get("speedup", 0.0)
            if base_speedup and row["speedup"] < base_speedup * (1.0 - threshold):
                failures.append(
                    f"speedup: {key} fell to {row['speedup']:.2f}x from baseline "
                    f"{base_speedup:.2f}x (more than {threshold * 100:.0f}% drop)"
                )
    floors = (
        ("attention_e2e", "fast", min_e2e_speedup, "e2e floor"),
        ("attention_train_step", "fast", min_train_speedup, "train floor"),
        ("attention_train_matrix", "sparse", min_matrix_speedup,
         "train matrix floor"),
        ("serving_throughput", "batched", min_serve_speedup,
         "serve throughput floor"),
        ("masked_softmax", "fast", min_softmax_speedup, "softmax floor"),
        ("attention_multicore", "multicore", min_multicore_speedup,
         "multicore floor"),
        ("attention_multicore_train", "multicore", min_multicore_speedup,
         "multicore floor"),
    )
    for kernel_name, floor_backend, floor, label in floors:
        if floor <= 0:
            continue
        rows = [
            row for (kernel, _, backend), row in sorted(fresh.items())
            if kernel == kernel_name and backend == floor_backend
        ]
        if kernel_name == "attention_train_matrix":
            # the floor binds only the band-style masks of the acceptance
            # criterion; data-dependent masks hover around parity on CPU
            rows = [
                row for row in rows
                if row["shape"].split("/")[-1] in BAND_MASK_MECHANISMS
            ]
        if kernel_name in MULTICORE_FLOOR_KERNELS and rows:
            # the floor binds only rows that actually ran a parallel pool;
            # a workers<2 row (single-core host) is skipped with a warning —
            # its bitwise parity was still checked above
            capable = [
                row for row in rows
                if float(row.get("workers") or 0.0) >= 2.0
            ]
            if not capable:
                if warnings is not None:
                    warnings.append(
                        f"{label}: every {kernel_name} row ran with a "
                        f"single-worker pool (single-core host); the "
                        f"{floor:.1f}x speedup floor is not applicable"
                    )
                continue
            rows = capable
        for row in rows:
            if row["speedup"] < floor:
                failures.append(
                    f"{label}: {kernel_name} {floor_backend} speedup "
                    f"{row['speedup']:.2f}x on {row['shape']} is below the "
                    f"{floor:.1f}x acceptance floor"
                )
        if not rows:
            # a floor that cannot find its rows must fail loudly — a silent
            # pass here is exactly how a dropped benchmark ships a regression
            failures.append(
                f"{label}: no {kernel_name} {floor_backend} rows in fresh results"
            )
    return failures, factor


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="freshly generated BENCH_kernels.json")
    parser.add_argument("baseline", help="committed benchmarks/baseline_kernels.json")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional slowdown / speedup drop (default 0.30)")
    parser.add_argument("--parity-tol", type=float, default=1e-2,
                        help="max relative Frobenius error between backends (default 1e-2)")
    parser.add_argument("--min-e2e-speedup", type=float, default=3.0,
                        help="absolute floor for the fast attention_e2e speedup "
                             "(0 disables; default 3.0)")
    parser.add_argument("--min-train-speedup", type=float, default=2.0,
                        help="absolute floor for the fast attention_train_step "
                             "speedup over the dense autograd reference path "
                             "(0 disables; default 2.0)")
    parser.add_argument("--min-matrix-speedup", type=float, default=1.0,
                        help="absolute floor for attention_train_matrix sparse "
                             "rows of band-style masks (local, longformer) over "
                             "the dense masked autograd path (0 disables; "
                             "default 1.0)")
    parser.add_argument("--min-serve-throughput", type=float, default=1.5,
                        help="absolute floor for the serving_throughput batched "
                             "requests/sec ratio over sequential serving "
                             "(0 disables; default 1.5)")
    parser.add_argument("--min-softmax-speedup", type=float, default=1.0,
                        help="absolute floor for the fast masked_softmax "
                             "speedup over the streaming reference oracle "
                             "(0 disables; default 1.0)")
    parser.add_argument("--min-multicore-speedup", type=float, default=1.0,
                        help="absolute floor for the attention_multicore and "
                             "attention_multicore_train multicore-over-fast "
                             "speedups; only binds rows whose workers column "
                             "reports a pool >= 2 (0 disables; default 1.0; "
                             "the nightly default-scale gate uses 1.3)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="on success, overwrite the baseline with the fresh results")
    args = parser.parse_args(argv)

    fresh_payload = load(args.fresh)
    base_payload = load(args.baseline)
    warnings: List[str] = []
    failures, factor = check(
        fresh_payload,
        base_payload,
        threshold=args.threshold,
        parity_tol=args.parity_tol,
        min_e2e_speedup=args.min_e2e_speedup,
        min_train_speedup=args.min_train_speedup,
        min_matrix_speedup=args.min_matrix_speedup,
        min_serve_speedup=args.min_serve_throughput,
        min_softmax_speedup=args.min_softmax_speedup,
        min_multicore_speedup=args.min_multicore_speedup,
        warnings=warnings,
    )
    print(f"perf gate: {len(fresh_payload.get('results', []))} fresh rows vs "
          f"{len(base_payload.get('results', []))} baseline rows "
          f"(machine factor {factor:.2f}x)")
    for message in warnings:
        print(f"  warning: {message}")
    if failures:
        print(f"\nFAIL — {len(failures)} check(s) failed:")
        for message in failures:
            print(f"  - {message}")
        return 1
    print("PASS — no perf regressions, parity intact")
    if args.update_baseline:
        with open(args.baseline, "w") as fh:
            json.dump(fresh_payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline updated: {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
