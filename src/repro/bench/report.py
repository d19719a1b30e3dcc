"""Serialisation and pretty-printing of benchmark results.

``BENCH_kernels.json`` schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "scale": "smoke",
      "shape": "B2xH4xL256xD64",         # without the pattern suffix
      "repeats": 5,
      "results": [
        {
          "kernel": "attention_e2e",      # or attention_train_step|
                                          #   attention_train_matrix (per-mechanism)
          "shape": "B2xH4xL256xD64/2:4",  # problem size / N:M pattern — or
                                          #   /<mechanism> (train-matrix rows)
          "backend": "fast",              # reference|fast (dense|sparse on
                                          #   attention_train_matrix rows)
          "median_s": 0.0123,             # seconds, median over repeats
          "p10_s": 0.0120,
          "p90_s": 0.0130,
          "speedup": 3.4,                 # reference median / this median
          "parity_max_rel_err": 1.2e-07   # vs reference output; null on reference rows
        },
        ...
      ]
    }

``serving_throughput`` rows (backend ``sequential``/``batched``, shape
``B2xH4xL256xD64/serve-mix12``) additionally carry ``requests_per_s`` and
``latency_p50_s``/``latency_p95_s``/``latency_p99_s`` columns; their
``speedup`` is sequential-median / batched-median, i.e. the requests/sec
ratio the CI gate floors.

The committed baseline (``benchmarks/baseline_kernels.json``) uses the same
schema, which is what lets ``scripts/check_bench_regression.py`` diff a fresh
run against it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.bench.runner import BenchResult

SCHEMA_VERSION = 1


def results_to_payload(
    results: Iterable[BenchResult],
    scale: str,
    repeats: Optional[int] = None,
    include_timings: bool = False,
) -> Dict:
    """Build the ``BENCH_kernels.json`` payload from benchmark rows."""
    results = list(results)
    rows: List[Dict] = []
    for r in results:
        row = {
            "kernel": r.kernel,
            "shape": r.shape,
            "backend": r.backend,
            "median_s": r.median_s,
            "p10_s": r.p10_s,
            "p90_s": r.p90_s,
            "speedup": r.speedup,
            "parity_max_rel_err": r.parity_max_rel_err,
        }
        if r.extra:
            # kernel-specific columns (serving_throughput: requests_per_s and
            # latency percentiles); absent on ordinary kernel rows
            row.update(r.extra)
        if include_timings:
            row["timings_s"] = r.timings_s
        rows.append(row)
    shapes = {r.shape.split("/", 1)[0] for r in results}
    return {
        "schema_version": SCHEMA_VERSION,
        "scale": scale,
        "shape": "|".join(sorted(shapes)),
        "repeats": repeats if repeats is not None else (results[0].repeats if results else 0),
        "results": rows,
    }


def write_payload(path, payload: Dict) -> None:
    """Write a payload as stable, human-diffable JSON."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_payload(path) -> Dict:
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported BENCH_kernels.json schema_version {version!r} in {path} "
            f"(expected {SCHEMA_VERSION})"
        )
    return payload


def format_table(results: Iterable[BenchResult]) -> str:
    """Human-readable fixed-width table of benchmark rows."""
    header = (
        f"{'kernel':<16} {'shape':<24} {'backend':<10} "
        f"{'median':>10} {'p10':>10} {'p90':>10} {'speedup':>8} {'parity':>10}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        parity = f"{r.parity_max_rel_err:.1e}" if r.parity_max_rel_err is not None else "-"
        lines.append(
            f"{r.kernel:<16} {r.shape:<24} {r.backend:<10} "
            f"{r.median_s * 1e3:>8.2f}ms {r.p10_s * 1e3:>8.2f}ms {r.p90_s * 1e3:>8.2f}ms "
            f"{r.speedup:>7.2f}x {parity:>10}"
        )
    return "\n".join(lines)
