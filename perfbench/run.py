"""The repo's benchmark: DFSS inference, fine-tuning and serving, checked and timed.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload infer_long --seed 1 --seconds 20 --trace 0

prints, as its last line, ``{"correct", "attempted", "failed", "metrics"}``
with every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) of ``BENCHMARK.json``, each with its unit.  The full record
(environment fingerprint, failures by exception type, set-up samples) goes to
``perfbench/out/<workload>-seed<n>-trace<t>.json``; a traced run also writes
its spans to ``perfbench/out/<workload>-seed<n>.trace.json`` (Chrome format).

Three more modes::

    python3 perfbench/run.py --all [--seed N]
    python3 perfbench/run.py --steadiness --workload serve_mixed --runs 5
    python3 perfbench/run.py --compare A.json B.json

``--all`` runs every workload untraced and traced and prints every metric.
``--steadiness`` runs a workload on consecutive held-out seeds and prints each
end-to-end metric's median, quartiles and spread against its bound.
``--compare`` diffs two records or steadiness summaries and refuses when
they come from machines with different CPU counts or BLAS thread counts.

This launcher imports nothing but the standard library.  Each measurement
runs in a child process (``workloads.py``) whose environment pins BLAS to one
thread, tells glibc to keep freed memory for reuse, and clears every
``REPRO_*`` knob, so the program runs its defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

#: Every run ends within this many seconds (the contract allows 180).
DEADLINE_S = 170.0
#: Set-up is measured in this many processes besides the measuring one.
SETUP_PROBES = 2
#: First seed of ``--steadiness`` runs, away from the small seeds used elsewhere.
HELD_OUT_SEED = 7001

#: Environment of every workload process.  One BLAS thread: on a 2-CPU box a
#: second thread bought at most ~6% wall time for ~30% more CPU time.  glibc
#: serves every allocation from its heap and never returns freed memory
#: (no mmap, no trim), so a steady-state call reuses pages instead of faulting
#: them in again: on the VM this was written on a first-touch fault costs about
#: 10 µs, and a DFSS call at L4096 spent 260-980 ms of its time in them.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def load_spec() -> dict:
    if not SPEC.is_file():
        raise BenchError(f"{SPEC.name} not found next to {HERE.name}/")
    return json.loads(SPEC.read_text())


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def child_env():
    cleared = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    env = {k: v for k, v in os.environ.items() if k not in cleared}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env, sorted(cleared)


def run_child(args: list, deadline: float) -> dict:
    """Run one workload process; its last stdout line is its JSON report."""
    env, _ = child_env()
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a workload process could start")
    argv = [sys.executable, str(HERE / "workloads.py"), *args,
            "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"workload process exceeded {DEADLINE_S:.0f} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"workload process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no report")
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the full record (result + environment)."""
    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"program sources not found under {ROOT / 'src'}")
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    deadline = time.monotonic() + DEADLINE_S
    args = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    probes = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probes.append(run_child(args + ["--setup-only"], deadline))
    OUT.mkdir(exist_ok=True)
    trace_out = OUT / f"{workload}-seed{seed}.trace.json"
    report = run_child(
        args + ["--trace", str(trace)] + (["--trace-out", str(trace_out)] if trace else []),
        deadline,
    )
    probes.append(report)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    values = dict(report["metrics"])
    if not trace:
        values["setup_s"] = statistics.median([p["setup_s"] for p in probes])
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise BenchError(f"metrics not declared in {SPEC.name}: {unknown}")
    missing = sorted(set(declared) - set(values))
    if missing and not trace:
        raise BenchError(f"end-to-end metrics not measured: {missing}")
    # a layer this workload does not exercise reports 0
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    _, cleared = child_env()
    return {
        "result": {
            "correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics,
        },
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "failures": report["failures"],
        "setup_samples": {
            key: [p[key] for p in probes]
            for key in ("setup_s", "setup_wall_s")
        },
        "samples_ms": report["samples_ms"],
        "env": {
            **report["env"],
            "git_sha": git_sha(),
            "cleared_repro_knobs": cleared,
            "pinned": PINNED_ENV,
        },
    }


def write_record(record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def steadiness(workload: str, runs: int, seed: int, seconds: float) -> dict:
    """Run ``workload`` on ``runs`` consecutive seeds; summarise each metric."""
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    records = []
    for n in range(runs):
        record = run_once(workload, seed + n, seconds, 0)
        write_record(record)
        records.append(record)
        print(f"# seed {seed + n}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in record["result"]["metrics"].items()
        ), flush=True)
    summary = {}
    for name, meta in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in records]
        q1, q2, q3 = measure.quartiles(values)
        summary[name] = {
            "median": q2, "q1": q1, "q3": q3,
            "spread": measure.relative_spread(values),
            "bound": meta["bound"], "unit": meta["unit"], "values": values,
        }
    return {
        "workload": workload, "seeds": [seed, seed + runs - 1], "seconds": seconds,
        "env": records[0]["env"], "metrics": summary,
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced: every metric by name and unit."""
    for workload in [w["name"] for w in load_spec()["workloads"]]:
        for trace in (0, 1):
            record = run_once(workload, seed, seconds, trace)
            write_record(record)
            result = record["result"]
            print(f"{workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{record['failures']}")
            for name, m in result["metrics"].items():
                print(f"  {name:30s} {m['value']:12.4g} {m['unit']}")
    return 0


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["env"]["nproc"] != b["env"]["nproc"]:
        print(f"refusing to compare: CPU counts differ ({a['env']['nproc']} vs "
              f"{b['env']['nproc']})")
        return 2
    ta, tb = a["env"]["blas"].get("threads"), b["env"]["blas"].get("threads")
    if ta != tb:
        print(f"refusing to compare: BLAS threads differ ({ta} vs {tb})")
        return 2
    spec = {m["name"]: m for m in load_spec()["end_to_end"]}

    def values(doc):
        metrics = doc["result"]["metrics"] if "result" in doc else doc["metrics"]
        return {k: m.get("value", m.get("median")) for k, m in metrics.items()}

    va, vb = values(a), values(b)
    print(f"{'metric':32s} {'A':>12s} {'B':>12s} {'change':>9s}  bound")
    for name in sorted(set(va) & set(vb)):
        base, new = va[name], vb[name]
        change = (new - base) / abs(base) if base else float("nan")
        meta = spec.get(name)
        verdict = ""
        if meta:
            worse = change if meta["better"] == "lower" else -change
            verdict = f"{meta['bound']:.0%}" + ("  WORSE" if worse > meta["bound"] else "")
        print(f"{name:32s} {base:12.4g} {new:12.4g} {change:+9.1%}  {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced; print every metric")
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills its child on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.compare:
            return compare(*args.compare)
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        if args.steadiness:
            names = [args.workload] if args.workload else [
                w["name"] for w in load_spec()["workloads"]
            ]
            for name in names:
                seed = HELD_OUT_SEED if args.seed is None else args.seed
                summary = steadiness(name, args.runs, seed, seconds)
                OUT.mkdir(exist_ok=True)
                (OUT / f"steadiness-{name}.json").write_text(json.dumps(summary, indent=1))
                print(f"{name} ({args.runs} seeds from {seed}, {seconds:g} s each)")
                for metric, s in summary["metrics"].items():
                    print(f"  {metric:20s} median {s['median']:10.4g} {s['unit']:5s} "
                          f"q1 {s['q1']:10.4g} q3 {s['q3']:10.4g} "
                          f"spread {s['spread']:6.2%} of bound {s['bound']:.0%}")
            return 0
        if args.all:
            return run_all(HELD_OUT_SEED if args.seed is None else args.seed, seconds)
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
        record = run_once(args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    path = write_record(record)
    env = record["env"]
    print(f"# env: nproc={env['nproc']} blas={env['blas']['vendor']} "
          f"threads={env['blas']['threads']} numpy={env['numpy']} python={env['python']} "
          f"sha={env['git_sha'][:12]} cleared={env['cleared_repro_knobs']}")
    print(f"# failures by type: {record['failures']}  record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
