"""``python -m repro.profile`` — record, analyze, and replay traces.

Subcommands:

* ``train`` — trace one fused DFSS train step (forward + backward through the
  autograd op), print the attribution report and the replay self-check, and
  optionally write the Chrome trace;
* ``serve`` — trace one serving burst over a synthetic workload;
* ``report`` — analyze a previously recorded ``.trace.json``;
* ``overhead`` — measure the tracing overhead on the fused path
  (enabled vs disabled), the number quoted in EXPERIMENTS.md;
* ``memory`` — weigh one encoder training step with ``tracemalloc`` and
  print the MiB above the step's start at every backward node
  (:mod:`repro.profile.memory`), the table in README.md.

``--check`` turns the replay self-check into a gate: exit non-zero when the
replayed prediction for the *recorded* configuration deviates from the
measured step wall time by more than ``--tolerance`` (CI runs this).
``--gpusim`` adds a counterfactual replay under the analytical A100 model;
``--scale-phase``/``--scale-kernel`` add user what-ifs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from typing import Dict, List, Optional

from repro.profile import tracer as tracer_mod
from repro.profile.dag import build_dag
from repro.profile.replay import gpusim_cost_fn, replay
from repro.profile.report import format_report


def _parse_scales(pairs: Optional[List[str]], flag: str) -> Optional[Dict[str, float]]:
    if not pairs:
        return None
    out: Dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"{flag} expects NAME=FACTOR, got {pair!r}")
        out[name] = float(value)
    return out


def _make_train_step(args):
    import numpy as np

    from repro.nn.autograd import parameter
    from repro.nn.sparse_attention import dfss_sparse_attention

    rng = np.random.default_rng(args.seed)
    b, h, n, d = args.shape
    q = parameter(rng.standard_normal((b, h, n, d), dtype=np.float32))
    k = parameter(rng.standard_normal((b, h, n, d), dtype=np.float32))
    v = parameter(rng.standard_normal((b, h, n, d), dtype=np.float32))

    def step() -> None:
        out, _ = dfss_sparse_attention(
            q, k, v, pattern=args.pattern, backend=args.backend
        )
        out.sum().backward()
        q.grad = k.grad = v.grad = None

    return step


def _record(step, step_name: str, warmup: int):
    """Run ``step`` under a trace session, returning the tracer.

    Warm-up iterations run inside the session but outside the step span, so
    the recorded step sees compiled plans and warmed numpy caches — the
    steady state the replayer should model.
    """
    with tracer_mod.trace() as active:
        for _ in range(max(warmup, 0)):
            step()
        with active.span(step_name, "step"):
            step()
    return active


def _analyze(payload, args) -> int:
    dag = build_dag(payload, step=getattr(args, "step", None))
    self_check = replay(dag)
    print(format_report(dag, self_check))

    phase_scale = _parse_scales(args.scale_phase, "--scale-phase")
    kernel_scale = _parse_scales(args.scale_kernel, "--scale-kernel")
    if phase_scale or kernel_scale:
        what_if = replay(dag, phase_scale=phase_scale, kernel_scale=kernel_scale)
        print(
            f"\nWhat-if (phase_scale={phase_scale or {}}, "
            f"kernel_scale={kernel_scale or {}}): "
            f"predicted step {what_if.predicted_us / 1e3:.4f} ms"
        )
    if args.gpusim:
        simulated = replay(dag, cost_fn=gpusim_cost_fn())
        print(
            f"\nGpusim replay (analytical A100 kernel costs): "
            f"predicted step {simulated.predicted_us / 1e3:.4f} ms"
        )

    if args.check:
        error = self_check.rel_error
        if error is None:
            print("replay self-check FAILED: no step span recorded", file=sys.stderr)
            return 1
        if error > args.tolerance:
            print(
                f"replay self-check FAILED: predicted vs measured error "
                f"{100.0 * error:.2f}% exceeds {100.0 * args.tolerance:.0f}%",
                file=sys.stderr,
            )
            return 1
        print(
            f"\nreplay self-check OK "
            f"({100.0 * error:.4f}% <= {100.0 * args.tolerance:.0f}%)"
        )
    return 0


def _cmd_train(args) -> int:
    step = _make_train_step(args)
    active = _record(step, "train_step", args.warmup)
    if args.trace:
        active.write(args.trace)
        print(f"wrote {args.trace}")
    return _analyze(active.payload(), args)


def _cmd_serve(args) -> int:
    from repro.serve import serve
    from repro.serve.workload import synthetic_workload

    requests = synthetic_workload(args.requests, seed=args.seed)
    with tracer_mod.trace() as active:
        with active.span("serve_burst", "step"):
            serve(requests, max_batch_size=args.batch_size)
    if args.trace:
        active.write(args.trace)
        print(f"wrote {args.trace}")
    return _analyze(active.payload(), args)


def _cmd_report(args) -> int:
    return _analyze(args.trace, args)


def _cmd_overhead(args) -> int:
    step = _make_train_step(args)

    def timed() -> float:
        t0 = time.perf_counter()
        step()
        return time.perf_counter() - t0

    for _ in range(max(args.warmup, 0)):
        step()
    # Interleave disabled/enabled samples (the bench runner's idiom): paired
    # ratios cancel the machine's slow drift, which at ~10 ms/step otherwise
    # dwarfs the effect being measured.
    disabled: List[float] = []
    enabled: List[float] = []
    for i in range(args.repeats):
        # alternate the order within each pair so cache-warming asymmetry
        # does not bias one side
        if i % 2 == 0:
            disabled.append(timed())
            with tracer_mod.trace():
                enabled.append(timed())
        else:
            with tracer_mod.trace():
                enabled.append(timed())
            disabled.append(timed())
    overhead = statistics.median(
        e / d - 1.0 for e, d in zip(enabled, disabled)
    )
    print(
        f"fused train step at shape {'x'.join(map(str, args.shape))}: "
        f"disabled median {statistics.median(disabled) * 1e3:.3f} ms, "
        f"enabled median {statistics.median(enabled) * 1e3:.3f} ms, "
        f"tracing overhead {100.0 * overhead:+.2f}% "
        f"(median paired ratio over {args.repeats} repeats)"
    )
    return 0


def _cmd_memory(args) -> int:
    from repro.profile import memory

    model = memory.TRAIN_SHORT_MODEL
    print(
        f"train_short {args.mechanism} step (B{memory.TRAIN_SHORT_BATCH}"
        f"·L{memory.TRAIN_SHORT_SEQ}, d{model['model_dim']}·H{model['num_heads']}, "
        f"{model['num_layers']} layers, ffn {model['ffn_dim']}, Adam, "
        f"seed {memory.TRAIN_SHORT_SEED}): MiB above the step's start"
    )
    print(memory.format_step_memory(memory.encoder_step_memory(args.mechanism)))
    return 0


def _add_analysis_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--check", action="store_true",
        help="fail unless the replay self-check is within --tolerance",
    )
    sub.add_argument(
        "--tolerance", type=float, default=0.10,
        help="replay self-check relative tolerance (default 0.10)",
    )
    sub.add_argument(
        "--gpusim", action="store_true",
        help="also replay under analytical A100 kernel costs",
    )
    sub.add_argument(
        "--scale-phase", action="append", metavar="PHASE=FACTOR",
        help="what-if: scale every kernel of a phase (e.g. bwd=0.5)",
    )
    sub.add_argument(
        "--scale-kernel", action="append", metavar="KERNEL=FACTOR",
        help="what-if: scale a named kernel (e.g. nm_attention=0.0)",
    )


def _add_shape_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--shape", type=int, nargs=4, default=(2, 4, 256, 64),
        metavar=("B", "H", "L", "D"), help="train-step tensor shape",
    )
    sub.add_argument("--pattern", default="2:4", help="N:M pattern (default 2:4)")
    sub.add_argument("--backend", default=None, help="kernel backend override")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--warmup", type=int, default=1,
        help="warm-up steps before the recorded one (default 1)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description="Chrome-trace profiler, op-DAG critical path, and replay simulator.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="trace one fused DFSS train step")
    _add_shape_flags(train)
    train.add_argument("--trace", help="write the Chrome trace JSON here")
    _add_analysis_flags(train)
    train.set_defaults(fn=_cmd_train)

    serve_cmd = commands.add_parser("serve", help="trace one serving burst")
    serve_cmd.add_argument("--requests", type=int, default=16)
    serve_cmd.add_argument("--batch-size", type=int, default=8)
    serve_cmd.add_argument("--seed", type=int, default=0)
    serve_cmd.add_argument("--trace", help="write the Chrome trace JSON here")
    _add_analysis_flags(serve_cmd)
    serve_cmd.set_defaults(fn=_cmd_serve)

    report = commands.add_parser("report", help="analyze a recorded trace file")
    report.add_argument("trace", help="path to a .trace.json file")
    report.add_argument("--step", default=None, help="step span name to analyze")
    _add_analysis_flags(report)
    report.set_defaults(fn=_cmd_report)

    overhead = commands.add_parser(
        "overhead", help="measure tracing overhead (enabled vs disabled)"
    )
    _add_shape_flags(overhead)
    overhead.add_argument("--repeats", type=int, default=9)
    overhead.set_defaults(fn=_cmd_overhead)

    memory = commands.add_parser(
        "memory", help="tracemalloc MiB at every backward node of an encoder step"
    )
    memory.add_argument(
        "--mechanism", default="dfss_2:4", help="attention mechanism (default dfss_2:4)"
    )
    memory.set_defaults(fn=_cmd_memory)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
