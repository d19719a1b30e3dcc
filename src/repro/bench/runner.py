"""Timing harness comparing kernel backends at a fixed smoke/default/full scale.

Every benchmark times one end-to-end attention pipeline stage under each
backend on identical inputs, reports robust order
statistics (median / p10 / p90 over repeats), the speedup of each backend
over ``reference``, and the relative Frobenius error between the backend's
output and the reference output — the parity signal the CI gate refuses to
ship without.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.dfss import DfssMechanism
from repro.core.attention import dfss_attention
from repro.core.backend import REFERENCE
from repro.core.patterns import resolve_pattern
from repro.nn.attention_layer import DfssCore
from repro.nn.autograd import Tensor
from repro.nn.functional import dense_masked_attention
from repro.registry import available_mechanisms, find_spec, make_core
from repro.utils.seeding import new_rng


@dataclass(frozen=True)
class BenchShape:
    """Multi-head attention problem size: ``(batch, heads, seq_len, head_dim)``."""

    batch: int
    heads: int
    seq_len: int
    head_dim: int

    def label(self, pattern: str) -> str:
        return (
            f"B{self.batch}xH{self.heads}xL{self.seq_len}xD{self.head_dim}/{pattern}"
        )


#: Problem sizes per experiment scale; smoke finishes in seconds on a laptop.
SCALE_SHAPES: Dict[str, BenchShape] = {
    "smoke": BenchShape(batch=2, heads=4, seq_len=256, head_dim=64),
    "default": BenchShape(batch=4, heads=8, seq_len=512, head_dim=64),
    "full": BenchShape(batch=8, heads=8, seq_len=1024, head_dim=64),
}

#: Benchmarked end-to-end pipeline stages: the forward and the train step.
#: ``attention_train_step`` is the trainable fwd+bwd step; its ``reference``
#: row times the dense masked autograd path (the numerical oracle for
#: training) and its ``fast`` row the compressed sparse op, so the reported
#: speedup is exactly "sparse training step vs dense autograd".
BENCH_KERNELS = (
    "attention_e2e",
    "attention_train_step",
)

#: Multicore tiled backend vs the single-core fast backend, forward and
#: train, produced by :func:`run_multicore_benchmarks`.  The ``multicore``
#: row's parity against ``fast`` must be exactly 0.0 — the tiled plan runs
#: the identical kernels on slices, so any nonzero bit is a tiling bug.
MULTICORE_BENCH_KERNELS = (
    "attention_multicore",
    "attention_multicore_train",
)

#: Workers-vs-speedup scaling sweep rows (backend ``w<N>``) produced by
#: :func:`run_multicore_benchmarks` when a ``scaling`` sweep is requested.
MULTICORE_SCALING_KERNEL = "attention_multicore_scaling"

#: Per-mechanism train-step matrix (sparse compressed path vs dense masked
#: autograd path) produced by :func:`run_train_matrix`.
TRAIN_MATRIX_KERNEL = "attention_train_matrix"

#: Serving throughput on the synthetic mixed workload (batched coalescing vs
#: per-request sequential execution) produced by :func:`run_serving_benchmark`.
SERVING_KERNEL = "serving_throughput"

#: Open-loop serving latency: the synthetic workload's ``arrival_offset_s``
#: Poisson schedule replayed in real time through one batching server,
#: produced by :func:`run_serving_open_loop`.
SERVING_LATENCY_KERNEL = "serving_latency"

#: Everything ``python -m repro.bench`` runs by default.
ALL_BENCH_KERNELS = (
    BENCH_KERNELS
    + MULTICORE_BENCH_KERNELS
    + (TRAIN_MATRIX_KERNEL, SERVING_KERNEL, SERVING_LATENCY_KERNEL)
)


@dataclass
class BenchResult:
    """One (kernel, shape, backend) timing row of ``BENCH_kernels.json``."""

    kernel: str
    shape: str
    backend: str
    median_s: float
    p10_s: float
    p90_s: float
    speedup: float = 1.0
    parity_max_rel_err: Optional[float] = None
    repeats: int = 0
    timings_s: List[float] = field(default_factory=list)
    #: kernel-specific extra payload columns (e.g. the serving benchmark's
    #: requests/sec and latency percentiles); merged into the JSON row.
    extra: Optional[Dict[str, float]] = None


def _time(fn: Callable[[], object], repeats: int, warmup: int) -> List[float]:
    for _ in range(warmup):
        fn()
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return timings


def _rel_frobenius(candidate: np.ndarray, reference: np.ndarray) -> float:
    denom = float(np.linalg.norm(reference))
    if denom == 0.0:
        return float(np.linalg.norm(candidate))
    return float(np.linalg.norm(candidate - reference) / denom)


def _bench_cases(
    shape: BenchShape, pattern: str, rng: np.random.Generator
) -> Dict[str, Callable[[str], np.ndarray]]:
    """Per-kernel ``run(backend)`` closures on shared inputs."""
    dims = (shape.batch, shape.heads, shape.seq_len, shape.head_dim)
    q = rng.normal(size=dims).astype(np.float32)
    k = rng.normal(size=dims).astype(np.float32)
    v = rng.normal(size=dims).astype(np.float32)

    def train_step(backend: str) -> np.ndarray:
        """One fwd+bwd attention step; returns output and input grads for parity.

        ``reference`` runs the dense masked autograd oracle (the pre-sparse-op
        training path, with the reference selection kernel); any other
        backend runs the compressed sparse op end to end on that backend.
        """
        qt = Tensor(q, requires_grad=True)
        kt = Tensor(k, requires_grad=True)
        vt = Tensor(v, requires_grad=True)
        if backend == REFERENCE:
            out = dense_masked_attention(
                qt, kt, vt, functools.partial(DfssMechanism(pattern)._mask, backend=backend)
            )
        else:
            out = DfssCore(pattern, backend=backend)(qt, kt, vt)
        out.sum().backward()
        return np.concatenate(
            [out.data.ravel(), qt.grad.ravel(), kt.grad.ravel(), vt.grad.ravel()]
        )

    return {
        "attention_e2e": lambda backend: dfss_attention(
            q, k, v, pattern=pattern, backend=backend
        ),
        "attention_train_step": train_step,
    }


def run_benchmarks(
    scale: str = "smoke",
    repeats: int = 5,
    warmup: int = 1,
    patterns: Sequence[str] = ("1:2", "2:4"),
    backends: Sequence[str] = (REFERENCE, "fast"),
    kernels: Optional[Sequence[str]] = None,
    seed: int = 0,
    shape: Optional[BenchShape] = None,
) -> List[BenchResult]:
    """Time every kernel x pattern x backend combination and check parity.

    Parameters
    ----------
    scale:
        One of ``smoke`` / ``default`` / ``full`` (ignored when ``shape`` is
        given explicitly).
    repeats, warmup:
        Timed repetitions per measurement and discarded warmup runs.
    patterns:
        N:M patterns to benchmark; each gets its own problem instance.
    backends:
        Backends to time.  The first is treated as the speedup/parity
        reference (``reference`` by default).
    kernels:
        Subset of :data:`BENCH_KERNELS` to run; all when omitted.
    shape:
        Explicit :class:`BenchShape` override, mainly for tests.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if shape is None:
        if scale not in SCALE_SHAPES:
            raise ValueError(
                f"unknown scale {scale!r}; expected one of {'|'.join(SCALE_SHAPES)}"
            )
        shape = SCALE_SHAPES[scale]
    selected = tuple(kernels) if kernels else BENCH_KERNELS
    unknown = set(selected) - set(BENCH_KERNELS)
    if unknown:
        raise ValueError(f"unknown kernels {sorted(unknown)}; expected {BENCH_KERNELS}")
    if not backends:
        raise ValueError("at least one backend is required")
    baseline_backend = backends[0]

    results: List[BenchResult] = []
    for pattern in patterns:
        resolve_pattern(pattern)  # fail fast on typos
        rng = new_rng(seed)
        cases = _bench_cases(shape, pattern, rng)
        for kernel in selected:
            run = cases[kernel]
            baseline_out = run(baseline_backend)
            baseline_median: Optional[float] = None
            for backend in backends:
                parity = (
                    None
                    if backend == baseline_backend
                    else _rel_frobenius(run(backend), baseline_out)
                )
                row = _time_row(
                    kernel, shape.label(pattern), backend, lambda: run(backend),
                    repeats, warmup, baseline_median, parity,
                )
                if backend == baseline_backend:
                    baseline_median = row.median_s
                results.append(row)
    return results


def _resolve_shape(scale: str, shape: Optional[BenchShape]) -> BenchShape:
    if shape is not None:
        return shape
    if scale not in SCALE_SHAPES:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of {'|'.join(SCALE_SHAPES)}"
        )
    return SCALE_SHAPES[scale]


def _time_row(
    kernel: str,
    shape_label: str,
    backend: str,
    fn: Callable[[], object],
    repeats: int,
    warmup: int,
    baseline_median: Optional[float],
    parity: Optional[float],
) -> BenchResult:
    timings = _time(fn, repeats, warmup)
    return _row_from_timings(
        kernel, shape_label, backend, timings, baseline_median, parity
    )


def _row_from_timings(
    kernel: str,
    shape_label: str,
    backend: str,
    timings: List[float],
    baseline_median: Optional[float],
    parity: Optional[float],
) -> BenchResult:
    median = float(np.median(timings))
    if baseline_median is None:
        speedup = 1.0
    else:
        speedup = baseline_median / median if median > 0 else float("inf")
    return BenchResult(
        kernel=kernel,
        shape=shape_label,
        backend=backend,
        median_s=median,
        p10_s=float(np.percentile(timings, 10)),
        p90_s=float(np.percentile(timings, 90)),
        speedup=speedup,
        parity_max_rel_err=parity,
        repeats=len(timings),
        timings_s=[float(t) for t in timings],
    )


@contextlib.contextmanager
def _scoped_workers(workers: Optional[int]):
    """Temporarily pin ``$REPRO_MULTICORE_WORKERS`` (the pool re-resolves it
    per run, rebuilding the executor when the count changes)."""
    from repro.core.multicore import WORKERS_ENV_VAR

    if workers is None:
        yield
        return
    old = os.environ.get(WORKERS_ENV_VAR)
    os.environ[WORKERS_ENV_VAR] = str(int(workers))
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(WORKERS_ENV_VAR, None)
        else:
            os.environ[WORKERS_ENV_VAR] = old


def _exact_parity(candidate: np.ndarray, reference: np.ndarray) -> float:
    """0.0 on bitwise-equal arrays, else the honest relative error."""
    if np.array_equal(candidate, reference):
        return 0.0
    return _rel_frobenius(candidate, reference)


def run_multicore_benchmarks(
    scale: str = "smoke",
    repeats: int = 5,
    warmup: int = 1,
    patterns: Sequence[str] = ("1:2", "2:4"),
    kernels: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    scaling: Optional[Sequence[int]] = None,
    seed: int = 0,
    shape: Optional[BenchShape] = None,
) -> List[BenchResult]:
    """Multicore tiled plan vs the single-core fast plan, forward and train.

    Both arms run the identical fused compiled-plan pipeline; what differs is
    the backend: ``fast`` executes each stage as one whole-batch numpy call,
    ``multicore`` tiles the flattened batch×head dimension over the worker
    pool (see :mod:`repro.core.multicore`).  Rows land in
    ``BENCH_kernels.json`` as ``attention_multicore`` (inference forward) and
    ``attention_multicore_train`` (fwd+bwd step on fresh leaf tensors) with
    the backend in the backend column.  The ``multicore`` row's parity
    against ``fast`` must be exactly 0.0 — the tiles run the same kernels on
    disjoint slices, so any nonzero bit is a tiling bug, never noise — and
    carries a ``workers`` extra column recording the pool size the row
    actually ran with (the CI gate only applies its speedup floor when this
    is >= 2; a single-core host cannot demonstrate a parallel speedup).

    ``workers`` pins the pool size (default: ``$REPRO_MULTICORE_WORKERS``,
    else the host cpu count).  ``scaling`` additionally sweeps the forward
    pass over the given worker counts on the first pattern, emitting
    ``attention_multicore_scaling`` rows (backend ``w<N>``) whose speedup
    baseline is the single-worker arm — the workers-vs-speedup curve.

    The two backends do near-identical work per stage, so repeats are
    interleaved (fast, multicore, fast, ...) to keep host drift off the
    ratio.
    """
    from repro.core.backend import FAST, MULTICORE
    from repro.core.multicore import resolve_worker_count
    from repro.nn.sparse_attention import dfss_sparse_attention

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    shape = _resolve_shape(scale, shape)
    selected = tuple(kernels) if kernels else MULTICORE_BENCH_KERNELS
    unknown = set(selected) - set(MULTICORE_BENCH_KERNELS)
    if unknown:
        raise ValueError(
            f"unknown kernels {sorted(unknown)}; expected {MULTICORE_BENCH_KERNELS}"
        )

    results: List[BenchResult] = []
    with _scoped_workers(workers):
        pool_workers = resolve_worker_count()
        for pattern in patterns:
            resolve_pattern(pattern)  # fail fast on typos
            rng = new_rng(seed)
            dims = (shape.batch, shape.heads, shape.seq_len, shape.head_dim)
            q = rng.normal(size=dims).astype(np.float32)
            k = rng.normal(size=dims).astype(np.float32)
            v = rng.normal(size=dims).astype(np.float32)

            def forward(backend: str) -> np.ndarray:
                return dfss_attention(q, k, v, pattern=pattern, backend=backend)

            def train(backend: str) -> np.ndarray:
                qt = Tensor(q, requires_grad=True)
                kt = Tensor(k, requires_grad=True)
                vt = Tensor(v, requires_grad=True)
                out, _ = dfss_sparse_attention(
                    qt, kt, vt, pattern=pattern, backend=backend
                )
                out.sum().backward()
                return np.concatenate(
                    [out.data.ravel(), qt.grad.ravel(), kt.grad.ravel(), vt.grad.ravel()]
                )

            cases: Dict[str, Callable[[str], np.ndarray]] = {
                "attention_multicore": forward,
                "attention_multicore_train": train,
            }
            label = shape.label(pattern)
            for kernel in selected:
                run = cases[kernel]
                baseline_out = run(FAST)
                parity = _exact_parity(run(MULTICORE), baseline_out)
                for _ in range(warmup):
                    run(FAST)
                    run(MULTICORE)
                fast_timings: List[float] = []
                multicore_timings: List[float] = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    run(FAST)
                    fast_timings.append(time.perf_counter() - start)
                    start = time.perf_counter()
                    run(MULTICORE)
                    multicore_timings.append(time.perf_counter() - start)
                fast_row = _row_from_timings(
                    kernel, label, FAST, fast_timings, None, None
                )
                results.append(fast_row)
                multicore_row = _row_from_timings(
                    kernel, label, MULTICORE, multicore_timings,
                    fast_row.median_s, parity,
                )
                multicore_row.extra = {"workers": float(pool_workers)}
                results.append(multicore_row)

    if scaling:
        pattern = patterns[0]
        rng = new_rng(seed)
        dims = (shape.batch, shape.heads, shape.seq_len, shape.head_dim)
        q = rng.normal(size=dims).astype(np.float32)
        k = rng.normal(size=dims).astype(np.float32)
        v = rng.normal(size=dims).astype(np.float32)
        label = shape.label(pattern)
        sweep = sorted({1} | {max(1, int(n)) for n in scaling})
        base_median: Optional[float] = None
        for n in sweep:
            with _scoped_workers(n):
                timings = _time(
                    lambda: dfss_attention(
                        q, k, v, pattern=pattern, backend="multicore"
                    ),
                    repeats, warmup,
                )
            row = _row_from_timings(
                MULTICORE_SCALING_KERNEL, label, f"w{n}", timings,
                base_median, None,
            )
            row.extra = {"workers": float(n)}
            if base_median is None:
                base_median = row.median_s
            results.append(row)
    return results


def run_train_matrix(
    scale: str = "smoke",
    repeats: int = 3,
    warmup: int = 1,
    mechanisms: Optional[Sequence[str]] = None,
    backend: Optional[str] = None,
    seed: int = 0,
    shape: Optional[BenchShape] = None,
) -> List[BenchResult]:
    """Per-mechanism fwd+bwd train-step matrix: compressed sparse vs dense autograd.

    Sweeps every mask-based trainable mechanism
    (``available_mechanisms(trainable=True, produces_mask=True,
    compressed=True)``) and times one full training step (forward + backward
    on fresh leaf tensors) two ways:

    * ``dense`` — :func:`repro.nn.functional.dense_masked_attention`, the
      numerical oracle and speedup baseline, with the mask derived from its
      autograd scores as the core selects (DFSS-family masks through the
      backend's ``nm_prune_mask`` kernel);
    * ``sparse`` — the mechanism's trainable core: the fused N:M kernels
      for DFSS-family mechanisms, the row-block kernels for every other mask.

    Rows land in ``BENCH_kernels.json`` as kernel ``attention_train_matrix``
    with shape labels like ``B2xH4xL256xD64/local``; the ``sparse`` row's
    ``speedup`` is dense-median / sparse-median and its parity column checks
    output + input gradients between the two arms.  ``backend`` selects the
    kernel backend both arms dispatch to (default: ``$REPRO_BACKEND``,
    else "fast").
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    shape = _resolve_shape(scale, shape)
    if mechanisms is None:
        mechanisms = available_mechanisms(
            trainable=True, produces_mask=True, compressed=True
        )

    rng = new_rng(seed)
    dims = (shape.batch, shape.heads, shape.seq_len, shape.head_dim)
    q = rng.normal(size=dims).astype(np.float32)
    k = rng.normal(size=dims).astype(np.float32)
    v = rng.normal(size=dims).astype(np.float32)

    results: List[BenchResult] = []
    for mechanism in mechanisms:
        core = make_core(mechanism, seq_len_hint=shape.seq_len, backend=backend)

        def step(attend) -> np.ndarray:
            qt = Tensor(q, requires_grad=True)
            kt = Tensor(k, requires_grad=True)
            vt = Tensor(v, requires_grad=True)
            out = attend(qt, kt, vt)
            out.sum().backward()
            return np.concatenate(
                [out.data.ravel(), qt.grad.ravel(), kt.grad.ravel(), vt.grad.ravel()]
            )

        sparse_out = step(core)
        if isinstance(core, DfssCore):
            # N:M over the dense arm's own scores, inside the key blocks the
            # core selects in (BigBird's for the BigBird + DFSS core)
            structure = core.structure(shape.seq_len, shape.seq_len)
            score_mask = functools.partial(
                DfssMechanism(core.pattern)._mask, backend=backend,
                allowed=None if structure is None else structure.to_mask(),
            )
        elif find_spec(mechanism).static_mask:
            # the mask depends on the lengths alone: the core's cached one
            score_mask = core.last_mask()
        else:
            # content masks (Top-K and the clustering masks): the
            # mechanism's own, derived per step from Q and K as the core
            # derives it
            def score_mask(scores):
                return core.mechanism.attention_mask(q, k)

        def dense(qt, kt, vt):
            return dense_masked_attention(qt, kt, vt, score_mask)

        label = shape.label(mechanism)
        dense_out = step(dense)
        dense_row = _time_row(
            TRAIN_MATRIX_KERNEL, label, "dense", lambda: step(dense),
            repeats, warmup, None, None,
        )
        results.append(dense_row)
        results.append(
            _time_row(
                TRAIN_MATRIX_KERNEL, label, "sparse", lambda: step(core),
                repeats, warmup, dense_row.median_s,
                _rel_frobenius(sparse_out, dense_out),
            )
        )
    return results


def run_serving_benchmark(
    scale: str = "smoke",
    repeats: int = 3,
    warmup: int = 1,
    n_requests: Optional[int] = None,
    backends: Sequence[str] = ("sequential", "batched"),
    max_batch_size: int = 16,
    seed: int = 0,
    shape: Optional[BenchShape] = None,
) -> List[BenchResult]:
    """Closed-loop serving throughput: ragged coalescing vs sequential serving.

    Replays the synthetic mixed workload (static-mask mechanisms across three
    sequence lengths, see :func:`repro.serve.workload.synthetic_workload`)
    through ``repro.serve`` twice: ``sequential`` serves every request in
    isolation — a fresh single-request server per request, so no coalescing,
    no cross-request structure cache, no engine reuse, exactly what handling
    each request independently costs — and ``batched`` hands the whole stream
    to one server that coalesces up to ``max_batch_size`` requests into one
    ragged batch and shares cached structures across them.  All requests are
    enqueued up front (closed loop), so the elapsed drain time is pure
    serving work.

    Rows land in ``BENCH_kernels.json`` as kernel ``serving_throughput`` with
    extra columns ``requests_per_s`` and ``latency_p50_s``/``p95``/``p99``;
    the ``batched`` row's ``speedup`` is sequential-median / batched-median —
    identical to the requests/sec ratio, which is what the CI gate floors.
    The parity column compares the batched outputs against the sequential
    outputs and must be exactly ``0.0``: a batch stacks its requests along
    the leading axis of one plan call, and every plan kernel is independent
    per leading slice, so coalescing never perturbs a request's bits.
    """
    from repro.serve import AttentionServer, serve, synthetic_workload

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    shape = _resolve_shape(scale, shape)
    if n_requests is None:
        n_requests = 12 * shape.batch
    batch_sizes = {"sequential": 1, "batched": max_batch_size}
    unknown = set(backends) - set(batch_sizes)
    if unknown:
        raise ValueError(
            f"unknown serving backends {sorted(unknown)}; "
            f"expected {tuple(batch_sizes)}"
        )
    seq_lens = tuple(
        sorted({max(16, shape.seq_len // 4), max(16, shape.seq_len // 2), shape.seq_len})
    )
    requests = synthetic_workload(
        n_requests,
        seq_lens=seq_lens,
        # single-head requests: the per-stream serving granularity, and the
        # regime where coalescing (not intra-request head grouping) pays
        heads=1,
        head_dim=shape.head_dim,
        seed=seed,
    )
    label = shape.label(f"serve-mix{n_requests}")

    results: List[BenchResult] = []
    baseline_out: Optional[np.ndarray] = None
    baseline_median: Optional[float] = None
    for backend in backends:
        batch_size = batch_sizes[backend]
        # the batched arm is one long-lived server handling the stream — its
        # structure cache persists across requests (that is the feature being
        # measured); the sequential arm spins up a fresh server per request
        server = None if batch_size == 1 else AttentionServer(
            max_batch_size=batch_size
        )

        def run():
            if server is None:
                # per-request isolation: a fresh server per request
                served = []
                for request in requests:
                    served.extend(serve([request], max_batch_size=1))
                return served
            return serve(requests, server=server)

        served = None
        for _ in range(warmup):
            served = run()
        timings = []
        for _ in range(repeats):
            start = time.perf_counter()
            served = run()
            timings.append(time.perf_counter() - start)
        out = np.concatenate([r.output.ravel() for r in served])
        parity = (
            None if baseline_out is None else _rel_frobenius(out, baseline_out)
        )
        median = float(np.median(timings))
        if baseline_median is None:
            speedup = 1.0
        else:
            speedup = baseline_median / median if median > 0 else float("inf")
        latencies = np.array([r.latency_s for r in served], dtype=float)
        results.append(
            BenchResult(
                kernel=SERVING_KERNEL,
                shape=label,
                backend=backend,
                median_s=median,
                p10_s=float(np.percentile(timings, 10)),
                p90_s=float(np.percentile(timings, 90)),
                speedup=speedup,
                parity_max_rel_err=parity,
                repeats=repeats,
                timings_s=[float(t) for t in timings],
                extra={
                    "requests_per_s": (
                        n_requests / median if median > 0 else float("inf")
                    ),
                    "latency_p50_s": float(np.percentile(latencies, 50)),
                    "latency_p95_s": float(np.percentile(latencies, 95)),
                    "latency_p99_s": float(np.percentile(latencies, 99)),
                },
            )
        )
        if baseline_median is None:
            baseline_out = out
            baseline_median = median
    return results


def run_serving_open_loop(
    scale: str = "smoke",
    repeats: int = 3,
    warmup: int = 1,
    n_requests: Optional[int] = None,
    rate_rps: float = 200.0,
    deadline_s: float = 0.05,
    max_batch_size: int = 16,
    seed: int = 0,
    shape: Optional[BenchShape] = None,
) -> List[BenchResult]:
    """Open-loop serving latency: replay the Poisson arrival schedule in real time.

    Where :func:`run_serving_benchmark` enqueues everything up front (closed
    loop — a throughput number), this replays each request at its recorded
    ``arrival_offset_s`` against one long-lived batching server whose clock is
    the replay wall clock, so queueing delay, batching-deadline waits, and
    any backlog a slow batch causes all land in the measured latency — the
    number a tail-latency SLO is written against.

    Per-request open-loop latency = completion − *scheduled* arrival: the
    server-side queue+execute latency plus any lag between the scheduled
    arrival and the moment the replayer actually enqueued (backlog from a
    batch that overran the next arrival).  One ``BenchResult`` row lands in
    ``BENCH_kernels.json`` as kernel ``serving_latency`` / backend
    ``open_loop``; ``median_s``/``p10_s``/``p90_s`` are order statistics of
    the pooled per-request latencies across replays (not of replay wall
    times — those go to ``timings_s``), and ``extra`` carries the p50/p95/p99
    tail, the deadline-miss count against ``deadline_s``, and the offered
    arrival rate.
    """
    from repro.serve import AttentionServer, synthetic_workload

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    shape = _resolve_shape(scale, shape)
    if n_requests is None:
        n_requests = 12 * shape.batch
    seq_lens = tuple(
        sorted({max(16, shape.seq_len // 4), max(16, shape.seq_len // 2), shape.seq_len})
    )
    requests = synthetic_workload(
        n_requests,
        seq_lens=seq_lens,
        heads=1,
        head_dim=shape.head_dim,
        rate_rps=rate_rps,
        seed=seed,
    )
    schedule = sorted(requests, key=lambda r: r.arrival_offset_s)

    def replay() -> Tuple[List[float], float]:
        t0 = time.perf_counter()
        server = AttentionServer(
            max_batch_size=max_batch_size,
            clock=lambda: time.perf_counter() - t0,
        )
        handles = []
        for request in schedule:
            # wait out the inter-arrival gap, firing expired batching
            # deadlines so queued requests do not sit past their wait bound
            while True:
                now = time.perf_counter() - t0
                if now >= request.arrival_offset_s:
                    break
                server.step(now=now)
                remaining = request.arrival_offset_s - (time.perf_counter() - t0)
                if remaining > 0:
                    time.sleep(min(remaining, 1e-4))
            handles.append((server.enqueue(request), request.arrival_offset_s))
            server.step()
        server.drain()
        elapsed = time.perf_counter() - t0
        latencies = [
            max(pending.arrival - offset, 0.0) + pending.result.latency_s
            for pending, offset in handles
        ]
        return latencies, elapsed

    for _ in range(warmup):
        replay()
    pooled: List[float] = []
    walls: List[float] = []
    for _ in range(repeats):
        latencies, elapsed = replay()
        pooled.extend(latencies)
        walls.append(elapsed)
    samples = np.asarray(pooled, dtype=float)
    misses = int(np.sum(samples > deadline_s))
    median_wall = float(np.median(walls))
    return [
        BenchResult(
            kernel=SERVING_LATENCY_KERNEL,
            shape=shape.label(f"serve-open{n_requests}@{rate_rps:g}rps"),
            backend="open_loop",
            median_s=float(np.percentile(samples, 50)),
            p10_s=float(np.percentile(samples, 10)),
            p90_s=float(np.percentile(samples, 90)),
            speedup=1.0,
            parity_max_rel_err=None,
            repeats=repeats,
            timings_s=[float(t) for t in walls],
            extra={
                "latency_p50_s": float(np.percentile(samples, 50)),
                "latency_p95_s": float(np.percentile(samples, 95)),
                "latency_p99_s": float(np.percentile(samples, 99)),
                "deadline_s": float(deadline_s),
                "deadline_misses": float(misses),
                "deadline_miss_rate": float(misses) / float(len(samples) or 1),
                "offered_rate_rps": float(rate_rps),
                "requests_per_s": (
                    n_requests / median_wall if median_wall > 0 else float("inf")
                ),
            },
        )
    ]
