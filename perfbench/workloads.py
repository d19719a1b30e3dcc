"""One benchmark run of one workload, in its own process (started by ``run.py``).

``python3 perfbench/workloads.py --workload W --seed N --seconds S --trace T
--spawned-at <time.monotonic() of the launcher at spawn>`` sets the workload
up, measures it and prints one JSON line: ``{"setup_s", "setup_wall_s",
"attempted", "failed", "failures", "correct", "metrics", "env"}``.
``setup_s`` is the CPU time of the process from its start until set-up is
done, ``setup_wall_s`` the wall time from the launcher's spawn.  With
``--setup-only`` it stops after set-up and prints those two.  ``run.py`` adds the units,
takes the median set-up time over several processes and prints the final
result; run it through ``run.py``, which also pins BLAS to one thread and
clears the ``REPRO_*`` knobs before this module imports numpy.

Workloads call only public entry points of the program: ``repro.engine``,
``repro.core`` plans, ``repro.nn`` models and ``repro.serve``.  Layer times
come from wrappers installed around those calls in a separate traced pass
(``--trace 1``); nothing inside ``src/`` is traced.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import sys
import time
from contextlib import nullcontext

import numpy as np

import measure
from measure import MIB, MemoryProbe, SpanRecorder, Tally

import repro.nn.attention_layer as attention_layer
from repro.core import AttentionPlan, plan_cache_stats
from repro.engine import AttentionEngine
from repro.nn import Adam, SequenceClassifier, TransformerEncoder
from repro.serve import AttentionServer, ServeRequest

#: Largest absolute error allowed against the float64 oracle (float32 outputs).
ATOL = 2e-3

#: The program's plan stages, wrapped to time and weigh them from outside.
CORE_STAGES = (
    ("compute_scores", "core.sddmm"),
    ("compute_probs", "core.softmax"),
    ("contract", "core.contract"),
    ("backward", "core.bwd"),
)


def core_targets():
    return [(AttentionPlan, attr, name) for attr, name in CORE_STAGES]


def plan_cache_hit_pct(before: dict, after: dict) -> float:
    """Share of plan-cache lookups between two ``plan_cache_stats()`` that hit."""
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return 100.0 * hits / lookups if lookups else 0.0


class _NoSpans:
    """Stand-in for :class:`SpanRecorder` in untraced passes."""

    def region(self, name, **attrs):
        return nullcontext()


NO_SPANS = _NoSpans()


def ms(seconds: float) -> float:
    return seconds * 1e3


def cpu() -> float:
    """CPU seconds of this process.

    Speedups are ratios of CPU times: on a shared virtual machine a call's
    wall time also holds the time its virtual CPU was lent to other guests
    (the kernel's steal time) or to other processes.  The process runs one
    BLAS thread, so its CPU time is the time it computed.  CPU time still
    moves with how busy the host's other guests keep the shared cores, which
    is why no operation time is gated (see README.md).
    """
    return time.process_time()


def dense_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Plain float32 ``softmax(q kᵀ / sqrt(d)) v``: the baseline a user would keep."""
    scores = np.matmul(q, np.swapaxes(k, -1, -2))
    scores *= np.float32(1.0 / math.sqrt(q.shape[-1]))
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return np.matmul(scores, v)


def oracle(q, k, v, mask) -> np.ndarray:
    """Float64 masked dense attention, one ``(seq, d)`` slice at a time."""
    lead = q.shape[:-2]
    out = np.zeros(lead + (q.shape[-2], v.shape[-1]), dtype=np.float64)
    if mask is not None:
        mask = np.broadcast_to(mask, lead + (q.shape[-2], k.shape[-2]))
    for idx in np.ndindex(*lead):
        s = q[idx].astype(np.float64) @ k[idx].astype(np.float64).T
        s /= math.sqrt(q.shape[-1])
        if mask is not None:
            s = np.where(mask[idx], s, -np.inf)
        live = np.isfinite(s).any(axis=-1)
        s[~live] = 0.0
        s -= s.max(axis=-1, keepdims=True)
        p = np.exp(s)
        p /= p.sum(axis=-1, keepdims=True)
        p[~live] = 0.0
        out[idx] = p @ v[idx].astype(np.float64)
    return out


def matches_oracle(out, q, k, v, mask) -> bool:
    out = np.asarray(out)
    return bool(
        np.isfinite(out).all() and np.abs(out - oracle(q, k, v, mask)).max() <= ATOL
    )


def blas_info() -> dict:
    """BLAS vendor, version and live thread count, read from the loaded library."""
    info = {"vendor": "unknown", "threads": None, "config": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({
            line.split()[-1] for line in fh
            if "openblas" in line.lower() and line.split()[-1].startswith("/")
        })
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None:
                    get.restype = ctypes.c_int
                    info["threads"] = int(get())
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        info["config"] = config().decode()
                    return info
    return info


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


# =================================================================== infer_long
class InferLong:
    """Closed loop, one stream: DFSS vs Longformer vs dense at B1·H2·L4096·D64."""

    SHAPE = (1, 2, 4096, 64)
    LIMIT_MS = 4000.0
    ARMS = ("dfss", "band", "dense")

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng(seed)
        self.q, self.k, self.v = (
            rng.standard_normal(self.SHAPE, dtype=np.float32) for _ in range(3)
        )
        self.dfss = AttentionEngine("dfss_2:4")
        self.band = AttentionEngine("longformer")
        self.call = {
            "dfss": lambda: self.dfss(self.q, self.k, self.v),
            "band": lambda: self.band(self.q, self.k, self.v),
            "dense": lambda: dense_attention(self.q, self.k, self.v),
        }
        # warm-up; these first outputs are what the oracle checks and every
        # later output must equal bit for bit
        self.first = {arm: self.call[arm]() for arm in self.ARMS}

    def _loop(self, seconds, spans, tally=None):
        """Interleaved calls of every arm; per arm a list of
        (wall seconds, CPU seconds, output equal to first)."""
        ops = {arm: [] for arm in self.ARMS}
        region = {"dfss": "engine.call", "band": "engine.band_call", "dense": "ref.dense"}
        end = time.perf_counter() + seconds
        it = 0
        while it < 3 or time.perf_counter() < end:
            # alternate the order so no arm always runs after the same one
            for arm in self.ARMS if it % 2 == 0 else self.ARMS[::-1]:
                counted = tally is not None and arm != "dense"
                with spans.region(region[arm]):
                    t0, c0 = time.perf_counter(), cpu()
                    ok, out = (
                        tally.attempt(self.call[arm]) if counted else (True, self.call[arm]())
                    )
                    dc, dt = cpu() - c0, time.perf_counter() - t0
                if ok:
                    ops[arm].append((dt, dc, bool(np.array_equal(out, self.first[arm]))))
            if spans is not NO_SPANS:
                with spans.region("engine.band_mask"):
                    self.band.attention_mask(self.q, self.k)
            it += 1
        return ops

    def measure(self, seconds: float) -> dict:
        tally = Tally()
        ops = self._loop(seconds, NO_SPANS, tally)
        q, k, v = self.q, self.k, self.v
        good = {
            "dfss": matches_oracle(self.first["dfss"], q, k, v, self.dfss.attention_mask(q, k)),
            "band": matches_oracle(self.first["band"], q, k, v, self.band.attention_mask(q, k)),
            "dense": matches_oracle(self.first["dense"], q, k, v, None),
        }
        within = 0
        for arm in ("dfss", "band"):
            for dt, _, equal in ops[arm]:
                if not (good[arm] and equal):
                    tally.wrong()
                elif dt * 1e3 <= self.LIMIT_MS:
                    within += 1
        if not good["dense"] or not all(equal for *_, equal in ops["dense"]):
            tally.correct = False
        self.memory = MemoryProbe()
        gc.collect()
        with self.memory.tracing(), self.memory.installed(core_targets()):
            for arm in self.ARMS:
                with self.memory.region(arm):
                    self.call[arm]()
        self.times = times = {arm: [dt for dt, _, _ in ops[arm]] for arm in self.ARMS}
        self.cpus = cpus = {arm: [dc for _, dc, _ in ops[arm]] for arm in self.ARMS}
        self.cpu_ms = ms(measure.median(cpus["dfss"]))
        return {
            "tally": tally,
            "samples_ms": {
                **{arm: [ms(t) for t in times[arm]] for arm in self.ARMS},
                **{f"{arm}_cpu": [ms(t) for t in cpus[arm]] for arm in self.ARMS},
            },
            "metrics": {
                "ok_pct": tally.ok_pct(),
                "slo_pct": 100.0 * within / tally.attempted,
                "peak_mib": self.memory.mib("dfss"),
                "speedup_vs_dense": measure.pair_ratio_median(cpus["dense"], cpus["dfss"]),
            },
        }

    def layers(self, seconds: float) -> dict:
        rec = self.recorder = SpanRecorder()
        before = plan_cache_stats()
        with rec.installed(core_targets()):
            self._loop(seconds, rec)
        after = plan_cache_stats()
        calls = rec.named("engine.call")
        stage = {
            name: [ms(t) for t in rec.per_root("engine.call", name)]
            for _, name in CORE_STAGES
        }
        overhead = [
            ms(c.duration) - sum(stage[name][i] for _, name in CORE_STAGES[:3])
            for i, c in enumerate(calls)
        ]
        call_ms = measure.median([ms(c.duration) for c in calls])
        b, h, n, d = self.SHAPE
        kept = b * h * n * (n // 2)  # 2:4 keeps half of every row
        flop = 2 * b * h * n * n * d + 5 * kept + 2 * kept * d
        # fp32 q, k, v read and out written, plus the compressed values written
        # by the SDDMM, read and written by the softmax, read by the contraction
        # (4 bytes each) and their 2-bit column metadata (written once, read once)
        moved = 4 * 4 * b * h * n * d + 4 * 4 * kept + 2 * kept / 4
        times, cpus = self.times, self.cpus
        wall_ms = ms(measure.median(times["dfss"]))
        return {
            "wall_ms_p50": wall_ms,
            "cpu_ms_p50": self.cpu_ms,
            **{f"{name}_ms": measure.median(stage[name]) for _, name in CORE_STAGES},
            **{f"{name}_peak_mib": self.memory.mib(name) for _, name in CORE_STAGES},
            "core.plan_cache_hit_pct": plan_cache_hit_pct(before, after),
            "core.computed_gflop": flop / 1e9,
            "core.computed_bytes_mib": moved / MIB,
            "engine.call_ms": call_ms,
            "engine.overhead_ms": measure.median(overhead),
            "engine.band_call_ms": measure.median(
                [ms(s.duration) for s in rec.named("engine.band_call")]
            ),
            "engine.band_mask_ms": measure.median(
                [ms(s.duration) for s in rec.named("engine.band_mask")]
            ),
            "engine.band_speedup_vs_dense": measure.pair_ratio_median(
                cpus["dense"], cpus["band"]
            ),
            "engine.band_peak_mib": self.memory.mib("band"),
            "ref.dense_ms": ms(measure.median(times["dense"])),
            "ref.dense_peak_mib": self.memory.mib("dense"),
            "trace_overhead_pct": 100.0 * (call_ms / wall_ms - 1.0),
        }


# ================================================================== train_short
class TrainShort:
    """Closed loop of fine-tuning steps, DFSS model interleaved with a dense one."""

    BATCH, SEQ, VOCAB, CLASSES = 4, 512, 1000, 2
    MODEL = dict(model_dim=256, num_heads=4, num_layers=2, ffn_dim=512)
    LIMIT_MS = 4000.0
    ARMS = ("dfss", "dense")

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng(seed)
        self.tokens = rng.integers(0, self.VOCAB, (self.BATCH, self.SEQ))
        self.labels = rng.integers(0, self.CLASSES, self.BATCH)
        self.models = {}
        for arm, mechanism in (("dfss", "dfss_2:4"), ("dense", "full")):
            encoder = TransformerEncoder(
                self.VOCAB, self.SEQ, mechanism=mechanism, seed=seed, **self.MODEL
            )
            model = SequenceClassifier(encoder, self.CLASSES, seed=seed + 1)
            self.models[arm] = (model, Adam(model.parameters(), lr=1e-4))
        # The autograd graph holds reference cycles.  Left to the automatic
        # collector they pile up over several steps and grow the heap, so
        # steps would fault fresh pages in at random; each step instead ends
        # with one full collection, timed as part of the step.
        gc.disable()
        for arm in self.ARMS:
            self.step(arm, NO_SPANS)

    def step(self, arm: str, spans) -> float:
        model, opt = self.models[arm]
        with spans.region("nn.zero_grad"):
            opt.zero_grad()
        with spans.region("nn.fwd"):
            loss = model.loss(self.tokens, self.labels)
        with spans.region("nn.bwd"):
            loss.backward()
        with spans.region("nn.optim"):
            opt.step()
        value = float(loss.data)
        del loss
        with spans.region("nn.gc"):
            gc.collect()
        return value

    def _loop(self, seconds, spans, tally=None):
        """Interleaved steps of both arms; per arm a list of
        (wall seconds, CPU seconds, loss finite)."""
        ops = {arm: [] for arm in self.ARMS}
        region = {"dfss": "nn.step", "dense": "ref.dense_train_step"}
        end = time.perf_counter() + seconds
        it = 0
        while it < 3 or time.perf_counter() < end:
            for arm in self.ARMS if it % 2 == 0 else self.ARMS[::-1]:
                with spans.region(region[arm]):
                    t0, c0 = time.perf_counter(), cpu()
                    ok, loss = (
                        tally.attempt(self.step, arm, spans) if tally is not None
                        else (True, self.step(arm, spans))
                    )
                    dc, dt = cpu() - c0, time.perf_counter() - t0
                if ok:
                    ops[arm].append((dt, dc, math.isfinite(loss)))
            it += 1
        return ops

    def measure(self, seconds: float) -> dict:
        tally = Tally()
        ops = self._loop(seconds, NO_SPANS, tally)
        within = 0
        for arm in self.ARMS:
            for dt, _, finite in ops[arm]:
                if not finite:
                    tally.wrong()
                elif dt * 1e3 <= self.LIMIT_MS:
                    within += 1
        self.memory = MemoryProbe()
        with self.memory.tracing(), self.memory.installed(core_targets()):
            for arm in self.ARMS:
                with self.memory.region(arm):
                    self.step(arm, self.memory if arm == "dfss" else NO_SPANS)
        self.times = times = {arm: [dt for dt, _, _ in ops[arm]] for arm in self.ARMS}
        self.cpus = cpus = {arm: [dc for _, dc, _ in ops[arm]] for arm in self.ARMS}
        self.cpu_ms = ms(measure.median(cpus["dfss"]))
        return {
            "tally": tally,
            "samples_ms": {
                **{arm: [ms(t) for t in times[arm]] for arm in self.ARMS},
                **{f"{arm}_cpu": [ms(t) for t in cpus[arm]] for arm in self.ARMS},
            },
            "metrics": {
                "ok_pct": tally.ok_pct(),
                "slo_pct": 100.0 * within / tally.attempted,
                "peak_mib": self.memory.mib("dfss"),
                "speedup_vs_dense": measure.pair_ratio_median(cpus["dense"], cpus["dfss"]),
            },
        }

    def layers(self, seconds: float) -> dict:
        rec = self.recorder = SpanRecorder()
        before = plan_cache_stats()
        targets = core_targets() + [
            (attention_layer, "dfss_sparse_attention", "nn.attn_fwd")
        ]
        with rec.installed(targets):
            self._loop(seconds, rec)
        after = plan_cache_stats()
        steps = [ms(s.duration) for s in rec.named("nn.step")]

        def per_step(name):
            return [ms(t) for t in rec.per_root("nn.step", name)]

        attn = [f + b for f, b in zip(per_step("nn.attn_fwd"), per_step("core.bwd"))]
        b, h, n = self.BATCH, self.MODEL["num_heads"], self.SEQ
        d = self.MODEL["model_dim"] // h
        layers = self.MODEL["num_layers"]
        kept = b * h * n * (n // 2)
        # forward: dense QKᵀ + prune, softmax, sparse PV; backward: dV = Pᵀ dO,
        # dP at the kept entries, softmax Jacobian, dQ = dS K, dK = dSᵀ Q
        flop = layers * (2 * b * h * n * n * d + 5 * kept + 2 * kept * d
                         + 4 * 2 * kept * d + 4 * kept)
        moved = layers * (4 * 4 * b * h * n * d + 4 * 4 * kept + 2 * kept / 4
                          + 4 * 8 * b * h * n * d + 4 * 3 * kept + kept / 4)
        step_ms = measure.median(steps)
        wall_ms = ms(measure.median(self.times["dfss"]))
        return {
            "wall_ms_p50": wall_ms,
            "cpu_ms_p50": self.cpu_ms,
            **{f"{name}_ms": measure.median(per_step(name)) for _, name in CORE_STAGES},
            **{f"{name}_peak_mib": self.memory.mib(name) for _, name in CORE_STAGES},
            "core.plan_cache_hit_pct": plan_cache_hit_pct(before, after),
            "core.computed_gflop": flop / 1e9,
            "core.computed_bytes_mib": moved / MIB,
            "nn.fwd_ms": measure.median(per_step("nn.fwd")),
            "nn.bwd_ms": measure.median(per_step("nn.bwd")),
            "nn.optim_ms": measure.median(per_step("nn.optim")),
            "nn.gc_ms": measure.median(per_step("nn.gc")),
            "nn.attn_fwd_ms": measure.median(per_step("nn.attn_fwd")),
            "nn.attn_bwd_ms": measure.median(per_step("core.bwd")),
            "nn.attn_share_pct": measure.median(
                [100.0 * a / s for a, s in zip(attn, steps)]
            ),
            "nn.fwd_peak_mib": self.memory.mib("nn.fwd"),
            "nn.bwd_peak_mib": self.memory.mib("nn.bwd"),
            "ref.dense_train_step_ms": ms(measure.median(self.times["dense"])),
            "ref.dense_train_peak_mib": self.memory.mib("dense"),
            "trace_overhead_pct": 100.0 * (step_ms / wall_ms - 1.0),
        }


# ================================================================== serve_mixed
class ServeMixed:
    """Open loop of mixed-mechanism, mixed-length requests at a fixed rate."""

    MECHANISMS = ("local", "longformer", "bigbird", "dfss_2:4")
    #: Lengths up to 384; 130, 255 and 318 are not multiples of 4.
    LENGTHS = (64, 96, 130, 192, 255, 256, 318, 384)
    HEADS, HEAD_DIM = 2, 64
    #: Every block holds each (mechanism, length) pair this often, shuffled,
    #: so every run serves the same mix.
    PER_PAIR = 2
    #: Seed of the traffic: request order and Poisson arrival times.  It is
    #: fixed, so runs differ only in tensor values (from ``--seed``) and the
    #: machine; with the traffic drawn per seed too, the open-loop median
    #: latency moved by up to 25% between seeds.
    TRAFFIC_SEED = 0
    #: Open-loop Poisson rate as a share of the closed-loop capacity measured
    #: in the same run.  Tying the rate to capacity keeps the server equally
    #: busy on a slow or a fast machine; at a fixed 110 requests/s the median
    #: latency ranged from 18 to 42 ms over ten runs, as the machine's speed
    #: moved the server up and down the steep part of its queueing curve.
    #: Open-loop batches are smaller than closed-loop ones, so the server is
    #: busier than this share suggests: about two-thirds busy.
    LOAD = 0.4
    #: Requests per second of ``--seconds`` used to size the request set (40%
    #: of the ~200 requests/s capacity measured when this was written).
    NOMINAL_RPS = 80.0
    #: Latency limit behind ``slo_pct``.
    LIMIT_MS = 250.0
    #: Enough blocks that the open loop yields more than 1000 completed requests.
    MIN_BLOCKS = 18
    #: Blocks drained back to back for capacity and the dense comparison:
    #: each is also served by a second server as ``full`` attention.
    CLOSED_BLOCKS = 16
    #: Blocks whose requests are then sent one at a time to the idle server:
    #: their median latency is ``wall_ms_p50`` and the median CPU time of
    #: serving one is ``cpu_ms_p50``.
    SOLO_BLOCKS = 4

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng(seed)
        traffic = np.random.default_rng(self.TRAFFIC_SEED)
        pairs = [(m, n) for m in self.MECHANISMS for n in self.LENGTHS] * self.PER_PAIR
        blocks = max(
            round(self.NOMINAL_RPS * seconds / len(pairs)), self.MIN_BLOCKS
        )
        # request tensors are views into one seeded pool, so thousands of
        # requests cost a few MiB
        pool = rng.standard_normal(1 << 21, dtype=np.float32)
        self.requests = []
        self.slot = {}  # request id -> index of its (mechanism, length) in pairs
        for _ in range(blocks):
            for j in traffic.permutation(len(pairs)):
                self.slot[str(len(self.requests))] = j
                mechanism, n = pairs[j]
                size = self.HEADS * n * self.HEAD_DIM
                q, k, v = (
                    pool[o:o + size].reshape(self.HEADS, n, self.HEAD_DIM)
                    for o in rng.integers(0, pool.size - size, 3)
                )
                self.requests.append(ServeRequest(
                    q=q, k=k, v=v, mechanism=mechanism,
                    request_id=str(len(self.requests)),
                ))
        self.block = len(pairs)
        # the dense arm: the closed-loop requests as full attention, served
        # by the same server code, so both arms share its Python-heavy
        # batching and a slower or busier machine scales them alike
        self.dense_twin = {
            r.request_id: ServeRequest(
                q=r.q, k=r.k, v=r.v, mechanism="full", request_id=r.request_id
            )
            for r in self.requests[:self.CLOSED_BLOCKS * self.block]
        }
        # closed-loop passes drain each block in one mixed order that does
        # not depend on the seed, so their batches hold the same work every run
        self.fixed_rank = np.random.default_rng(0).permutation(self.block)
        # arrival times at a rate of one request per second; measure() scales
        # them to the rate it derives from capacity
        self.unit_offsets = np.cumsum(traffic.exponential(1.0, len(self.requests)))
        self.engines = {m: AttentionEngine(m) for m in self.MECHANISMS}
        # warm-up on a throw-away server, so the measured one starts with an
        # empty structure cache like a freshly started server
        warm = AttentionServer()
        for mechanism in self.MECHANISMS + ("full",):
            for n in self.LENGTHS:
                x = pool[: self.HEADS * n * self.HEAD_DIM].reshape(self.HEADS, n, -1)
                try:
                    warm.enqueue(ServeRequest(q=x, mechanism=mechanism))
                except ValueError:
                    pass  # the failure the timed run counts
        warm.drain()
        self._masks = {}

    @staticmethod
    def _rid(request) -> str:
        return request.request_id

    @staticmethod
    def _serve_all(server, requests) -> dict:
        """Enqueue every request, drain; request id -> output."""
        for r in requests:
            server.enqueue(r)
        return {res.request_id: res.output for res in server.drain()}

    def _open_loop(self, count: int):
        server = AttentionServer()
        run = measure.run_open_loop(
            self.requests[:count], self.offsets[:count], server, self._rid
        )
        return server, run

    def _solo(self, server, first, tally):
        """Send requests one at a time; each waits out the batching deadline alone.

        Returns, per request served, its wall latency and the CPU time of the
        ``enqueue`` and ``step`` calls that served it (the wait excluded).
        """
        latencies, cpus = [], []
        for b in range(self.SOLO_BLOCKS):
            for r in self._fixed_order(b):
                t0, c0 = time.perf_counter(), cpu()
                ok, _ = tally.attempt(server.enqueue, r)
                used = cpu() - c0
                results = []
                while ok and not results:
                    # spin rather than sleep: waking an idle virtual CPU took
                    # a varying share of a millisecond, which showed in the result
                    deadline = server.next_deadline()
                    while time.monotonic() < deadline:
                        pass
                    c0 = cpu()
                    results = server.step()
                    used += cpu() - c0
                if ok:
                    latencies.append(time.perf_counter() - t0)
                    cpus.append(used)
                    if not np.array_equal(results[0].output, first.get(r.request_id)):
                        tally.wrong()
        return latencies, cpus

    def _fixed_order(self, b: int):
        block = self.requests[b * self.block:(b + 1) * self.block]
        return sorted(block, key=lambda r: self.fixed_rank[self.slot[r.request_id]])

    def _mask(self, request):
        key = (request.mechanism, request.seq_len)
        if request.mechanism == "dfss_2:4":
            return self.engines[request.mechanism].attention_mask(request.q, request.k)
        if key not in self._masks:
            self._masks[key] = self.engines[request.mechanism].attention_mask(
                request.q, request.k
            )
        return self._masks[key]

    def measure(self, seconds: float) -> dict:
        tally = Tally()
        # closed loop over the first blocks: capacity, the dense comparison,
        # and a second output for each of their requests
        server, dense_server = AttentionServer(), AttentionServer()
        wall, served, dense, closed = [], [], [], {}
        for b in range(self.CLOSED_BLOCKS):
            block = self._fixed_order(b)
            twins = [self.dense_twin[r.request_id] for r in block]
            # dense before and after the sparse pass: their mean cancels a
            # steady drift of the machine's speed across the pair
            c0 = cpu()
            first = self._serve_all(dense_server, twins)
            c1, t1 = cpu(), time.perf_counter()
            for r in block:
                tally.attempt(server.enqueue, r)
            results = server.drain()
            c2, t2 = cpu(), time.perf_counter()
            again = self._serve_all(dense_server, twins)
            c3 = cpu()
            wall.append(t2 - t1)
            served.append(c2 - c1)
            dense.append((c1 - c0 + c3 - c2) / 2)
            closed.update((res.request_id, res.output) for res in results)
            # the dense arm is the comparison, not the measured program: a
            # wrong output of it clears `correct` but counts no failed request
            repeatable = len(first) == len(twins) and all(
                np.array_equal(out, again.get(rid)) for rid, out in first.items()
            )
            if not repeatable or (b == 0 and not all(
                matches_oracle(first[r.request_id], r.q, r.k, r.v, None) for r in block
            )):
                tally.correct = False
        self.capacity_rps = len(closed) / sum(wall)

        solo, solo_cpu = self._solo(server, closed, tally)
        self.solo_ms = ms(measure.median(solo))
        self.cpu_ms = ms(measure.median(solo_cpu))
        self.server, self.closed = server, closed
        self.rate_rps = self.LOAD * self.CLOSED_BLOCKS * self.block / sum(wall)
        self.offsets = (self.unit_offsets / self.rate_rps).tolist()

        open_server, run = self._open_loop(len(self.requests))
        self.run, self.stats = run, open_server.stats()
        tally.attempted += len(self.requests)
        for kind in run.failures.values():
            tally.fail(kind)
        by_id = {r.request_id: r for r in self.requests}
        good = {
            rid: matches_oracle(res.output, r.q, r.k, r.v, self._mask(r))
            for rid, res in run.results.items()
            for r in (by_id[rid],)
        }
        for ok in good.values():
            if not ok:
                tally.wrong()
        # every closed-loop output must equal the open-loop one bit for bit
        for rid, output in closed.items():
            if not (good.get(rid) and np.array_equal(output, run.results[rid].output)):
                tally.wrong()
        latencies = [ms(run.latency[rid]) for rid, ok in good.items() if ok]
        within = sum(t <= self.LIMIT_MS for t in latencies)
        self.latencies = latencies

        self.memory = MemoryProbe()
        gc.collect()
        with self.memory.tracing(), self.memory.region("drain"):
            for r in self._fixed_order(0):
                try:
                    server.enqueue(r)
                except ValueError:
                    pass
            server.drain()
        return {
            "tally": tally,
            "samples_ms": {
                "solo": [ms(t) for t in solo],
                "solo_cpu": [ms(t) for t in solo_cpu],
                "latency": latencies,
                "server_block": [ms(t) for t in wall],
                "server_block_cpu": [ms(t) for t in served],
                "dense_block_cpu": [ms(t) for t in dense],
            },
            "metrics": {
                "ok_pct": tally.ok_pct(),
                "slo_pct": 100.0 * within / len(self.requests),
                "peak_mib": self.memory.mib("drain"),
                "speedup_vs_dense": measure.pair_ratio_median(dense, served),
            },
        }

    def layers(self, seconds: float) -> dict:
        run, stats = self.run, self.stats
        rec = self.recorder = SpanRecorder(clock=time.monotonic)
        targets = [
            (AttentionServer, "enqueue", "serve.enqueue",
             lambda server, request: {"rid": request.request_id}),
            (AttentionServer, "step", "serve.step", None,
             lambda results: {"rids": [r.request_id for r in results]}),
        ]
        half = max(len(self.requests) // 2, self.block)
        with rec.installed(targets):
            self._open_loop(half)
            with rec.region("serve.solo"):
                solo, _ = self._solo(self.server, self.closed, Tally())
        # spans of the open loop; those of the one-at-a-time pass have a parent
        enqueues = [s for s in rec.named("serve.enqueue") if s.parent is None]
        enqueued = {s.attrs["rid"]: s.end for s in enqueues}
        steps = [
            s for s in rec.named("serve.step") if s.parent is None and s.attrs.get("rids")
        ]
        waits = [ms(s.start - enqueued[rid]) for s in steps for rid in s.attrs["rids"]]
        completed = sorted(ms(t) for t in run.latency.values())
        cache = stats["structure_cache"]
        batches = [r.batch_requests for r in run.results.values()]
        return {
            "wall_ms_p50": self.solo_ms,
            "cpu_ms_p50": self.cpu_ms,
            "serve.enqueue_ms_p50": measure.median([ms(s.duration) for s in enqueues]),
            "serve.step_ms_p50": measure.median([ms(s.duration) for s in steps]),
            "serve.queue_wait_ms_p50": measure.median(waits),
            "serve.batch_size_mean": float(np.mean(batches)),
            "serve.cache_hit_pct": 100.0 * cache["hits"] / (cache["hits"] + cache["misses"]),
            "serve.busy_pct": 100.0 * run.busy_s / run.wall_s,
            "serve.gen_late_ms_max": ms(max(run.lateness)),
            "serve.failed": float(len(run.failures)),
            "serve.latency_ms_p50": measure.median(self.latencies),
            "serve.latency_ms_p99": measure.percentile(completed, 99),
            "serve.capacity_rps": self.capacity_rps,
            "serve.offered_rps": self.rate_rps,
            "trace_overhead_pct": 100.0 * (ms(measure.median(solo)) / self.solo_ms - 1.0),
        }


WORKLOADS = {"infer_long": InferLong, "train_short": TrainShort, "serve_mixed": ServeMixed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    setup = {"setup_s": cpu(), "setup_wall_s": time.monotonic() - args.spawned_at}
    # Move everything set-up made (modules, inputs, models) out of the
    # collector's sight, as long-running servers do: otherwise every full
    # collection walks the benchmark's own inputs and results, and those
    # pauses moved the open-loop median latency by up to 45% between runs.
    gc.collect()
    gc.freeze()
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    measured = workload.measure(args.seconds)
    metrics = dict(measured["metrics"])
    if args.trace:
        metrics = workload.layers(args.seconds / 2)
        if args.trace_out:
            workload.recorder.dump(args.trace_out, {"workload": args.workload, "seed": args.seed})
    tally = measured["tally"]
    print(json.dumps({
        **setup,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "correct": tally.correct,
        "metrics": metrics,
        "samples_ms": measured["samples_ms"],
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
