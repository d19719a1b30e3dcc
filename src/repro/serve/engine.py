"""`repro.serve` — the request-level serving engine over the mechanism registry.

The first API in this repo designed around *requests* rather than tensors: a
:class:`ServeRequest` names its mechanism and carries its own Q/K/V (any
leading dimensions, any sequence length), and the :class:`AttentionServer`
decides how to execute it.

* Requests of ``batchable`` mechanisms are coalesced — across *different*
  mechanisms and *different* sequence lengths — into one batch
  (:mod:`repro.serve.batcher`) whose compatible requests are stacked into
  one compiled :class:`~repro.core.plan.AttentionPlan` call each, on the
  server's ``backend``.  Every fast kernel is independent per leading slice,
  so a request's output is bitwise-identical whether it was served alone or
  inside any batch.
* DFSS requests run the N:M plan directly and pay no per-request structure
  cost; static-mask structures are cached across requests
  (:class:`~repro.serve.cache.StructureCache`).
* Queues drain under a deadline-aware scheduler: a compatibility queue is
  flushed when it reaches ``max_batch_size`` or when its oldest request has
  waited ``max_wait_s`` (per-request override via ``ServeRequest.max_wait_s``).
* Non-batchable mechanisms fall back to per-request execution through their
  :class:`~repro.engine.AttentionEngine` — every registered mechanism is
  servable, batched or not.

Three entry points::

    results = repro.serve(requests)                  # offline: enqueue + drain

    server = AttentionServer(max_batch_size=16, max_wait_s=2e-3)
    server.enqueue(req); server.step()               # sync, clock-injectable

    async with AttentionServer() as server:          # async, deadline-driven
        result = await server.submit(req)
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Hashable, List, Mapping, Optional, Sequence

import numpy as np

from repro.engine import AttentionEngine
from repro.profile.tracer import current_tracer
from repro.serve.batcher import PreparedRequest, prepare_request, run_ragged_batch
from repro.serve.cache import StructureCache

__all__ = ["ServeRequest", "ServeResult", "AttentionServer", "serve"]


@dataclass
class ServeRequest:
    """One attention request: tensors plus the mechanism to run them through.

    ``k`` and ``v`` default to ``q`` (self-attention on a shared projection);
    ``mask`` bypasses the mechanism registry and serves an explicit boolean
    attention mask through a row-block plan.  ``max_wait_s`` overrides the
    server's batching deadline for this request; ``arrival_offset_s`` is the
    synthetic-workload arrival time used when replaying a trace.
    """

    q: np.ndarray
    k: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    mechanism: str = "dfss_2:4"
    options: Mapping[str, object] = field(default_factory=dict)
    mask: Optional[np.ndarray] = None
    request_id: Optional[str] = None
    max_wait_s: Optional[float] = None
    arrival_offset_s: float = 0.0

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=np.float32)
        self.k = self.q if self.k is None else np.asarray(self.k, dtype=np.float32)
        self.v = self.k if self.v is None else np.asarray(self.v, dtype=np.float32)
        if self.q.ndim < 2:
            raise ValueError(f"q must be at least 2-D (seq, d); got shape {self.q.shape}")
        if self.q.shape[:-2] != self.k.shape[:-2] or self.q.shape[:-2] != self.v.shape[:-2]:
            raise ValueError("q, k, v must share their leading dimensions")
        if self.q.shape[-1] != self.k.shape[-1]:
            raise ValueError("q and k must share the head dimension")
        if self.k.shape[-2] != self.v.shape[-2]:
            raise ValueError("k and v must share the sequence length")

    @property
    def seq_len(self) -> int:
        return self.q.shape[-2]

    @property
    def head_dim(self) -> int:
        return self.q.shape[-1]


@dataclass
class ServeResult:
    """Execution record of one request."""

    request_id: Optional[str]
    output: np.ndarray
    mechanism: str
    seq_len: int
    #: whether the request ran through the coalesced plan path (True even
    #: for a batch of one) or the per-request engine fallback.
    batched: bool
    #: number of requests that shared this request's batch (>= 1).
    batch_requests: int
    #: structure-cache outcome: True/False for static-mask mechanisms,
    #: None when no cache lookup applied.
    cache_hit: Optional[bool]
    latency_s: Optional[float] = None


@dataclass
class _Pending:
    prepared: PreparedRequest
    arrival: float
    deadline: float
    seq: int
    future: Optional["asyncio.Future"] = None
    result: Optional[ServeResult] = None


class AttentionServer:
    """Deadline-aware batching server over the mechanism registry.

    The scheduler core is synchronous and clock-injectable (``clock`` swaps
    ``time.monotonic`` for a fake in tests); the asyncio surface
    (:meth:`submit`, ``async with``) wraps it with a wake-on-enqueue drain
    loop.  ``max_batch_size`` bounds how many requests one ragged batch may
    coalesce; ``max_wait_s`` bounds how long a request may sit in its queue
    waiting for batchmates.
    """

    def __init__(
        self,
        max_batch_size: int = 8,
        max_wait_s: float = 2e-3,
        backend: Optional[str] = None,
        structure_cache: Optional[StructureCache] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size!r}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s!r}")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.backend = backend
        self.cache = structure_cache if structure_cache is not None else StructureCache()
        self._clock = clock
        self._queues: Dict[Hashable, Deque[_Pending]] = {}
        self._engines: Dict[Hashable, AttentionEngine] = {}
        self._counter = itertools.count()
        self._wake: Optional[asyncio.Event] = None
        self._run_task: Optional["asyncio.Task"] = None
        self.served_requests = 0
        self.served_batches = 0
        self.coalesced_requests = 0

    # ------------------------------------------------------------- sync core
    def _engine(self, mechanism: str, options: Mapping[str, object]) -> AttentionEngine:
        key = (mechanism, tuple(sorted((k, repr(v)) for k, v in dict(options).items())))
        engine = self._engines.get(key)
        if engine is None:
            engine = AttentionEngine(
                mechanism, backend=self.backend, _options=dict(options)
            )
            self._engines[key] = engine
        return engine

    @staticmethod
    def _compat_key(prepared: PreparedRequest, seq: int) -> Hashable:
        if not prepared.batchable:
            return ("solo", seq)
        request = prepared.request
        return ("ragged", request.head_dim, request.v.shape[-1])

    def enqueue(self, request: ServeRequest) -> _Pending:
        """Prepare a request and queue it; returns its pending handle."""
        engine = (
            None
            if request.mask is not None
            else self._engine(request.mechanism, request.options)
        )
        prepared = prepare_request(request, engine, self.cache)
        now = self._clock()
        wait = self.max_wait_s if request.max_wait_s is None else float(request.max_wait_s)
        seq = next(self._counter)
        pending = _Pending(prepared, arrival=now, deadline=now + wait, seq=seq)
        self._queues.setdefault(self._compat_key(prepared, seq), deque()).append(pending)
        if self._wake is not None:
            self._wake.set()
        return pending

    def step(self, now: Optional[float] = None, flush: bool = False) -> List[ServeResult]:
        """Execute every queue that is due at ``now``; returns fresh results.

        A queue is due when it holds ``max_batch_size`` requests, when its
        earliest deadline has expired, when it cannot coalesce at all
        (non-batchable requests never wait), or when ``flush`` forces it.
        """
        if now is None:
            now = self._clock()
        results: List[ServeResult] = []
        for key, queue in list(self._queues.items()):
            solo = key[0] == "solo"
            while queue:
                due = (
                    flush
                    or solo
                    or len(queue) >= self.max_batch_size
                    or min(p.deadline for p in queue) <= now
                )
                if not due:
                    break
                batch = [
                    queue.popleft()
                    for _ in range(min(self.max_batch_size, len(queue)))
                ]
                results.extend(self._execute(batch))
            if not queue:
                self._queues.pop(key, None)
        return results

    def drain(self) -> List[ServeResult]:
        """Flush every queue regardless of deadlines (offline execution)."""
        results: List[ServeResult] = []
        while self._queues:
            results.extend(self.step(flush=True))
        return results

    def next_deadline(self) -> Optional[float]:
        deadlines = [p.deadline for q in self._queues.values() for p in q]
        return min(deadlines) if deadlines else None

    @property
    def pending_count(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def _execute(self, batch: Sequence[_Pending]) -> List[ServeResult]:
        tracer = current_tracer()
        if tracer is not None:
            mechanisms = sorted({p.prepared.mechanism for p in batch})
            with tracer.span(
                "serve_batch",
                "serve",
                requests=len(batch),
                batchable=bool(batch and batch[0].prepared.batchable),
                mechanisms=",".join(mechanisms),
            ):
                return self._execute_inner(batch)
        return self._execute_inner(batch)

    def _execute_inner(self, batch: Sequence[_Pending]) -> List[ServeResult]:
        if batch and batch[0].prepared.batchable:
            outputs = run_ragged_batch([p.prepared for p in batch], backend=self.backend)
            batched = True
        else:
            outputs = [
                p.prepared.engine(
                    p.prepared.request.q, p.prepared.request.k, p.prepared.request.v
                )
                for p in batch
            ]
            batched = False
        done = self._clock()
        results = []
        for pending, output in zip(batch, outputs):
            prepared = pending.prepared
            result = ServeResult(
                request_id=prepared.request.request_id,
                output=output,
                mechanism=prepared.mechanism,
                seq_len=prepared.request.seq_len,
                batched=batched,
                batch_requests=len(batch),
                cache_hit=prepared.cache_hit,
                latency_s=max(done - pending.arrival, 0.0),
            )
            pending.result = result
            if pending.future is not None and not pending.future.done():
                pending.future.set_result(result)
            results.append(result)
        self.served_requests += len(batch)
        self.served_batches += 1
        if len(batch) > 1:
            self.coalesced_requests += len(batch)
        return results

    def stats(self) -> Dict[str, object]:
        return {
            "served_requests": self.served_requests,
            "served_batches": self.served_batches,
            "coalesced_requests": self.coalesced_requests,
            "pending": self.pending_count,
            "structure_cache": self.cache.stats(),
        }

    # ---------------------------------------------------------- async surface
    async def submit(self, request: ServeRequest) -> ServeResult:
        """Enqueue a request and await its result (starts the drain loop)."""
        loop = asyncio.get_running_loop()
        pending = self.enqueue(request)
        if pending.result is not None:  # executed synchronously already
            return pending.result
        pending.future = loop.create_future()
        self._ensure_running(loop)
        self._wake.set()
        return await pending.future

    def _ensure_running(self, loop: "asyncio.AbstractEventLoop") -> None:
        if self._run_task is None or self._run_task.done():
            if self._wake is None:
                self._wake = asyncio.Event()
            self._run_task = loop.create_task(self._run())

    async def _run(self) -> None:
        while True:
            self.step()
            deadline = self.next_deadline()
            self._wake.clear()
            if self.pending_count and deadline is not None:
                delay = max(deadline - self._clock(), 0.0)
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=delay)
                except asyncio.TimeoutError:
                    pass
            else:
                await self._wake.wait()

    async def aclose(self) -> None:
        """Flush outstanding requests and stop the drain loop."""
        self.drain()
        if self._run_task is not None:
            self._run_task.cancel()
            try:
                await self._run_task
            except asyncio.CancelledError:
                pass
            self._run_task = None

    async def __aenter__(self) -> "AttentionServer":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AttentionServer(max_batch_size={self.max_batch_size}, "
            f"max_wait_s={self.max_wait_s}, pending={self.pending_count})"
        )


def serve(
    requests: Sequence[ServeRequest],
    *,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    backend: Optional[str] = None,
    server: Optional[AttentionServer] = None,
    structure_cache: Optional[StructureCache] = None,
) -> List[ServeResult]:
    """Serve a request list offline: enqueue everything, drain, return in order.

    The scheduler still groups compatible requests into ragged batches of at
    most ``max_batch_size``; ``max_batch_size=1`` is the sequential
    per-request baseline the ``serving_throughput`` benchmark compares
    against.  Results are returned in request order.
    """
    srv = server
    if srv is None:
        srv = AttentionServer(
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            backend=backend,
            structure_cache=structure_cache,
        )
    pendings = [srv.enqueue(request) for request in requests]
    srv.drain()
    return [p.result for p in pendings]
