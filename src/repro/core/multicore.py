"""Multicore tiled backend: fused attention jobs executed on a thread pool.

The ``multicore`` backend is the ``fast`` backend with one change, reached
through the ordinary :class:`~repro.core.plan.AttentionPlan`: the fused
kernels (``nm_attention``, ``row_block_attention`` and their backwards) are
row-tile jobs, and :func:`~repro.core.jobs.register_job_kernel` registers
each one's ``multicore`` kernel to run the job's tiles here, through
:func:`_run_job`, each worker borrowing one tile buffer.  Every other
kernel falls back to ``fast``.

This module registers no kernel.  It is imported on the first call of a
fused ``multicore`` kernel, never at package import.

**Bitwise parity with ``fast`` is a hard invariant, not a tolerance.**  A
job's tiles run the fast tile code on disjoint parts of its outputs, over
the same tile list ``fast`` walks in order, so neither the worker count nor
the order the tiles finish in can perturb a bit.

Workers are threads: the hot kernels are BLAS/ufunc dominated and release
the GIL.  ``REPRO_MULTICORE_WORKERS`` sets the worker count (default
``os.cpu_count()``); ``1`` degenerates to inline single-core execution,
bit-for-bit the ``fast`` backend with zero pool involvement.

Scheduling: every tile is submitted to the executor's shared queue, which
balances them across the workers.  While a trace session is active each
tile runs inside an ``mc_tile`` span on its worker's own tid lane (carrying
the kernel, tile index, the job's row and shape labels, and pool size),
with the submitting thread's phase and plan labels re-applied so
worker-lane events stay attributable.  The fused kernels' own spans
(``nm_attention``, ``row_block_attention``, …) are emitted by the registry's
tracing wrapper, as for every other backend.  The serving batcher's stacked
request groups are ordinary plan calls, so they tile like any other batch.
"""

from __future__ import annotations

import atexit
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.profile.tracer import current_tracer

__all__ = [
    "WORKERS_ENV_VAR",
    "WorkerPool",
    "get_pool",
    "resolve_worker_count",
]

#: Environment variable selecting the worker count (default: ``os.cpu_count()``).
WORKERS_ENV_VAR = "REPRO_MULTICORE_WORKERS"

def resolve_worker_count(workers: Optional[int] = None) -> int:
    """Worker count from argument, ``$REPRO_MULTICORE_WORKERS``, or cpu count."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"${WORKERS_ENV_VAR} must be an integer, got {env!r}"
                ) from None
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


class WorkerPool:
    """Persistent lazily-started worker pool with fork-safe lifecycle.

    * **lazy start** — no thread exists until the first parallel ``run``;
    * **fork safety** — the executor records its pid; a forked child sees a
      stale pid and discards the inherited (threadless) executor instead of
      trying to join threads that do not exist on its side of the fork;
    * **reconfiguration** — the worker count is re-resolved per ``run``; a
      changed ``$REPRO_MULTICORE_WORKERS`` rebuilds the pool;
    * **atexit shutdown** — registered at first start, so interpreter exit
      joins the workers exactly once.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self._requested = workers
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started_workers: Optional[int] = None
        self._pid: Optional[int] = None
        self._lock = threading.Lock()
        self._atexit_registered = False

    # ------------------------------------------------------------- properties
    @property
    def workers(self) -> int:
        return resolve_worker_count(self._requested)

    @property
    def started(self) -> bool:
        """Whether a live thread pool exists in *this* process."""
        return self._executor is not None and self._pid == os.getpid()

    # -------------------------------------------------------------- lifecycle
    def _register_atexit(self) -> None:
        if not self._atexit_registered:
            atexit.register(self.shutdown)
            self._atexit_registered = True

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            pid = os.getpid()
            workers = self.workers
            if self._executor is not None and self._pid != pid:
                # Forked child: the parent's worker threads do not exist on
                # this side of the fork — drop the stale handle, never join it.
                self._executor = None
            if self._executor is not None and self._started_workers != workers:
                self._executor.shutdown(wait=True)
                self._executor = None
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-mc"
                )
                self._started_workers = workers
                self._pid = pid
                self._register_atexit()
            return self._executor

    def shutdown(self) -> None:
        """Join and drop the executor (safe to call repeatedly)."""
        with self._lock:
            if self._executor is not None and self._pid == os.getpid():
                self._executor.shutdown(wait=True)
            self._executor = None
            self._started_workers = None

    # -------------------------------------------------------------- execution
    def run(
        self,
        thunks: Sequence[Callable[[], Any]],
        spans: Optional[Sequence[Optional[Dict[str, Any]]]] = None,
    ) -> List[Any]:
        """Execute ``thunks`` on the pool, returning results in input order.

        With one thunk or one worker the call degenerates to inline
        execution — no pool is started, no thread is touched.  ``spans``
        attaches per-tile ``mc_tile`` trace spans, and the submitting thread's tracer phase/labels are re-applied
        on the worker so its lane stays attributable.  Exceptions propagate
        to the caller.
        """
        thunks = list(thunks)
        if not thunks:
            return []
        if len(thunks) == 1 or self.workers <= 1:
            return [thunk() for thunk in thunks]
        tracer = current_tracer()
        if tracer is not None:
            context = tracer.capture_context()
            n_workers = self.workers
            metas = list(spans) if spans is not None else [None] * len(thunks)

            def _traced(thunk: Callable[[], Any], meta: Optional[Dict[str, Any]]):
                def call():
                    with tracer.apply_context(context):
                        args = dict(meta or {})
                        args["workers"] = n_workers
                        with tracer.span("mc_tile", "tile", **args):
                            return thunk()

                return call

            thunks = [_traced(t, m) for t, m in zip(thunks, metas)]
        executor = self._ensure()
        futures = [executor.submit(thunk) for thunk in thunks]
        return [future.result() for future in futures]


#: Process-wide pool shared by every multicore plan (and the serving path).
_POOL = WorkerPool()


def get_pool() -> WorkerPool:
    """The shared process-wide :class:`WorkerPool`."""
    return _POOL


# ---------------------------------------------------------- fused kernels
def _run_job(stage: str, job):
    """``job.run(tile, buf)`` for every tile on the shared pool, each worker
    borrowing one ``job.new_buffer()``, then ``job.result()``.  Each tile's
    ``mc_tile`` span carries the job's ``(rows, shape)`` labels for it."""
    pool = get_pool()
    buffers: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
    for _ in range(min(pool.workers, len(job.tiles))):
        buffers.put(job.new_buffer())

    def tile_thunk(tile):
        def thunk():
            buf = buffers.get()
            try:
                job.run(tile, buf)
            finally:
                buffers.put(buf)
        return thunk

    metas = [
        {"stage": stage, "tile": i, "rows": rows, "shape": shape}
        for i, (rows, shape) in enumerate(map(job.label, job.tiles))
    ]
    pool.run([tile_thunk(tile) for tile in job.tiles], spans=metas)
    return job.result()
