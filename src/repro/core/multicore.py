"""Multicore tiled backend: attention work executed as tiles on a thread pool.

The ``multicore`` backend is the ``fast`` backend with two changes, both
reached through the ordinary :class:`~repro.core.plan.AttentionPlan`:

* the fused kernels (``nm_attention``, ``row_block_attention`` and their
  backwards) are row-tile jobs, and :func:`~repro.core.jobs.register_job_kernel`
  registers each one's ``multicore`` kernel to run the job's tiles here,
  through :func:`_run_job`, each worker borrowing one tile buffer.  Every
  other kernel falls back to ``fast``;
* :func:`map_tiles`, which the plan's ``_map`` calls for the stages of the
  padded-CSR layout only, cuts the flattened batch×head dimension into
  contiguous slices (:func:`tile_slices`), calls the stage's ``fn`` on each
  tile — ``layout.batch_slice(sl)`` plus zero-copy slices of the operands —
  on the pool, and concatenates the tile results.

This module registers no kernel.  It is imported on the first call of a
fused ``multicore`` kernel or of a multicore CSR stage, never at package
import.

**Bitwise parity with ``fast`` is a hard invariant, not a tolerance.**  Every
fast kernel in the chain is per-leading-slice independent — batched BLAS
matmuls dispatch one GEMM per slice, and every reduction runs over trailing
extents the slice itself fixes — so tiling the leading dimension cannot
perturb a bit, and a fused job's tiles run the fast code on disjoint parts
of its outputs.  The masked softmax's choice between summation orders is
made per slice from that slice's own row lengths
(:func:`repro.core.softmax.masked_softmax_values`), so a tile cannot flip
it either.

Workers are threads: the hot kernels are BLAS/ufunc dominated and release
the GIL.  ``REPRO_MULTICORE_WORKERS`` sets the worker count (default
``os.cpu_count()``); ``1`` degenerates to inline single-core execution,
bit-for-bit the ``fast`` backend with zero pool involvement.

Scheduling: tiles are cost-balanced by per-slice nnz for ragged CSR layouts
(uniform otherwise), oversubscribed ~4x the worker count and submitted
heaviest-first — the executor's shared queue then provides the work
stealing.  While a trace session is active each tile runs inside an
``mc_tile`` span on its worker's own tid lane (carrying the stage, tile
index, slice range, shape, and pool size), with the submitting thread's
phase and plan labels re-applied so worker-lane events stay attributable.
The fused kernels' own spans (``nm_attention``, ``row_block_attention``, …)
are emitted by the registry's tracing wrapper, as for every other backend.
The serving batcher's stacked request groups are ordinary plan calls, so
they tile like any other batch.
"""

from __future__ import annotations

import atexit
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.profile.tracer import current_tracer

__all__ = [
    "WORKERS_ENV_VAR",
    "WorkerPool",
    "get_pool",
    "map_tiles",
    "resolve_worker_count",
    "tile_slices",
]

#: Environment variable selecting the worker count (default: ``os.cpu_count()``).
WORKERS_ENV_VAR = "REPRO_MULTICORE_WORKERS"

#: Tiles submitted per worker: mild oversubscription so the executor queue
#: load-balances ragged tiles (static slicing would pin the largest tile's
#: finish time to one worker).
_OVERSUBSCRIPTION = 4


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


def tile_slices(
    batch: int,
    workers: int,
    costs: Optional[np.ndarray] = None,
    oversubscription: int = _OVERSUBSCRIPTION,
) -> List[slice]:
    """Contiguous cost-balanced slices of ``range(batch)``.

    Contiguity keeps every tile a zero-copy view of the flattened operands.
    With ``costs`` (one nonnegative weight per batch index, e.g. per-slice
    nnz of a ragged CSR structure) the boundaries equalise cumulative cost
    instead of index count.  Degenerate inputs collapse to one full slice.
    """
    batch = int(batch)
    if batch <= 1 or workers <= 1:
        return [slice(0, batch)]
    n_tiles = min(batch, max(2, workers * oversubscription))
    if costs is None:
        bounds = np.linspace(0, batch, n_tiles + 1).round().astype(np.int64)
    else:
        costs = np.asarray(costs, dtype=np.float64).reshape(-1)
        if costs.shape[0] != batch:
            raise ValueError(f"{costs.shape[0]} costs for batch {batch}")
        total = float(costs.sum())
        if total <= 0.0:
            bounds = np.linspace(0, batch, n_tiles + 1).round().astype(np.int64)
        else:
            cum = np.cumsum(costs)
            targets = np.linspace(0.0, total, n_tiles + 1)[1:-1]
            inner = np.searchsorted(cum, targets, side="left") + 1
            bounds = np.concatenate(([0], inner, [batch]))
    bounds = np.unique(np.clip(bounds, 0, batch))
    return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


def slice_costs(slices: Sequence[slice], costs: Optional[np.ndarray]) -> Optional[List[float]]:
    """Total cost per slice (``None`` passes through for uniform tiles)."""
    if costs is None:
        return None
    costs = np.asarray(costs, dtype=np.float64).reshape(-1)
    return [float(costs[s].sum()) for s in slices]


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
        costs: Optional[Sequence[float]] = None,
        spans: Optional[Sequence[Optional[Dict[str, Any]]]] = None,
    ) -> List[Any]:
        """Execute ``thunks`` on the pool, returning results in input order.

        With one thunk or one worker the call degenerates to inline
        execution — no pool is started, no thread is touched.  ``costs``
        orders submission heaviest-first (the executor's shared queue then
        steals work naturally); ``spans`` attaches per-tile ``mc_tile`` trace
        spans, and the submitting thread's tracer phase/labels are re-applied
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
        order = list(range(len(thunks)))
        if costs is not None:
            order.sort(key=lambda i: -float(costs[i]))
        executor = self._ensure()
        futures = {i: executor.submit(thunks[i]) for i in order}
        return [futures[i].result() for i in range(len(thunks))]


#: Process-wide pool shared by every multicore plan (and the serving path).
_POOL = WorkerPool()


def get_pool() -> WorkerPool:
    """The shared process-wide :class:`WorkerPool`."""
    return _POOL


def _join(parts: Sequence[Any], batch_shape: Tuple[int, ...]):
    """Concatenate per-tile results along the flattened batch axis."""
    first = parts[0]
    if first is None:
        return None
    if isinstance(first, tuple):
        return tuple(_join([p[i] for p in parts], batch_shape) for i in range(len(first)))
    joined = np.concatenate(parts)
    return joined.reshape(batch_shape + joined.shape[1:])


def map_tiles(stage: str, layout, fn: Callable, *arrays):
    """``fn(layout, *arrays)``, executed as batch tiles on the shared pool.

    ``layout`` (a compressed layout) and the ``(..., rows, cols)``
    ``arrays`` (``None`` entries pass through) share one leading batch
    shape.  The flattened batch is cut by :func:`tile_slices` —
    cost-balanced by per-slice nnz when the layout has padding lanes — and
    each tile calls ``fn(layout.batch_slice(sl), *(a[sl] ...))``; the tile
    results (``None``, arrays or tuples of arrays) are concatenated back
    into the full batch shape.  Degenerate cases — one worker, one tile, or
    operands whose batch shapes disagree (the kernel raises its usual
    error) — call ``fn`` once on the whole batch.
    """
    pool = get_pool()
    operands = [a for a in arrays if a is not None]
    batch_shape = tuple(layout.batch_shape)
    batch = int(np.prod(batch_shape, dtype=np.int64))
    if pool.workers <= 1 or batch <= 1:
        return fn(layout, *arrays)
    costs = None
    if layout.valid_lanes() is not None:
        costs = layout.row_lengths().reshape(batch, layout.rows).sum(axis=1, dtype=np.int64)
    slices = tile_slices(batch, pool.workers, costs)
    if len(slices) <= 1 or any(np.shape(a)[:-2] != batch_shape for a in operands):
        return fn(layout, *arrays)
    flat = [
        None if a is None else np.reshape(a, (batch,) + np.shape(a)[-2:])
        for a in arrays
    ]
    tiles = [layout.batch_slice(sl) for sl in slices]
    trailing = np.shape(layout.values)[len(batch_shape):]

    def tile_thunk(sl: slice, tile):
        return lambda: fn(tile, *(None if a is None else a[sl] for a in flat))

    metas = [
        {
            "stage": stage,
            "tile": i,
            "rows": f"{sl.start}:{sl.stop}",
            "shape": "x".join(str(d) for d in (sl.stop - sl.start, *trailing)),
        }
        for i, sl in enumerate(slices)
    ]
    parts = pool.run(
        [tile_thunk(sl, tile) for sl, tile in zip(slices, tiles)],
        slice_costs(slices, costs), metas,
    )
    return _join(parts, batch_shape)


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
