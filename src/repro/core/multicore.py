"""Multicore tiled backend: thread-pool execution of compiled plans.

The ``fast`` backend runs the fused sddmm → masked-softmax → spmm chain as
single whole-batch numpy calls; everything beyond one core sits idle.  This
module registers a third backend, ``multicore``, whose plan builder returns a
:class:`MulticoreAttentionPlan`: the same compiled chain, executed as
independent tiles over the flattened batch×head dimension on a persistent
worker pool.  Each tile runs the *existing single-core fast kernels* on
contiguous zero-copy slices of the inputs and writes its result into a
disjoint slice of a preallocated output buffer.

**Bitwise parity with ``fast`` is a hard invariant, not a tolerance.**  Every
fast kernel in the chain is per-leading-slice independent — batched BLAS
matmuls dispatch one GEMM per slice, and every reduction runs over trailing
extents the slice itself fixes — so tiling the leading dimension cannot
perturb a bit.  The one genuine hazard is the masked softmax's *dispatch*:
its chunked and segmented passes sum row denominators in different orders,
and the auto dispatch keys on ``lengths.min()``, which a tile sees locally.
The tiled softmax therefore decides the branch once on the global lengths
and pins it for every tile (``masked_softmax_values(..., segmented=...)``).

Workers are threads: the hot kernels are BLAS/ufunc dominated and release
the GIL.  ``REPRO_MULTICORE_WORKERS`` sets the worker count (default
``os.cpu_count()``); ``1`` degenerates to inline single-core execution,
bit-for-bit the ``fast`` backend with zero pool involvement.

Scheduling: tiles are contiguous slices (zero-copy views) of the flattened
batch dimension, cost-balanced by per-slice nnz for ragged CSR structures
(uniform otherwise), oversubscribed ~4x the worker count and submitted
heaviest-first — the executor's shared queue then provides the work
stealing.  While a trace session is active each tile runs inside an
``mc_tile`` span on its worker's own tid lane (carrying the tile index,
slice range, shape, and pool size), with the submitting thread's phase and
plan labels re-applied so worker-lane events stay attributable.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sanitize import check_grads, check_output, freeze_structure, guard_input
from repro.core.backend import MULTICORE, register_plan_builder
from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.plan import AttentionPlan, PlanKey
from repro.core.softmax import masked_softmax_values
from repro.core.sparse import NMSparseMatrix
from repro.profile.tracer import current_tracer

__all__ = [
    "WORKERS_ENV_VAR",
    "WorkerPool",
    "MulticoreAttentionPlan",
    "get_pool",
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


# --------------------------------------------------------------- tile layouts
def _nm_tile(
    values3: np.ndarray,
    indices3: np.ndarray,
    sl: slice,
    parent: NMSparseMatrix,
    cols3: Optional[np.ndarray] = None,
    scatter3: Optional[np.ndarray] = None,
) -> NMSparseMatrix:
    """Zero-copy N:M tile over flattened-batch slice ``sl``.

    Bypasses ``__post_init__`` — the parent structure already validated these
    arrays — and pre-seeds the per-tile column/scatter caches from slices of
    the parent's, so no tile recomputes metadata the parent already walked.
    """
    tile = object.__new__(NMSparseMatrix)
    tile.values = values3[sl]
    tile.indices = indices3[sl]
    tile.pattern = parent.pattern
    tile.dense_cols = parent.dense_cols
    tile.dtype = parent.dtype
    if cols3 is not None:
        tile.__dict__["_column_cache"] = cols3[sl]
    if scatter3 is not None:
        tile.__dict__["_scatter_cache"] = (tile.values, scatter3[sl])
    return tile


def _csr_skeletons(
    structure: PaddedCSRMatrix, slices: Sequence[slice]
) -> List[PaddedCSRMatrix]:
    """Values-less CSR tiles over flattened-batch slices, memoised per structure.

    Each tile owns a *fresh* shared-cache dict pre-seeded with its slice of
    the globally-computed validity mask: tiles executing concurrently must
    never write lazily into one shared dict, and the tile-local flat
    gather/scatter tables they do build are cached here across training
    steps (``with_values`` siblings share the dict by reference, exactly as
    the full-size structure does).
    """
    key = tuple((s.start, s.stop) for s in slices)
    cached = structure._shared.get("mc_tiles")
    if cached is not None and cached[0] == key:
        return cached[1]
    rows, width = structure.rows, structure.width
    batch = int(np.prod(structure.batch_shape, dtype=np.int64))
    cols3 = structure.cols.reshape(batch, rows, width)
    lengths3 = structure.lengths.reshape(batch, rows)
    valid3 = structure.valid_lanes().reshape(batch, rows, width)
    tiles: List[PaddedCSRMatrix] = []
    for sl in slices:
        tile = object.__new__(PaddedCSRMatrix)
        extent = sl.stop - sl.start
        # Shape-correct zero-memory placeholder; every consumer goes through
        # ``with_values`` before touching values.
        tile.values = np.broadcast_to(np.float32(0.0), (extent, rows, width))
        tile.cols = cols3[sl]
        tile.lengths = lengths3[sl]
        tile.dense_cols = structure.dense_cols
        tile.dtype = structure.dtype
        tile.__dict__["_shared_caches"] = {"valid": valid3[sl]}
        tiles.append(tile)
    # repro: owns-buffer — memo write into the structure's shared cache dict, same protocol as valid_lanes()
    structure._shared["mc_tiles"] = (key, tiles)
    return tiles


def _flat_batch(structure) -> int:
    return int(np.prod(structure.batch_shape, dtype=np.int64))


def _csr_costs(structure: PaddedCSRMatrix) -> np.ndarray:
    """Per-flattened-batch-index nnz — the tile scheduler's cost weights."""
    batch = _flat_batch(structure)
    return structure.lengths.reshape(batch, -1).sum(axis=1, dtype=np.int64)


# ------------------------------------------------------------------- the plan
class MulticoreAttentionPlan(AttentionPlan):
    """A fast fused plan whose stages execute as batch×head tiles on a pool.

    Subclasses the fast :class:`~repro.core.plan.AttentionPlan` (the kernel
    registry falls ``multicore`` back to the ``fast`` implementations), so
    every degenerate case — one worker, flat batch of one, a ``block_mask``
    — simply *is* the fast plan via ``super()``.  The overridden stages tile
    the flattened batch dimension; each tile calls the same resolved kernels
    on zero-copy views and writes a disjoint slice of a preallocated output.
    """

    def __init__(self, key: PlanKey) -> None:
        super().__init__(key, fused=True)

    # ----------------------------------------------------------------- tiling
    def _tiles(self, batch: int, costs: Optional[np.ndarray] = None):
        """``(pool, slices, per_slice_costs)``; ``slices`` is ``None`` when
        tiling is degenerate and the caller should use the ``super()`` path."""
        pool = get_pool()
        if batch <= 1 or pool.workers <= 1:
            return pool, None, None
        slices = tile_slices(batch, pool.workers, costs)
        if len(slices) <= 1:
            return pool, None, None
        return pool, slices, slice_costs(slices, costs)

    @staticmethod
    def _span_meta(stage: str, sl: slice, index: int, shape: Tuple[int, ...]):
        return {
            "stage": stage,
            "tile": index,
            "rows": f"{sl.start}:{sl.stop}",
            "shape": "x".join(str(d) for d in shape),
        }

    # ------------------------------------------------------------------ stages
    def compute_scores(
        self,
        q: np.ndarray,
        k: np.ndarray,
        structure=None,
        scale: Optional[float] = None,
        criterion: str = "value",
        block_mask=None,
    ):
        if block_mask is not None:
            # blocked-ELL interacts with the epilogue's block masking; keep
            # the whole-batch fast path for it.
            return super().compute_scores(
                q, k, structure=structure, scale=scale,
                criterion=criterion, block_mask=block_mask,
            )
        if self.key.layout == "csr":
            if (
                structure is None
                or structure.batch_shape != np.asarray(q).shape[:-2]
            ):
                # missing or batch-mismatched structure: let the fast path
                # raise its usual error (callers broadcast before planning)
                return super().compute_scores(
                    q, k, structure=structure, scale=scale, criterion=criterion
                )
            costs = _csr_costs(structure)
        else:
            costs = None
        q = guard_input(np.asarray(q, dtype=np.float32))
        k = guard_input(np.asarray(k, dtype=np.float32))
        from repro.utils.shapes import as_batched_3d

        q3, batch_shape = as_batched_3d(q)
        k3, _ = as_batched_3d(k)
        pool, slices, costs_per_tile = self._tiles(q3.shape[0], costs)
        if slices is None:
            return super().compute_scores(
                q, k, structure=structure, scale=scale, criterion=criterion
            )
        with self._trace_labels():
            if self.key.layout == "nm":
                return self._scores_nm_tiled(
                    pool, slices, costs_per_tile, q3, k3, batch_shape,
                    scale, criterion,
                )
            return self._scores_csr_tiled(
                pool, slices, costs_per_tile, q3, k3, structure, scale
            )

    def _scores_nm_tiled(
        self, pool, slices, costs, q3, k3, batch_shape, scale, criterion
    ) -> NMSparseMatrix:
        rows = q3.shape[1]
        dense_cols = k3.shape[1]
        kept = self._pattern.kept(dense_cols)
        batch = q3.shape[0]
        values_full = np.empty((batch, rows, kept), dtype=np.float32)
        indices_full = np.empty((batch, rows, kept), dtype=np.int8)

        def tile_thunk(sl: slice):
            def thunk():
                tile = self._sddmm(
                    q3[sl], k3[sl], pattern=self._pattern, scale=scale,
                    dtype=self.key.dtype, criterion=criterion, block_mask=None,
                )
                values_full[sl] = tile.values  # repro: owns-buffer — disjoint slice of a preallocated tile output
                indices_full[sl] = tile.indices  # repro: owns-buffer — disjoint slice of a preallocated tile output
            return thunk

        metas = [
            self._span_meta("sddmm_nm", sl, i, (sl.stop - sl.start, rows, kept))
            for i, sl in enumerate(slices)
        ]
        pool.run([tile_thunk(sl) for sl in slices], costs, metas)
        return NMSparseMatrix(
            values=values_full.reshape(batch_shape + (rows, kept)),
            indices=indices_full.reshape(batch_shape + (rows, kept)),
            pattern=self._pattern,
            dense_cols=dense_cols,
            dtype=self.key.dtype,
        )

    def _scores_csr_tiled(
        self, pool, slices, costs, q3, k3, structure, scale
    ) -> PaddedCSRMatrix:
        rows, width = structure.rows, structure.width
        batch = q3.shape[0]
        tiles = _csr_skeletons(structure, slices)
        values_full = np.empty((batch, rows, width), dtype=np.float32)

        def tile_thunk(sl: slice, tile: PaddedCSRMatrix):
            def thunk():
                scored = self._sddmm(q3[sl], k3[sl], tile, scale=scale)
                values_full[sl] = scored.values  # repro: owns-buffer — disjoint slice of a preallocated tile output
            return thunk

        metas = [
            self._span_meta("sddmm_csr", sl, i, (sl.stop - sl.start, rows, width))
            for i, sl in enumerate(slices)
        ]
        pool.run(
            [tile_thunk(sl, tile) for sl, tile in zip(slices, tiles)],
            costs, metas,
        )
        return structure.with_values(values_full.reshape(structure.values.shape))

    def compute_probs(self, scores, owned: bool = True):
        batch = _flat_batch(scores)
        valid = scores.valid_lanes()
        costs = _csr_costs(scores) if valid is not None else None
        pool, slices, costs_per_tile = self._tiles(batch, costs)
        if slices is None:
            return super().compute_probs(scores, owned=owned)
        buf = scores.values
        if not owned or not buf.flags.writeable or not buf.flags.c_contiguous:
            buf = np.array(buf, dtype=np.float32)
        rows, width = buf.shape[-2], buf.shape[-1]
        lengths = None if valid is None else scores.row_lengths()
        # One global branch decision for every tile: the chunked and
        # segmented passes differ in summation order, and a tile's local
        # lengths.min() could otherwise flip the dispatch (see softmax.py).
        segmented = None if valid is None else bool(int(lengths.min()) < width)
        buf3 = buf.reshape(batch, rows, width)
        valid3 = None if valid is None else valid.reshape(batch, rows, width)
        lengths3 = None if lengths is None else lengths.reshape(batch, rows)
        tracer = current_tracer()

        def tile_thunk(sl: slice):
            def thunk():
                span = (
                    nullcontext()
                    if tracer is None
                    else tracer.span(
                        "masked_softmax",
                        backend=self.key.backend,
                        shape="x".join(str(d) for d in buf3[sl].shape),
                    )
                )
                with span:
                    # repro: owns-buffer — fused plan reuses the score buffer it owns (or just copied)
                    masked_softmax_values(
                        buf3[sl],
                        None if valid3 is None else valid3[sl],
                        None if lengths3 is None else lengths3[sl],
                        out=buf3[sl],
                        segmented=segmented,
                    )
            return thunk

        metas = [
            self._span_meta("masked_softmax", sl, i, (sl.stop - sl.start, rows, width))
            for i, sl in enumerate(slices)
        ]
        with self._trace_labels():
            pool.run([tile_thunk(sl) for sl in slices], costs_per_tile, metas)
        return scores.with_values(buf)

    def contract(
        self,
        probs,
        v: np.ndarray,
        drop_keep: Optional[np.ndarray] = None,
        save_scatter: bool = False,
    ) -> np.ndarray:
        batch = _flat_batch(probs)
        costs = _csr_costs(probs) if probs.valid_lanes() is not None else None
        pool, slices, costs_per_tile = self._tiles(batch, costs)
        if slices is None:
            return super().contract(
                probs, v, drop_keep=drop_keep, save_scatter=save_scatter
            )
        v = guard_input(np.asarray(v, dtype=np.float32))
        from repro.utils.shapes import as_batched_3d, restore_batch_shape

        v3, batch_shape = as_batched_3d(v)
        rows, width = probs.values.shape[-2], probs.values.shape[-1]
        values3 = probs.values.reshape(batch, rows, width)
        with self._trace_labels():
            if save_scatter:
                self._save_scatter_tiled(pool, slices, costs_per_tile, probs, values3)
            scatter3 = self._flat_scatter_view(probs)
            applied_values = (
                probs.values if drop_keep is None else probs.values * drop_keep
            )
            applied3 = applied_values.reshape(batch, rows, width)
            seed_scatter = drop_keep is None and scatter3 is not None
            tile_layouts = self._tile_layouts(
                probs, slices, applied3,
                scatter3=scatter3 if seed_scatter else None,
            )
            out_full = np.empty((batch, rows, v3.shape[-1]), dtype=np.float32)

            def tile_thunk(sl: slice, tile):
                def thunk():
                    out_full[sl] = self._spmm(tile, v3[sl])  # repro: owns-buffer — disjoint slice of a preallocated tile output
                return thunk

            metas = [
                self._span_meta("spmm", sl, i, (sl.stop - sl.start, rows, width))
                for i, sl in enumerate(slices)
            ]
            pool.run(
                [tile_thunk(sl, tile) for sl, tile in zip(slices, tile_layouts)],
                costs_per_tile, metas,
            )
        out = restore_batch_shape(out_full, batch_shape)
        return check_output(out, "attention output")

    def _save_scatter_tiled(self, pool, slices, costs, probs, values3) -> None:
        """Tiled equivalent of ``probs.to_scattered(cache=True)``."""
        cached = probs.__dict__.get("_scatter_cache")
        if cached is not None and cached[0] is probs.values:
            return
        batch, rows = values3.shape[0], values3.shape[1]
        dense_cols = probs.dense_cols
        dense_full = np.empty((batch, rows, dense_cols), dtype=np.float32)
        tile_layouts = self._tile_layouts(probs, slices, values3)

        def tile_thunk(sl: slice, tile):
            def thunk():
                dense_full[sl] = tile.scatter_compressed(tile.values)  # repro: owns-buffer — disjoint slice of a preallocated tile output
            return thunk

        metas = [
            self._span_meta("scatter", sl, i, (sl.stop - sl.start, rows, dense_cols))
            for i, sl in enumerate(slices)
        ]
        pool.run(
            [tile_thunk(sl, tile) for sl, tile in zip(slices, tile_layouts)],
            costs, metas,
        )
        dense = dense_full.reshape(probs.values.shape[:-1] + (dense_cols,))
        # repro: owns-buffer — installs the frozen scatter memo exactly as to_scattered(cache=True) does
        probs.__dict__["_scatter_cache"] = (probs.values, freeze_structure(dense))

    def _flat_scatter_view(self, probs) -> Optional[np.ndarray]:
        """Flattened view of a live cached scatter tile, else ``None``."""
        cached = probs.__dict__.get("_scatter_cache")
        if cached is None or cached[0] is not probs.values:
            return None
        batch = _flat_batch(probs)
        dense = cached[1]
        return dense.reshape(batch, dense.shape[-2], dense.shape[-1])

    def _tile_layouts(
        self,
        parent,
        slices: Sequence[slice],
        values3: np.ndarray,
        scatter3: Optional[np.ndarray] = None,
    ):
        """Per-slice compressed layouts sharing ``parent``'s structure.

        N:M tiles are built directly from sliced views (structures are fresh
        per step — the scores are dynamic); CSR tiles reuse the memoised
        skeletons so their flat gather/scatter tables persist across steps,
        exactly as the full-size fast path's structure caches do.
        """
        if isinstance(parent, NMSparseMatrix):
            batch = values3.shape[0]
            rows, kept = values3.shape[1], values3.shape[2]
            indices3 = parent.indices.reshape(batch, rows, kept)
            cols3 = parent.column_indices().reshape(batch, rows, kept)
            return [
                _nm_tile(values3, indices3, sl, parent, cols3, scatter3)
                for sl in slices
            ]
        skeletons = _csr_skeletons(parent, slices)
        tiles = []
        for sl, skeleton in zip(slices, skeletons):
            tile = skeleton.with_values(values3[sl])
            if scatter3 is not None:
                tile.__dict__["_scatter_cache"] = (tile.values, scatter3[sl])
            tiles.append(tile)
        return tiles

    # -------------------------------------------------------------------- bwd
    def backward(
        self,
        probs,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        d_out: np.ndarray,
        scale: float,
        drop_keep: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        batch = _flat_batch(probs)
        costs = _csr_costs(probs) if probs.valid_lanes() is not None else None
        pool, slices, costs_per_tile = self._tiles(batch, costs)
        if slices is None:
            # repro: owns-buffer — forwards the caller's out unchanged; the parent guards it
            return super().backward(
                probs, q, k, v, d_out, scale, drop_keep=drop_keep, out=out
            )
        from repro.utils.shapes import as_batched_3d, restore_batch_shape

        q = guard_input(np.asarray(q, dtype=np.float32))
        k = guard_input(np.asarray(k, dtype=np.float32))
        v = guard_input(np.asarray(v, dtype=np.float32))
        d_out = guard_input(np.asarray(d_out, dtype=np.float32))
        q3, batch_shape = as_batched_3d(q)
        k3, _ = as_batched_3d(k)
        v3, _ = as_batched_3d(v)
        g3, _ = as_batched_3d(d_out)
        out3 = None
        if out is not None:
            out3, _ = as_batched_3d(guard_input(np.asarray(out, dtype=np.float32)))
        rows, width = probs.values.shape[-2], probs.values.shape[-1]
        values3 = probs.values.reshape(batch, rows, width)
        keep3 = (
            None if drop_keep is None
            else np.asarray(drop_keep, dtype=np.float32).reshape(batch, rows, width)
        )
        scatter3 = self._flat_scatter_view(probs)
        tile_layouts = self._tile_layouts(probs, slices, values3, scatter3=scatter3)
        d = q3.shape[-1]
        dq_full = np.empty((batch, q3.shape[1], d), dtype=np.float32)
        dk_full = np.empty((batch, k3.shape[1], d), dtype=np.float32)
        dv_full = np.empty((batch, v3.shape[1], v3.shape[2]), dtype=np.float32)

        def tile_thunk(sl: slice, tile):
            def thunk():
                d_q, d_k, d_v = self._bwd(
                    tile,
                    q3[sl],
                    k3[sl],
                    v3[sl],
                    g3[sl],
                    scale,
                    None if keep3 is None else keep3[sl],
                    None if out3 is None else out3[sl],
                )
                dq_full[sl] = d_q  # repro: owns-buffer — disjoint slice of a preallocated tile output
                dk_full[sl] = d_k  # repro: owns-buffer — disjoint slice of a preallocated tile output
                dv_full[sl] = d_v  # repro: owns-buffer — disjoint slice of a preallocated tile output
            return thunk

        metas = [
            self._span_meta("attention_bwd", sl, i, (sl.stop - sl.start, rows, width))
            for i, sl in enumerate(slices)
        ]
        with self._trace_labels():
            pool.run(
                [tile_thunk(sl, tile) for sl, tile in zip(slices, tile_layouts)],
                costs_per_tile, metas,
            )
        grads = (
            restore_batch_shape(dq_full, batch_shape),
            restore_batch_shape(dk_full, batch_shape),
            restore_batch_shape(dv_full, batch_shape),
        )
        return check_grads(grads, "attention gradient")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MulticoreAttentionPlan({self.key!r}, workers={get_pool().workers})"


@register_plan_builder(MULTICORE)
def _build_multicore_plan(key: PlanKey) -> MulticoreAttentionPlan:
    """Multicore backend: the fast fused plan, tiled over a worker pool."""
    return MulticoreAttentionPlan(key)
