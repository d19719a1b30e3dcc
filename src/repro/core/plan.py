"""Compiled plan/execute layer: one resolved attention pass per layout.

The paper's pipeline wins only when the whole chain — score computation,
masked softmax, and the value contraction — runs on the compressed
representation without materialising dense intermediates.  This module
compiles the chain once per layout and geometry:

* :class:`PlanKey` — the cache key: (mechanism, layout, backend, dtype,
  shape-class).  Everything that changes which kernels run or how buffers are
  sized, and nothing that doesn't (batch shape is deliberately absent — one
  plan serves every batch of the same per-slice geometry).
* :class:`AttentionPlan` — the compiled object: every registry lookup is
  resolved at construction.  An N:M plan resolves only two kernels: the
  N:M forward, inference and training alike, runs ``nm_attention`` and
  the N:M backward ``nm_attention_bwd`` (:mod:`repro.core.nm_attention`:
  row-tiled on ``fast``, so no ``n²`` tensor exists, and the backward
  recomputes the probabilities instead of reading stored ones).  The
  stages — sddmm → softmax → spmm, used only by the CSR layout, plus the
  CSR backward — are each written once, as a function
  of one layout and its operands handed to the execution seam
  :meth:`AttentionPlan._map`.  The softmax stage reuses the score buffer
  as the probability buffer (scores live only in the compressed value
  array, which the softmax overwrites in place), and its summation-order
  branch is decided once for the whole batch.
  The row-block layout of the static masks (:mod:`repro.core.row_block`)
  resolves its own ``row_block_attention`` pair, which the plan calls
  directly as it does the N:M pair, training on per-row statistics too.
* :func:`plan_for_nm` / :func:`plan_for_blocks` / :func:`plan_for_structure`
  — the cached constructors every layer shares: the autograd ops,
  ``engine.AttentionEngine``, the static-mask mechanisms, the serving
  batcher (:mod:`repro.serve.batcher`), and the bench runner.

There is one plan class for every backend: a backend is the kernels the
plan resolves for it (:func:`~repro.core.backend.get_kernel`).  Only
``reference`` plans are unfused: their CSR chain dispatches the ordinary
registry kernels stage by stage and acts as the parity oracle.  On
``multicore`` (:mod:`repro.core.multicore`) the N:M and row-block kernels
run their tiles on a worker pool, and :meth:`AttentionPlan._map` runs each
CSR stage as batch tiles on the same pool.

Bitwise parity between them is by construction, not by accident: the
fused plan calls the *same* registered kernel functions and the same softmax
core (:func:`~repro.core.softmax.masked_softmax_values`) as the registry
kernels; it differs only in pre-resolved dispatch and in-place buffer reuse,
both of which are bit-exact transformations, and every fast kernel is
per-leading-slice independent, so cutting the batch into tiles is too.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, ContextManager, Dict, Optional, Tuple

import numpy as np

from repro.analysis.sanitize import check_grads, check_output, guard_input
from repro.core.backend import MULTICORE, REFERENCE, get_kernel, resolve_backend
from repro.core.patterns import resolve_pattern
from repro.core.plan_cache import PlanCache
from repro.core.row_block import Dropout, RowBlockStructure
from repro.core.softmax import masked_softmax_values
from repro.profile.tracer import (
    current_tracer,
    register_metadata_provider,
    register_session_hook,
)

@dataclass(frozen=True)
class PlanKey:
    """Cache key of a compiled plan.

    ``mechanism`` names the structure source (``"dfss_1:2"``-style for the
    dynamic N:M epilogue, the mechanism name for mask-based layouts),
    ``layout`` is ``"nm"``, ``"row_block"`` or ``"csr"``, and
    ``shape_class`` is the batch-agnostic per-slice geometry ``(rows,
    dense_cols, lane_width)`` (the widest block tile for row blocks) — one
    plan serves every batch shape over the same geometry.
    """

    mechanism: str
    layout: str
    backend: str
    dtype: str
    shape_class: Tuple[int, int, int]


class AttentionPlan:
    """A compiled attention pass over one layout, with its backward.

    Every registry lookup happens once, at construction.  On the CSR
    layout's staged chain, a fused plan (every backend but ``reference``)
    runs the softmax in place on the compressed score buffer — the
    probabilities overwrite the scores, so no intermediate tensor is ever
    allocated between the stages; the unfused ``reference`` plan dispatches
    the registered per-stage kernels and is the oracle the parity suite
    compares against.
    """

    def __init__(self, key: PlanKey) -> None:
        self.key = key
        self.fused = key.backend != REFERENCE
        backend = key.backend
        if key.layout == "nm":
            self._nm_forward = get_kernel("nm_attention", backend)
            self._nm_bwd = get_kernel("nm_attention_bwd", backend)
            self._pattern = resolve_pattern(key.mechanism.split("_", 1)[1])
        elif key.layout == "csr":
            self._sddmm = get_kernel("sddmm_csr", backend)
            self._softmax = get_kernel("masked_softmax", backend)
            self._spmm = get_kernel("spmm", backend)
            self._bwd = get_kernel("attention_bwd", backend)
        elif key.layout == "row_block":
            self._row_block = get_kernel("row_block_attention", backend)
            self._row_block_bwd = get_kernel("row_block_attention_bwd", backend)
        else:
            raise ValueError(f"unknown plan layout {key.layout!r}")

    def _trace_labels(self) -> ContextManager[None]:
        """Label scope stamping this plan's identity onto nested trace events."""
        tracer = current_tracer()
        if tracer is None:
            return nullcontext()
        return tracer.label_scope(
            mechanism=self.key.mechanism,
            layout=self.key.layout,
            shape_class="x".join(str(d) for d in self.key.shape_class),
        )

    def _map(self, stage: str, layout, fn: Callable, *arrays):
        """Run one CSR stage: ``fn(layout, *arrays)``.

        The single execution seam of the stages.  ``layout`` is a compressed
        layout and ``arrays`` are ``(..., rows, cols)`` operands
        (or ``None``) sharing its batch shape; ``fn`` returns ``None``, an
        array or a tuple of arrays with that batch shape.  On ``multicore``
        :func:`~repro.core.multicore.map_tiles` runs ``fn`` on batch tiles
        (``layout.batch_slice``) over the worker pool and joins the results.
        """
        with self._trace_labels():
            if self.key.backend == MULTICORE:
                from repro.core.multicore import map_tiles

                return map_tiles(stage, layout, fn, *arrays)
            return fn(layout, *arrays)

    # ------------------------------------------------------------------ fwd
    def compute_scores(
        self,
        q: np.ndarray,
        k: np.ndarray,
        structure=None,
        scale: Optional[float] = None,
    ):
        """Stage 1 of a CSR plan: the masked SDDMM into ``structure``."""
        q = guard_input(q)
        k = guard_input(k)
        if structure is None:
            raise ValueError("csr plans need the compressed structure to score into")

        def sddmm_csr(tile, q, k):
            return self._sddmm(q, k, tile, scale=scale).values

        return structure.with_values(
            self._map("sddmm_csr", structure, sddmm_csr, q, k)
        )

    def compute_probs(self, scores, owned: bool = True):
        """Stage 2 of a CSR plan: masked softmax over the stored nonzeros.

        Fused plans normalise *in place*, reusing the score value buffer as
        the probability buffer; pass ``owned=False`` when the caller still
        needs the score values (e.g. precomputed Top-K scores), in which case
        exactly one copy is taken first.  Bitwise-identical to the registry
        softmax kernel either way — same core, different buffer.  The core
        picks each slice's summation order from that slice's own row lengths
        (:func:`~repro.core.softmax.masked_softmax_values`), so a stage run
        as batch tiles, and a slice run alone, give the same bits.
        """
        if not self.fused:
            with self._trace_labels():
                return self._softmax(scores)
        buf = scores.values
        if not owned or not buf.flags.writeable or not buf.flags.c_contiguous:
            buf = np.array(buf, dtype=np.float32)
        probs = scores.with_values(buf)
        tracer = current_tracer()

        def masked_softmax(tile):
            # The fused path bypasses registry dispatch (it calls the softmax
            # core directly), so the kernel span the wrapper would have
            # emitted is emitted by hand here.
            span = (
                nullcontext()
                if tracer is None
                else tracer.span(
                    "masked_softmax",
                    backend=self.key.backend,
                    shape="x".join(str(d) for d in tile.values.shape),
                )
            )
            with span:
                # repro: owns-buffer — fused plan reuses the score buffer it owns (or just copied)
                masked_softmax_values(
                    tile.values, tile.valid_lanes(), tile.row_lengths(), out=tile.values
                )

        self._map("masked_softmax", probs, masked_softmax)
        return probs

    def contract(
        self,
        probs,
        v: np.ndarray,
        drop_keep: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Stage 3 of a CSR plan: the value contraction ``P @ V`` (after
        optional dropout)."""
        applied = (
            probs if drop_keep is None else probs.with_values(probs.values * drop_keep)
        )
        out = self._map("spmm", applied, self._spmm, guard_input(v))
        return check_output(out, "attention output")

    # ------------------------------------------------------------------ bwd
    def backward(
        self,
        saved,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        d_out: np.ndarray,
        scale: float,
        drop_keep: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
        dropout: Optional[Dropout] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused backward: ``(dQ, dK, dV)`` from the forward's saved state.

        ``saved`` is what the forward kept.  N:M plans take the training
        forward's :class:`~repro.core.nm_attention.NMStats` and run the
        ``nm_attention_bwd`` kernel, which re-scores and recomputes the
        probabilities tile by tile from the per-row statistics and the
        selection, the forward output ``out`` and the forward's
        ``dropout`` (``(seed, p)``).  Row-block plans take the forward's
        :class:`~repro.core.row_block.RowBlockStats` and run
        ``row_block_attention_bwd``, which re-scores each block the same
        way.  CSR plans take the compressed probabilities and the
        ``drop_keep`` array over their lanes, and run ``attention_bwd``.
        """
        if self.key.layout != "csr":
            operands = [guard_input(x) for x in (q, k, v, d_out, out)]
            with self._trace_labels():
                if self.key.layout == "nm":
                    grads = self._nm_bwd(
                        *operands, saved.shift, saved.denom, saved.selection,
                        pattern=self._pattern, scale=scale, dtype=self.key.dtype,
                        criterion=saved.criterion, block_mask=saved.block_mask,
                        dropout=dropout,
                    )
                else:
                    grads = self._row_block_bwd(
                        *operands, saved.shift, saved.denom, saved.structure, scale, dropout
                    )
            return check_grads(grads, "attention gradient", inputs=(q, k, v, d_out))

        def attention_bwd(tile, q, k, v, d_out, drop_keep, out):
            return self._bwd(tile, q, k, v, d_out, scale, drop_keep, out)

        grads = self._map(
            "attention_bwd", saved, attention_bwd,
            guard_input(q), guard_input(k), guard_input(v), guard_input(d_out),
            drop_keep, guard_input(out),
        )
        return check_grads(grads, "attention gradient", inputs=(q, k, v, d_out))

    # ------------------------------------------------------------ end-to-end
    def forward(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        structure=None,
        scale: Optional[float] = None,
        criterion: str = "value",
        block_mask=None,
        return_probs: bool = False,
        dropout=None,
        return_stats: bool = False,
    ):
        """Forward over the whole chain.

        N:M plans run the registered ``nm_attention`` kernel — the row-tiled
        fused forward on ``fast``, the staged reference chain on
        ``reference`` — which computes the compressed probabilities only when
        ``return_probs`` asks for them, and applies ``dropout`` (``(seed,
        p)``, see :func:`repro.core.jobs.dropout_keep`) to the
        probabilities it contracts.  The training op asks for
        ``return_stats`` instead and gets ``(out, stats)``: the per-row
        softmax statistics and the selection
        (:class:`~repro.core.nm_attention.NMStats`) that :meth:`backward`
        recomputes the probabilities from.
        Row-block plans run ``row_block_attention`` over ``structure`` (a
        :class:`~repro.core.row_block.RowBlockStructure`) with the same
        ``dropout`` and ``return_stats``, and keep no probabilities.  CSR
        plans compose the three stages and take no dropout.
        """
        if self.key.layout == "row_block" and (
            return_probs or not isinstance(structure, RowBlockStructure)
        ):
            raise ValueError("row-block plans run over a RowBlockStructure, keeping no P")
        if self.key.layout != "csr":
            operands = [guard_input(x) for x in (q, k, v)]
            with self._trace_labels():
                if self.key.layout == "nm":
                    out, saved = self._nm_forward(
                        *operands, pattern=self._pattern, scale=scale, dtype=self.key.dtype,
                        criterion=criterion, block_mask=block_mask,
                        return_probs=return_probs, dropout=dropout, return_stats=return_stats,
                    )
                else:
                    out, saved = self._row_block(
                        *operands, structure, scale, dropout, return_stats
                    )
            out = check_output(out, "attention output", inputs=(q, k, v))
            return (out, saved) if return_probs or return_stats else out
        if dropout is not None:
            raise ValueError("CSR plans apply dropout in contract(drop_keep=...)")
        scores = self.compute_scores(q, k, structure=structure, scale=scale)
        probs = self.compute_probs(scores)
        out = self.contract(probs, v)
        if return_probs:
            return out, probs
        return out

    def __call__(self, q, k, v, **kwargs):
        return self.forward(q, k, v, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "fused" if self.fused else "unfused"
        return f"AttentionPlan({self.key!r}, {mode})"


# --------------------------------------------------------------------- cache
_PLAN_CACHE_MAX = 64


#: Process-wide LRU of compiled plans (see :class:`repro.core.plan_cache.PlanCache`).
PLAN_CACHE: PlanCache[PlanKey, AttentionPlan] = PlanCache(
    AttentionPlan, max_entries=_PLAN_CACHE_MAX
)


def get_plan(key: PlanKey) -> AttentionPlan:
    """Cached plan lookup: compile once per key, LRU-evict beyond the cap."""
    return PLAN_CACHE.get(key)


def plan_for_nm(
    pattern,
    rows: int,
    dense_cols: int,
    backend: Optional[str] = None,
    dtype: str = "float32",
) -> AttentionPlan:
    """Cached plan for the dynamic N:M pipeline on a given per-slice geometry.

    The lane width counts the key axis rounded up to whole M-groups, which
    is what the N:M forward pads it to.
    """
    pattern = resolve_pattern(pattern)
    key = PlanKey(
        mechanism=f"dfss_{pattern.name}",
        layout="nm",
        backend=resolve_backend(backend),
        dtype=dtype,
        shape_class=(int(rows), int(dense_cols), pattern.kept(pattern.padded(dense_cols))),
    )
    return get_plan(key)


def plan_for_blocks(
    structure: RowBlockStructure,
    backend: Optional[str] = None,
    mechanism: str = "static",
) -> AttentionPlan:
    """Cached plan for a static mask's row-block structure."""
    key = PlanKey(
        mechanism=str(mechanism),
        layout="row_block",
        backend=resolve_backend(backend),
        dtype="float32",
        shape_class=(structure.n_q, structure.n_k, structure.max_width),
    )
    return get_plan(key)


def plan_for_structure(
    structure,
    backend: Optional[str] = None,
    mechanism: str = "masked",
    dtype: str = "float32",
) -> AttentionPlan:
    """Cached plan for a content-dependent mask's padded-CSR structure."""
    key = PlanKey(
        mechanism=str(mechanism),
        layout="csr",
        backend=resolve_backend(backend),
        dtype=dtype,
        shape_class=(
            int(structure.rows),
            int(structure.dense_cols),
            int(structure.values.shape[-1]),
        ),
    )
    return get_plan(key)


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss/eviction counters."""
    PLAN_CACHE.clear()


def plan_cache_stats() -> Dict[str, int]:
    """Snapshot of the plan cache: ``{"size", "hits", "misses", "evictions"}``."""
    return PLAN_CACHE.stats()


# Plans bake resolved kernel functions at construction, so the cache is
# cleared at trace start (kernels re-resolve through the tracing wrapper) and
# at trace stop (no wrapper outlives its session); the closing stats snapshot
# is embedded in the trace metadata before the stop-side clear runs.
register_session_hook(clear_plan_cache)
register_metadata_provider("plan_cache", plan_cache_stats)
