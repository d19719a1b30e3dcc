"""Compiled plan/execute layer: one resolved attention pass per layout.

The paper's pipeline wins only when the whole chain — score computation,
masked softmax, and the value contraction — runs on the compressed
representation without materialising dense intermediates.  This module
compiles that pass once per layout and geometry:

* :class:`PlanKey` — the cache key: (mechanism, layout, backend, dtype,
  shape-class).  Everything that changes which kernels run or how buffers are
  sized, and nothing that doesn't (batch shape is deliberately absent — one
  plan serves every batch of the same per-slice geometry).
* :class:`AttentionPlan` — the compiled object: every registry lookup is
  resolved at construction, and each plan resolves exactly two kernels, one
  fused forward and one backward.  An N:M plan runs ``nm_attention`` and
  ``nm_attention_bwd`` (:mod:`repro.core.nm_attention`: row-tiled on
  ``fast``, so no ``n²`` tensor exists, and the backward recomputes the
  probabilities instead of reading stored ones), over all keys or, given a
  row-block ``structure``, over its key blocks only (the blocked-ELL + N:M
  hybrid, ``bigbird_dfss``).  A row-block plan — every
  other mask: the static masks' declared structures, the content-dependent
  masks' and explicit masks' structures built from the mask
  (:mod:`repro.core.row_block`) — runs ``row_block_attention`` and
  ``row_block_attention_bwd``, training on per-row statistics too.
* :func:`plan_for_nm` / :func:`plan_for_blocks` — the cached constructors
  every layer shares: the autograd ops, ``engine.AttentionEngine``, the mask
  cores, the serving batcher (:mod:`repro.serve.batcher`), and the bench
  runner.

There is one plan class for every backend: a backend is the kernels the
plan resolves for it (:func:`~repro.core.backend.get_kernel`).  The
``reference`` kernels are the dense or staged oracles the parity suite
compares against; on ``fast`` the fused kernels run their row tiles in
order, and on ``multicore`` (:mod:`repro.core.multicore`) on a worker pool.
Both run the same tile code over the same tiles, so their outputs are
bitwise equal whatever the worker count.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import ContextManager, Dict, Optional, Tuple

import numpy as np

from repro.analysis.sanitize import check_grads, check_output, guard_input
from repro.core.backend import REFERENCE, get_kernel, resolve_backend
from repro.core.patterns import resolve_pattern
from repro.core.plan_cache import PlanCache
from repro.core.row_block import Dropout, RowBlockStructure
from repro.profile.tracer import (
    current_tracer,
    register_metadata_provider,
    register_session_hook,
)

#: Why the staged-stage names of :class:`AttentionPlan` raise.
_NO_STAGES = (
    "attention plans run one fused forward (AttentionPlan.forward); the staged "
    "compute_scores/compute_probs/contract passes are gone, and these names are "
    "deleted with ROADMAP item 6a"
)


@dataclass(frozen=True)
class PlanKey:
    """Cache key of a compiled plan.

    ``mechanism`` names the structure source (``"dfss_1:2"``-style for the
    dynamic N:M epilogue, the mechanism name for mask-based layouts),
    ``layout`` is ``"nm"`` or ``"row_block"``, and
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

    Every registry lookup happens once, at construction: the layout's fused
    forward and its backward on the key's backend.
    """

    def __init__(self, key: PlanKey) -> None:
        self.key = key
        self.fused = key.backend != REFERENCE
        backend = key.backend
        if key.layout == "nm":
            self._forward = get_kernel("nm_attention", backend)
            self._bwd = get_kernel("nm_attention_bwd", backend)
            self._pattern = resolve_pattern(key.mechanism.split("_", 1)[1])
        elif key.layout == "row_block":
            self._forward = get_kernel("row_block_attention", backend)
            self._bwd = get_kernel("row_block_attention_bwd", backend)
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

    # ------------------------------------------------------- staged (none)
    # No layout runs a staged chain any more: these three names remain only
    # because the benchmark harness wraps them by name (perfbench/workloads.py
    # CORE_STAGES).  They are deleted together with ROADMAP item 6a, which
    # moves that attribution to the kernels' trace spans.
    def compute_scores(self, *args, **kwargs):
        """No staged score pass exists; see :meth:`forward` (ROADMAP item 6a)."""
        raise ValueError(_NO_STAGES)

    def compute_probs(self, *args, **kwargs):
        """No staged softmax pass exists; see :meth:`forward` (ROADMAP item 6a)."""
        raise ValueError(_NO_STAGES)

    def contract(self, *args, **kwargs):
        """No staged contraction exists; see :meth:`forward` (ROADMAP item 6a)."""
        raise ValueError(_NO_STAGES)

    # ------------------------------------------------------------------ bwd
    def backward(
        self,
        saved,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        d_out: np.ndarray,
        scale: float,
        out: Optional[np.ndarray] = None,
        dropout: Optional[Dropout] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused backward: ``(dQ, dK, dV)`` from the forward's saved state.

        ``saved`` is what the training forward kept.  N:M plans take its
        :class:`~repro.core.nm_attention.NMStats` and run the
        ``nm_attention_bwd`` kernel, which re-scores and recomputes the
        probabilities tile by tile from the per-row statistics and the
        selection, the forward output ``out`` and the forward's ``dropout``
        (``(seed, p)``).  Row-block plans take the forward's
        :class:`~repro.core.row_block.RowBlockStats` and run
        ``row_block_attention_bwd``, which re-scores each block the same way.
        """
        operands = [guard_input(x) for x in (q, k, v, d_out, out)]
        with self._trace_labels():
            if self.key.layout == "nm":
                grads = self._bwd(
                    *operands, saved.shift, saved.denom, saved.selection,
                    pattern=self._pattern, scale=scale, dtype=self.key.dtype,
                    criterion=saved.criterion, structure=saved.structure,
                    dropout=dropout,
                )
            else:
                grads = self._bwd(
                    *operands, saved.shift, saved.denom, saved.structure, scale, dropout
                )
        return check_grads(grads, "attention gradient", inputs=(q, k, v, d_out))

    # ------------------------------------------------------------ end-to-end
    def forward(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        structure: Optional[RowBlockStructure] = None,
        scale: Optional[float] = None,
        criterion: str = "value",
        return_probs: bool = False,
        dropout: Optional[Dropout] = None,
        return_stats: bool = False,
    ):
        """The fused forward.

        N:M plans run the registered ``nm_attention`` kernel — the row-tiled
        fused forward on ``fast``, the staged reference chain on
        ``reference`` — which computes the compressed probabilities only when
        ``return_probs`` asks for them, and applies ``dropout`` (``(seed,
        p)``, see :func:`repro.core.jobs.dropout_keep`) to the
        probabilities it contracts.  Given a ``structure``, an N:M plan runs
        the blocked-ELL + N:M hybrid: each tile is one of the structure's
        key blocks, and N:M selects inside the block's keys, widened to
        whole M-groups (no ``return_probs`` then).  The training op asks for
        ``return_stats`` instead and gets ``(out, stats)``: the per-row
        softmax statistics and the selection
        (:class:`~repro.core.nm_attention.NMStats`) that :meth:`backward`
        recomputes the probabilities from.
        Row-block plans run ``row_block_attention`` over ``structure`` (a
        :class:`~repro.core.row_block.RowBlockStructure`) with the same
        ``dropout`` and ``return_stats``, and keep no probabilities.
        """
        if self.key.layout == "row_block" and (
            return_probs or not isinstance(structure, RowBlockStructure)
        ):
            raise ValueError("row-block plans run over a RowBlockStructure, keeping no P")
        operands = [guard_input(x) for x in (q, k, v)]
        with self._trace_labels():
            if self.key.layout == "nm":
                out, saved = self._forward(
                    *operands, pattern=self._pattern, scale=scale, dtype=self.key.dtype,
                    criterion=criterion, structure=structure,
                    return_probs=return_probs, dropout=dropout, return_stats=return_stats,
                )
            else:
                out, saved = self._forward(*operands, structure, scale, dropout, return_stats)
        out = check_output(out, "attention output", inputs=(q, k, v))
        return (out, saved) if return_probs or return_stats else out

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
    """Cached plan for a row-block structure: a static mask's declared one,
    or one built from a content-dependent or explicit mask."""
    key = PlanKey(
        mechanism=str(mechanism),
        layout="row_block",
        backend=resolve_backend(backend),
        dtype="float32",
        shape_class=(structure.n_q, structure.n_k, structure.max_width),
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
