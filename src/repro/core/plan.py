"""Compiled plan/execute layer: one fused sddmm → masked-softmax → spmm pass.

The paper's pipeline wins only when the whole chain — score computation,
masked softmax, and the value contraction — runs on the compressed
representation without materialising dense intermediates.  Executing the
chain as three separately-dispatched registry kernels pays the dispatch and
an extra full-size probability tensor between every pair of stages.  This
module compiles the chain once instead:

* :class:`PlanKey` — the cache key: (mechanism, layout, backend, dtype,
  shape-class).  Everything that changes which kernels run or how buffers are
  sized, and nothing that doesn't (batch shape is deliberately absent — one
  plan serves every batch of the same per-slice geometry).
* :class:`AttentionPlan` — the compiled object: every registry lookup is
  resolved at construction, the forward runs sddmm → softmax → spmm in a
  single pass that reuses the score buffer as the probability buffer (the
  intermediate dense score tensor is never materialised — scores live only in
  the compressed value array, which the softmax overwrites in place), and the
  matching fused backward dispatches straight into the resolved
  ``attention_bwd`` kernel.
* :func:`plan_for_nm` / :func:`plan_for_structure` — the cached constructors
  every layer shares: the autograd ops, ``engine.AttentionEngine``, the
  serving executor, and the bench runner.

Backends provide plans through :func:`~repro.core.backend.register_plan_builder`
(the seam the multicore backend plugs into): ``fast`` builds fused plans,
``reference`` builds plans that dispatch the ordinary registry kernels stage
by stage and act as the parity oracle.

Bitwise parity between the two is by construction, not by accident: the
fused plan calls the *same* registered kernel functions and the same softmax
core (:func:`~repro.core.softmax.masked_softmax_values`) as the registry
kernels; it differs only in pre-resolved dispatch and in-place buffer reuse,
both of which are bit-exact transformations.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import ContextManager, Dict, Optional, Tuple

import numpy as np

from repro.analysis.sanitize import check_grads, check_output, guard_input
from repro.core.backend import (
    FAST,
    REFERENCE,
    get_kernel,
    get_plan_builder,
    register_plan_builder,
    resolve_backend,
)
from repro.core.patterns import resolve_pattern
from repro.core.plan_cache import PlanCache
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
    ``layout`` is ``"nm"`` or ``"csr"``, and ``shape_class`` is the
    batch-agnostic per-slice geometry ``(rows, dense_cols, lane_width)`` —
    one plan serves every batch shape over the same geometry.
    """

    mechanism: str
    layout: str
    backend: str
    dtype: str
    shape_class: Tuple[int, int, int]


class AttentionPlan:
    """A compiled sddmm → masked-softmax → spmm chain with fused backward.

    Every registry lookup happens once, at construction.  ``fused=True``
    (the fast builder) runs the softmax in place on the compressed score
    buffer — the probabilities overwrite the scores, so no intermediate
    tensor is ever allocated between the stages; ``fused=False`` (the
    reference builder) dispatches the registered per-stage kernels and is
    the oracle the parity suite compares against.
    """

    def __init__(self, key: PlanKey, fused: bool) -> None:
        self.key = key
        self.fused = fused
        backend = key.backend
        if key.layout == "nm":
            self._sddmm = get_kernel("sddmm_nm", backend)
            self._pattern = resolve_pattern(key.mechanism.split("_", 1)[1])
        elif key.layout == "csr":
            self._sddmm = get_kernel("sddmm_csr", backend)
            self._pattern = None
        else:
            raise ValueError(f"unknown plan layout {key.layout!r}")
        self._softmax = get_kernel("masked_softmax", backend)
        self._spmm = get_kernel("spmm", backend)
        self._bwd = get_kernel("attention_bwd", backend)

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

    # ------------------------------------------------------------------ fwd
    def compute_scores(
        self,
        q: np.ndarray,
        k: np.ndarray,
        structure=None,
        scale: Optional[float] = None,
        criterion: str = "value",
        block_mask=None,
    ):
        """Stage 1: compressed scores (fused SDDMM + prune, or masked SDDMM)."""
        q = guard_input(q)
        k = guard_input(k)
        with self._trace_labels():
            if self.key.layout == "nm":
                return self._sddmm(
                    q,
                    k,
                    pattern=self._pattern,
                    scale=scale,
                    dtype=self.key.dtype,
                    criterion=criterion,
                    block_mask=block_mask,
                )
            if structure is None:
                raise ValueError(
                    "csr plans need the compressed structure to score into"
                )
            return self._sddmm(q, k, structure, scale=scale)

    def compute_probs(self, scores, owned: bool = True):
        """Stage 2: masked softmax over the stored nonzeros.

        Fused plans normalise *in place*, reusing the score value buffer as
        the probability buffer; pass ``owned=False`` when the caller still
        needs the score values (e.g. precomputed Top-K scores), in which case
        exactly one copy is taken first.  Bitwise-identical to the registry
        softmax kernel either way — same core, different buffer.
        """
        if not self.fused:
            with self._trace_labels():
                return self._softmax(scores)
        buf = scores.values
        if not owned or not buf.flags.writeable or not buf.flags.c_contiguous:
            buf = np.array(buf, dtype=np.float32)
        valid = scores.valid_lanes()
        lengths = None if valid is None else scores.row_lengths()
        tracer = current_tracer()
        # The fused path bypasses registry dispatch (it calls the softmax core
        # directly), so the kernel span the wrapper would have emitted is
        # emitted by hand here.
        span = (
            nullcontext()
            if tracer is None
            else tracer.span(
                "masked_softmax",
                backend=self.key.backend,
                shape="x".join(str(d) for d in buf.shape),
            )
        )
        with self._trace_labels(), span:
            # repro: owns-buffer — fused plan reuses the score buffer it owns (or just copied)
            masked_softmax_values(buf, valid, lengths, out=buf)
        return scores.with_values(buf)

    def contract(
        self,
        probs,
        v: np.ndarray,
        drop_keep: Optional[np.ndarray] = None,
        save_scatter: bool = False,
    ) -> np.ndarray:
        """Stage 3: the value contraction ``P @ V`` (after optional dropout).

        ``save_scatter=True`` caches the scattered dense probability tile on
        the layout so the fused backward reuses it — one metadata walk per
        training step.
        """
        if save_scatter:
            probs.to_scattered(cache=True)
        applied = (
            probs if drop_keep is None else probs.with_values(probs.values * drop_keep)
        )
        with self._trace_labels():
            return check_output(
                self._spmm(applied, guard_input(v)), "attention output"
            )

    # ------------------------------------------------------------------ bwd
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
        """Fused backward: ``(dQ, dK, dV)`` via the resolved ``attention_bwd``."""
        with self._trace_labels():
            grads = self._bwd(
                probs,
                guard_input(q),
                guard_input(k),
                guard_input(v),
                guard_input(d_out),
                scale,
                drop_keep,
                guard_input(out),
            )
        return check_grads(grads, "attention gradient")

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
    ):
        """Single-pass fused forward over the whole chain."""
        scores = self.compute_scores(
            q, k, structure=structure, scale=scale,
            criterion=criterion, block_mask=block_mask,
        )
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


@register_plan_builder(FAST)
def _build_fast_plan(key: PlanKey) -> AttentionPlan:
    """Fast backend: fused single-pass plan with in-place softmax."""
    return AttentionPlan(key, fused=True)


@register_plan_builder(REFERENCE)
def _build_reference_plan(key: PlanKey) -> AttentionPlan:
    """Reference backend: per-stage plan dispatching the loop-oracle kernels."""
    return AttentionPlan(key, fused=False)


# --------------------------------------------------------------------- cache
_PLAN_CACHE_MAX = 64


def build_plan(key: PlanKey) -> AttentionPlan:
    """Compile a plan for ``key`` via its backend's registered builder (uncached)."""
    return get_plan_builder(key.backend)(key)


#: Process-wide LRU of compiled plans (see :class:`repro.core.plan_cache.PlanCache`).
PLAN_CACHE: PlanCache[PlanKey, AttentionPlan] = PlanCache(
    build_plan, max_entries=_PLAN_CACHE_MAX
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
    """Cached plan for the dynamic N:M pipeline on a given per-slice geometry."""
    pattern = resolve_pattern(pattern)
    key = PlanKey(
        mechanism=f"dfss_{pattern.name}",
        layout="nm",
        backend=resolve_backend(backend),
        dtype=dtype,
        shape_class=(int(rows), int(dense_cols), pattern.kept(int(dense_cols))),
    )
    return get_plan(key)


def plan_for_structure(
    structure,
    backend: Optional[str] = None,
    mechanism: str = "masked",
    dtype: str = "float32",
) -> AttentionPlan:
    """Cached plan for a mask-based compressed structure (padded CSR)."""
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
