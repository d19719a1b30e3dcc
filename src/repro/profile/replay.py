"""Replay simulator: schedule a recorded op DAG under hypothetical costs.

Given the DAG of :mod:`repro.profile.dag`, the replayer runs a list
scheduler: every node starts when all of its predecessors have finished
(plus the recorded host gap on each edge), and the predicted step time is

    ``lead + make-span(DAG) + tail``

With the recorded costs this reconstructs the measured step wall time
exactly — the self-check behind the <10% acceptance gate in CI — and any
deviation under substituted costs is then attributable to the substitution
alone:

* ``cost_fn`` maps a node to a hypothetical duration in µs (return ``None``
  to keep the measured duration) — e.g. :func:`gpusim_cost_fn` replaces each
  kernel's measured time with the analytical A100 roofline latency of
  :mod:`repro.gpusim`, turning a CPU-recorded DAG into a GPU step-time
  prediction;
* ``phase_scale`` / ``kernel_scale`` scale the (possibly substituted) costs
  of a phase (``{"bwd": 0.5}`` — "what if the backward were twice as fast?")
  or of a named kernel (``{"nm_attention": 0.0}`` — "what if the N:M
  forward were free?").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.profile.dag import OpDag, OpNode, build_dag, critical_path

__all__ = ["ReplayResult", "replay", "gpusim_cost_fn"]

CostFn = Callable[[OpNode], Optional[float]]


@dataclass
class ReplayResult:
    """Outcome of one scheduled replay."""

    predicted_us: float
    #: recorded step wall time (None when the trace holds no step span).
    measured_us: Optional[float]
    makespan_us: float
    lead_us: float
    tail_us: float
    #: per-node hypothetical durations, by node index.
    cost_us: Dict[int, float] = field(default_factory=dict)
    #: node indices of the predicted critical path, in execution order.
    path: List[int] = field(default_factory=list)
    #: critical-path length (µs) under the hypothetical costs.
    path_us: float = 0.0

    @property
    def rel_error(self) -> Optional[float]:
        """|predicted − measured| / measured — the replay self-check metric."""
        if self.measured_us is None or self.measured_us <= 0.0:
            return None
        return abs(self.predicted_us - self.measured_us) / self.measured_us


def replay(
    dag: Union[OpDag, str, Mapping],
    cost_fn: Optional[CostFn] = None,
    phase_scale: Optional[Mapping[str, float]] = None,
    kernel_scale: Optional[Mapping[str, float]] = None,
) -> ReplayResult:
    """Schedule ``dag`` under hypothetical costs and predict the step time.

    ``dag`` may be an :class:`OpDag`, a trace path, or a trace payload dict.
    With no overrides the prediction equals the recorded step wall time —
    run that configuration first as a self-check before trusting any
    counterfactual.
    """
    if not isinstance(dag, OpDag):
        dag = build_dag(dag)

    cost_us: Dict[int, float] = {}
    for node in dag.nodes:
        dur = None if cost_fn is None else cost_fn(node)
        dur = node.dur_us if dur is None else float(dur)
        if phase_scale:
            dur *= float(phase_scale.get(node.phase, 1.0))
        if kernel_scale:
            dur *= float(kernel_scale.get(node.name, 1.0))
        cost_us[node.index] = dur

    incoming = dag.predecessors()
    finish: Dict[int, float] = {}
    for node in dag.nodes:  # indices are topological
        start = 0.0
        for u, gap in incoming[node.index]:
            start = max(start, finish[u] + gap)
        finish[node.index] = start + cost_us[node.index]
    makespan = max(finish.values()) if finish else 0.0
    path_us, path = critical_path(dag, cost_us)

    predicted = dag.lead_us + makespan + dag.tail_us
    return ReplayResult(
        predicted_us=predicted,
        measured_us=dag.measured_us,
        makespan_us=makespan,
        lead_us=dag.lead_us,
        tail_us=dag.tail_us,
        cost_us=cost_us,
        path=path,
        path_us=path_us,
    )


def _parse_shape(node: OpNode) -> Optional[Tuple[int, ...]]:
    shape = node.args.get("shape")
    if not isinstance(shape, str):
        return None
    try:
        return tuple(int(part) for part in shape.split("x"))
    except ValueError:
        return None


def _bhld(shape: Tuple[int, ...]) -> Optional[Tuple[int, int, int]]:
    """Collapse leading batch dims of a ``(..., L, D)`` shape to ``(b, L, D)``."""
    if len(shape) < 2:
        return None
    batch = 1
    for dim in shape[:-2]:
        batch *= dim
    return batch, shape[-2], shape[-1]


def _parse_tile(node: OpNode) -> Optional[Tuple[int, int, int]]:
    """``(tiles, rows, width)`` from a tiled kernel's span arguments: the
    tile count and the largest tile."""
    tiles, shape = node.args.get("tiles"), node.args.get("tile_shape")
    if not isinstance(tiles, int) or not isinstance(shape, str):
        return None
    try:
        rows, width = (int(part) for part in shape.split("x"))
    except ValueError:
        return None
    return tiles, rows, width


def gpusim_cost_fn(device=None, dtype: str = "float32") -> CostFn:
    """Cost function replacing measured kernel times with gpusim latencies.

    Each node's problem size is recovered from the ``shape`` its tracing
    wrapper recorded (the first array-like argument of the kernel call: Q for
    the fused N:M and row-block kernels), and its work from the query-key
    ``pairs`` its tiles score: the N:M kernels at ``pairs / (batch · n_q)``
    keys per row (the padded key count, or the mean group-widened block
    width over a structure), the row-block kernels from ``pairs`` with the
    tile count and largest tile.  Kernels without an analytical model keep
    their measured durations, so hybrid traces still replay.
    """
    from repro.gpusim import AMPERE_A100, ops

    dev = AMPERE_A100 if device is None else device

    def cost(node: OpNode) -> Optional[float]:
        parsed = _parse_shape(node)
        if parsed is None:
            return None
        dims = _bhld(parsed)
        if dims is None:
            return None
        b, rows, last = dims
        pairs = node.args.get("pairs")
        if node.name in ("nm_attention", "nm_attention_bwd"):
            # shape is Q: (..., n_q, D); each row scores pairs / (b · n_q)
            # keys on average (n_q keys without the count)
            n_k = pairs / (b * rows) if isinstance(pairs, int) and b * rows else rows
            if node.name == "nm_attention":
                # the fused forward is the three forward kernels back to back
                kernels = [
                    ops.sddmm_nm_fused(b, rows, n_k, last, dtype),
                    ops.softmax_sparse_nm(b, rows, n_k, dtype),
                    ops.spmm_nm(b, rows, n_k, last, dtype),
                ]
            else:
                # the recomputing backward re-scores, re-selects and
                # recomputes P ahead of the five backward kernels
                kernels = ops.nm_attention_bwd_ops(b, rows, n_k, last, dtype)
            sec = ops.total_latency(kernels, dev)
        elif node.name in ("row_block_attention", "row_block_attention_bwd"):
            # shape is Q: (..., L, D); the span's pair count prices the block
            # products, its tile count and largest tile their tiling
            tile = _parse_tile(node)
            if tile is None or not isinstance(pairs, int):
                return None
            tiles, tile_rows, width = tile
            # the recomputing backward re-scores and rebuilds P ahead of
            # its five block products
            backward = node.name == "row_block_attention_bwd"
            sec = ops.total_latency(
                ops.row_block_attention_ops(tiles, tile_rows, width, pairs, last, dtype, backward),
                dev,
            )
        else:
            return None
        return sec * 1e6

    return cost
