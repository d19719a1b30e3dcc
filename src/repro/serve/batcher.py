"""Request preparation and coalescing for the serving engine.

A :class:`~repro.serve.engine.ServeRequest` carries ``(..., seq, d)`` tensors
with arbitrary leading dimensions (heads, beams).  Preparation flattens the
leading dimensions into ``(segments, seq, d)`` stacks and picks the route its
batch runs it on, each an :class:`~repro.core.plan.AttentionPlan` call:

* **N:M (DFSS)** — no structure at all: the plan selects the N:M lanes from
  the scores as it computes them, so the request pays no per-request mask or
  compression.  Requests with the same pattern, dtype and
  geometry are stacked into one :func:`~repro.core.plan.plan_for_nm` call.
* **Static masks** — the row-block structure
  (:class:`~repro.core.row_block.RowBlockStructure`) depends only on
  (config, lengths), so it is built once from the mechanism's key ranges and
  cached in the :class:`~repro.serve.cache.StructureCache`; requests sharing
  it are stacked into one :func:`~repro.core.plan.plan_for_blocks` call,
  whose kernel runs every stacked segment over the one batch-independent
  structure.
* **Content-dependent masks** — the request's own row-block structure,
  built at enqueue time by the mechanism
  (:meth:`~repro.baselines.base.AttentionMechanism.mask_structure`: one
  block list per segment), then one :func:`~repro.core.plan.plan_for_blocks`
  call per request.
* **Explicit ``mask=``** — the same, with the structure built by one
  :meth:`~repro.core.row_block.RowBlockStructure.from_mask` of the mask
  (one shared block list for a 2-D mask).

Each mechanism route is the plan ``AttentionEngine(mechanism)(q, k, v)``
runs, and every fast kernel is independent per leading slice, so a
request's output is bitwise identical whether it is served alone, stacked
with others, or run through its engine.
Requests whose mechanism is not ``batchable`` never reach this path; the
server executes them one by one through their
:class:`~repro.engine.AttentionEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import plan_for_blocks, plan_for_nm
from repro.core.row_block import RowBlockStructure
from repro.registry import DfssConfig
from repro.serve.cache import StructureCache

__all__ = [
    "PreparedRequest",
    "structure_cache_key",
    "prepare_request",
    "run_ragged_batch",
]


@dataclass
class PreparedRequest:
    """A request decomposed for execution: stacked tensors, route, cache accounting."""

    request: "object"  # ServeRequest; untyped to avoid the circular import
    mechanism: str
    batchable: bool
    #: ``(segments, seq, ·)`` views of the request tensors (batchable only).
    q3: Optional[np.ndarray] = None
    k3: Optional[np.ndarray] = None
    v3: Optional[np.ndarray] = None
    #: the cached row-block structure of a static mask, or the row-block
    #: structure of this request's own mask.
    structure: Optional[RowBlockStructure] = None
    #: the N:M route's mechanism (its pattern and dtype).
    nm: Optional[object] = None
    #: True/False for static-mask mechanisms (did the structure cache hit),
    #: None when no cache lookup happened.
    cache_hit: Optional[bool] = None
    #: fallback engine for non-batchable requests.
    engine: Optional[object] = None

    def group_key(self) -> Hashable:
        """Requests with equal keys run stacked in one plan call."""
        shape = (self.q3.shape[1:], self.k3.shape[1], self.v3.shape[-1])
        if self.nm is not None:
            nm = self.nm
            return ("nm", nm.pattern, nm.dtype) + shape
        return ("structure", id(self.structure)) + shape


def structure_cache_key(
    mechanism: str, config, n_q: int, n_k: int
) -> Tuple[Hashable, ...]:
    """Cache key of a static mask: mechanism, full config, sequence lengths.

    Config values are keyed by ``repr`` so unhashable members cannot poison
    the key; two configs with equal reprs build identical masks for static
    mechanisms.
    """
    described = config.describe()
    return (
        mechanism,
        tuple(sorted((name, repr(value)) for name, value in described.items())),
        n_q,
        n_k,
    )


def _flatten(request) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reshape the request tensors to ``(n_segments, seq, d)``."""
    q, k, v = request.q, request.k, request.v
    n_seg = int(np.prod(q.shape[:-2], dtype=np.int64))
    return (
        q.reshape(n_seg, *q.shape[-2:]),
        k.reshape(n_seg, *k.shape[-2:]),
        v.reshape(n_seg, *v.shape[-2:]),
    )


def _own_structure(mask, lead: Tuple[int, ...], n_q: int, n_k: int) -> RowBlockStructure:
    """The row-block structure of a request's own mask: one block list every
    segment shares for a 2-D mask, else one per segment."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim > 2:
        mask = np.broadcast_to(mask, lead + (n_q, n_k)).reshape(-1, n_q, n_k)
    return RowBlockStructure.from_mask(mask)


def prepare_request(request, engine, cache: StructureCache) -> PreparedRequest:
    """Flatten one request and pick its route, resolving structures via ``cache``.

    ``engine`` is the request's :class:`~repro.engine.AttentionEngine` (or
    ``None`` when the request carries an explicit ``mask``, which bypasses the
    mechanism registry entirely).  Structure resolution happens here — at
    enqueue time — so the deadline scheduler's flush is pure kernel work.
    """
    if request.mask is not None:
        q3, k3, v3 = _flatten(request)
        n_q, n_k = q3.shape[1], k3.shape[1]
        if np.shape(request.mask)[-2:] != (n_q, n_k):
            raise ValueError(
                f"mask trailing shape {np.shape(request.mask)[-2:]} != ({n_q}, {n_k})"
            )
        structure = _own_structure(request.mask, request.q.shape[:-2], n_q, n_k)
        return PreparedRequest(request, "mask", True, q3, k3, v3, structure=structure)

    spec = engine.spec
    if not spec.batchable:
        return PreparedRequest(request, spec.name, False, engine=engine)

    q3, k3, v3 = _flatten(request)
    prepared = PreparedRequest(request, spec.name, True, q3, k3, v3)
    if isinstance(engine.config, DfssConfig):
        prepared.nm = engine.mechanism()
    elif spec.static_mask:
        key = structure_cache_key(spec.name, engine.config, q3.shape[1], k3.shape[1])
        prepared.cache_hit = key in cache
        # the structure depends only on (config, lengths) and serves every
        # segment of every request with this key
        prepared.structure = cache.get(
            key,
            lambda: engine.mechanism().block_structure(q3.shape[1], k3.shape[1]),
        )
    else:
        prepared.structure = engine.mechanism().mask_structure(q3, k3)
    return prepared


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    """A group's segments on one leading axis; a lone request's own view is not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def run_ragged_batch(
    prepared: Sequence[PreparedRequest], backend: Optional[str] = None
) -> List[np.ndarray]:
    """Execute batchable prepared requests; one output per request.

    Requests are grouped by :meth:`PreparedRequest.group_key`; each group's
    segments are stacked and run by one plan call on ``backend`` (default:
    the ambient backend), and each output is reshaped back to its request's
    leading dimensions.
    """
    groups: Dict[Hashable, List[int]] = {}
    for index, p in enumerate(prepared):
        groups.setdefault(p.group_key(), []).append(index)

    outputs: List[Optional[np.ndarray]] = [None] * len(prepared)
    for members in groups.values():
        stack = [prepared[i] for i in members]
        q3, k3, v3 = (_concat([getattr(p, name) for p in stack]) for name in ("q3", "k3", "v3"))
        first = stack[0]
        if first.nm is not None:
            nm = first.nm
            plan = plan_for_nm(
                nm.pattern, q3.shape[1], k3.shape[1], backend=backend, dtype=nm.dtype
            )
            out3 = plan.forward(q3, k3, v3)
        else:
            structure = first.structure
            plan = plan_for_blocks(structure, backend=backend, mechanism=first.mechanism)
            out3 = plan.forward(q3, k3, v3, structure=structure)
        start = 0
        for i, p in zip(members, stack):
            stop = start + p.q3.shape[0]
            outputs[i] = out3[start:stop].reshape(p.request.q.shape[:-1] + out3.shape[-1:])
            start = stop
    return outputs
