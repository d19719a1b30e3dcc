"""Trainable compressed sparse attention as single-node autograd ops.

Two layouts carry every trainable mask, each with a fused forward that saves
only per-row softmax statistics and a backward that re-scores its tiles and
rebuilds the probabilities from them, as FlashAttention-2 does
(https://arxiv.org/abs/2307.08691), so neither pass allocates an ``n²``
tensor and no probability matrix is kept between them:

* :func:`dfss_sparse_attention` — the N:M op.  The structure is chosen
  *dynamically* by the paper's fused SDDMM + prune epilogue, and the
  forward is the row-tiled ``nm_attention`` kernel
  (:meth:`AttentionPlan.forward <repro.core.plan.AttentionPlan.forward>`
  with ``return_stats=True``): QKᵀ, selection, softmax, dropout and
  ``@ V`` run one query-row block at a time, and the forward saves each
  row's softmax shift and denominator plus the selection, which the
  ``nm_attention_bwd`` kernel walks again.  Any key count trains: the
  kernels pad the key axis to whole M-groups.  Over a row-block
  ``structure`` it selects inside the structure's key blocks only: the
  blocked-ELL + N:M hybrid (``bigbird_dfss``).
* :func:`row_block_sparse_attention` — the op of every other mask.  A
  :class:`~repro.core.row_block.RowBlockStructure` names, per 64-row query
  block, the keys the block reads: the static masks (local/strided,
  truncated, Longformer, BigBird) declare a cached one, shared by every
  batch slice; the content-dependent masks (Top-K, Reformer, Routing,
  Sinkhorn) build one per call from their mask, one block list per batch
  slice.  Forward and backward run the ``row_block_attention`` kernels
  block by block, with seeded dropout inside each block.
* :func:`masked_sparse_attention` — the explicit-mask op: an arbitrary
  boolean mask through :meth:`RowBlockStructure.from_mask
  <repro.core.row_block.RowBlockStructure.from_mask>` and the row-block op.

In every case the sparsity selection is treated as a constant of the graph,
exactly as the CUDA kernels do — the pruning/masking decision is not
differentiated through.  The graph holds a single node per call, whose
backward closure keeps the arrays of Q, K, V and the output and the
forward's per-row statistics.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.core.nm_attention import Dropout, NMStats
from repro.core.patterns import resolve_pattern
from repro.core.plan import AttentionPlan, plan_for_blocks, plan_for_nm
from repro.core.row_block import RowBlockStats, RowBlockStructure
from repro.nn.autograd import Tensor
from repro.profile.tracer import phase_scope
from repro.utils.seeding import draw_dropout_seed


def _dropout(
    dropout_p: float, dropout_rng: Optional[np.random.Generator], training: bool
) -> Optional[Dropout]:
    """``(seed, p)`` of one call's seeded attention dropout, ``None`` when off."""
    if not training or dropout_p <= 0.0:
        return None
    if dropout_p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    if dropout_rng is None:
        # dropout in this repo is deterministic under a seed (see
        # nn.layers.Dropout); an implicit unseeded generator would
        # silently break experiment reproducibility
        raise ValueError("dropout_p > 0 requires an explicit dropout_rng")
    return draw_dropout_seed(dropout_rng), float(dropout_p)


def _attention_node(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    out_data: np.ndarray,
    saved: Union[NMStats, RowBlockStats],
    plan: AttentionPlan,
    scale: float,
    name: str,
    dropout: Optional[Dropout] = None,
) -> Tensor:
    """Autograd node over a finished forward; its backward is ``plan.backward``
    on the forward's per-row statistics ``saved`` and its ``dropout``.

    The closure keeps Q's, K's and V's arrays, the output array and
    ``saved``, and accumulates into the three operands' nodes."""
    nodes = (q.node, k.node, v.node)
    arrays = (q.data, k.data, v.data)

    def backward(grad):
        # Tensor.backward already runs inside a bwd phase scope; the explicit
        # scope here keeps attribution correct when the closure is driven
        # directly (e.g. gradcheck harnesses).
        with phase_scope("bwd"):
            grads = plan.backward(
                saved, *arrays, grad, scale, out=out_data, dropout=dropout,
            )
        # the kernel's fresh gradients are adopted, not copied
        for node, g in zip(nodes, grads):
            node.accumulate(g, adopt=True)

    return Tensor._make(out_data, (q, k, v), backward, name)


def dfss_sparse_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    pattern="2:4",
    scale: Optional[float] = None,
    backend: Optional[str] = None,
    structure: Optional[RowBlockStructure] = None,
    dropout_p: float = 0.0,
    dropout_rng: Optional[np.random.Generator] = None,
    training: bool = False,
) -> Tuple[Tensor, NMStats]:
    """Differentiable DFSS attention on the compressed N:M pipeline.

    Parameters
    ----------
    q, k, v:
        ``(..., seq, d)`` Tensors sharing their leading batch shape.
    pattern:
        N:M pattern of the dynamic pruning (default 2:4).
    scale:
        Score scale; defaults to ``1/sqrt(d)``.
    backend:
        Kernel backend for every dispatched stage, forward and backward
        ("reference" or "fast"; default ``$REPRO_BACKEND``, else "fast").
    structure:
        Optional :class:`~repro.core.row_block.RowBlockStructure` for the
        hybrid blocked-ELL + N:M sparsity, as
        :func:`repro.core.attention.dfss_attention` takes it: each tile
        scores one key block, widened to whole M-groups, and the keys the
        structure does not allow carry exactly zero probability.
    dropout_p, dropout_rng, training:
        Optional inverted dropout applied to the compressed attention
        probabilities (the masked analogue of dropout on the dense attention
        weights), inside each forward tile between the softmax and ``@ V``.
        Active only when ``training`` is true and ``p > 0``, in which case
        ``dropout_rng`` (a seeded Generator) is required — dropout in this
        repo is deterministic under a seed.  The mask is derived
        layout-independently: one seed is drawn from ``dropout_rng`` per
        call and hashed with the *dense* position of each stored nonzero
        over the real key count
        (:func:`repro.core.jobs.dropout_keep`), so a seeded run
        through this op and one through
        :func:`repro.nn.functional.dense_masked_attention` drop the same
        (row, column) entries.

    Returns
    -------
    ``(out, stats)`` where ``out`` is the ``(..., seq, d)`` output Tensor and
    ``stats`` the forward's saved :class:`~repro.core.nm_attention.NMStats`:
    the per-row softmax statistics and the N:M selection, whose
    :meth:`~repro.core.nm_attention.NMStats.to_mask` gives the kept
    positions.  No probability values are kept; they are
    ``plan_for_nm(...).forward(..., return_probs=True)``'s.
    """
    pattern = resolve_pattern(pattern)
    d = q.shape[-1]
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    scale = float(scale)
    dropout = _dropout(dropout_p, dropout_rng, training)

    plan = plan_for_nm(pattern, q.shape[-2], k.shape[-2], backend=backend)
    out_data, stats = plan.forward(
        q.data, k.data, v.data, structure=structure, scale=scale,
        return_stats=True, dropout=dropout,
    )
    out = _attention_node(q, k, v, out_data, stats, plan, scale, "dfss_attention", dropout)
    return out, stats


def row_block_sparse_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    structure: RowBlockStructure,
    scale: Optional[float] = None,
    backend: Optional[str] = None,
    mechanism: str = "static",
    dropout_p: float = 0.0,
    dropout_rng: Optional[np.random.Generator] = None,
    training: bool = False,
) -> Tuple[Tensor, RowBlockStats]:
    """Differentiable masked attention on the row-block layout.

    ``structure`` is a :class:`~repro.core.row_block.RowBlockStructure` for
    ``(n_q, n_k)``: a static mechanism's, which every batch slice shares, or
    one built from a mask, whose batch shape broadcasts to the operands'.
    ``mechanism`` names the plan it runs on.  The forward is
    :meth:`AttentionPlan.forward <repro.core.plan.AttentionPlan.forward>`
    of :func:`~repro.core.plan.plan_for_blocks` with ``return_stats=True``:
    each 64-row query block scores only its keys, normalises, applies the
    seeded dropout and contracts with ``V[keys]``.  The backward re-scores
    the same blocks.  Dropout hashes dense positions exactly as in
    :func:`dfss_sparse_attention`, so the dense masked oracle drops the same
    (row, column) entries; fully masked rows get zero output and gradients.

    Returns ``(out, stats)``: the output Tensor and the forward's saved
    :class:`~repro.core.row_block.RowBlockStats`; no probabilities are kept.
    """
    scale = float(1.0 / np.sqrt(q.shape[-1]) if scale is None else scale)
    dropout = _dropout(dropout_p, dropout_rng, training)
    plan = plan_for_blocks(structure, backend=backend, mechanism=mechanism)
    out_data, stats = plan.forward(
        q.data, k.data, v.data, structure=structure, scale=scale,
        return_stats=True, dropout=dropout,
    )
    out = _attention_node(q, k, v, out_data, stats, plan, scale, "row_block_attention", dropout)
    return out, stats


def masked_sparse_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray,
    scale: Optional[float] = None,
    backend: Optional[str] = None,
    dropout_p: float = 0.0,
    dropout_rng: Optional[np.random.Generator] = None,
    training: bool = False,
) -> Tuple[Tensor, RowBlockStats]:
    """Differentiable attention under an explicit boolean mask.

    The mask becomes a :class:`~repro.core.row_block.RowBlockStructure`
    (:meth:`~repro.core.row_block.RowBlockStructure.from_mask`: per 64-row
    block of each batch slice, the keys its rows attend to) and runs through
    :func:`row_block_sparse_attention`.  The mask is a constant of the graph
    — gradients flow through the allowed score entries only, which is what
    the dense masked-softmax formulation computes.

    Parameters
    ----------
    q, k, v:
        ``(..., seq, d)`` Tensors sharing their leading batch shape.
    mask:
        Boolean mask over the dense score matrix, broadcastable to
        ``(..., seq_q, seq_k)``; a 2-D mask gives one structure every batch
        slice shares.  Fully masked rows receive exactly zero attention
        everywhere, matching ``F.masked_softmax``.
    scale:
        Score scale; defaults to ``1/sqrt(d)``.
    backend:
        Kernel backend of the forward and backward kernels.
    dropout_p, dropout_rng, training:
        Seeded inverted dropout on the attention weights, hashed on dense
        positions exactly as in :func:`dfss_sparse_attention` — a seeded run
        through this op and one through the dense masked oracle drop the same
        (row, column) entries.

    Returns
    -------
    ``(out, stats)``: the ``(..., seq, d)`` output Tensor and the forward's
    :class:`~repro.core.row_block.RowBlockStats`.
    """
    mask = np.asarray(mask, dtype=bool)
    seq = (q.shape[-2], k.shape[-2])
    if mask.shape[-2:] != seq:
        mask = np.broadcast_to(mask, mask.shape[:-2] + seq)
    return row_block_sparse_attention(
        q, k, v, RowBlockStructure.from_mask(mask), scale=scale, backend=backend,
        mechanism="masked", dropout_p=dropout_p, dropout_rng=dropout_rng, training=training,
    )
