"""Trainable compressed sparse attention as single-node autograd ops.

Three entry points run attention on a compressed structure, each with an
analytic backward on the stored entries only (``dV = Pᵀ dO``, ``dP`` at the
kept entries, the row-wise softmax Jacobian, then ``dQ``/``dK``):

* :func:`dfss_sparse_attention` — the N:M op.  The structure is chosen
  *dynamically* by the paper's fused SDDMM + prune epilogue, and the
  forward is the row-tiled ``nm_attention`` kernel
  (:meth:`AttentionPlan.forward <repro.core.plan.AttentionPlan.forward>`
  with ``return_stats=True``): QKᵀ, selection, softmax, dropout and
  ``@ V`` run one query-row block at a time, and the forward saves only
  each row's softmax shift and denominator (plus the selection).  The
  ``nm_attention_bwd`` kernel walks the same blocks, re-scores each and
  recomputes its probabilities on the saved selection, as FlashAttention-2
  does (https://arxiv.org/abs/2307.08691), so neither pass allocates an
  ``n²`` tensor and no probability matrix is kept between them.  Any key
  count trains: the kernels pad the key axis to whole M-groups.
* :func:`row_block_sparse_attention` — the static-mask op (local/strided,
  truncated, Longformer, BigBird).  The mechanism's cached
  :class:`~repro.core.row_block.RowBlockStructure` names, per 64-row query
  block, the keys the block reads; forward and backward run the
  ``row_block_attention`` kernels block by block, with seeded dropout
  inside each block; like the N:M op, it trains on per-row statistics.
* :func:`masked_sparse_attention` — the op the content-dependent masks
  (TopK, Reformer, Routing, Sinkhorn) and explicit boolean masks train
  through: the mask is compressed into a
  :class:`~repro.core.padded_csr.PaddedCSRMatrix`, and the staged SDDMM →
  sparse softmax → SpMM pipeline runs on the per-row variable-nnz layout.

In every case the sparsity selection is treated as a constant of the graph,
exactly as the CUDA kernels do — the pruning/masking decision is not
differentiated through.  The dense score matrix is never materialised by
autograd; the graph holds a single node per call, whose saved state is
Q, K, V, the output and what the forward kept: the per-row statistics for
the N:M and row-block layouts, the compressed probabilities for padded
CSR.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.core.blocked_ell import BlockedEllMask
from repro.core.layout import CompressedLayout, dense_positions
from repro.core.nm_attention import Dropout, NMStats
from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.patterns import resolve_pattern
from repro.core.plan import AttentionPlan, plan_for_blocks, plan_for_nm, plan_for_structure
from repro.core.row_block import RowBlockStats, RowBlockStructure
from repro.nn.autograd import Tensor
from repro.profile.tracer import phase_scope
from repro.utils.seeding import attention_dropout_keep, draw_dropout_seed


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
    saved: Union[CompressedLayout, NMStats, RowBlockStats],
    plan: AttentionPlan,
    scale: float,
    drop_keep: Optional[np.ndarray],
    name: str,
    dropout: Optional[Dropout] = None,
) -> Tensor:
    """Autograd node over a finished forward; its backward is ``plan.backward``.

    ``saved`` is what the forward kept: the compressed (pre-dropout)
    probabilities, with ``drop_keep`` the dropout keep mask over their
    lanes or ``None``, or the per-row statistics, with which the N:M and
    row-block nodes pass the forward's ``dropout`` instead of a keep mask.
    """

    def backward(out):
        def fn():
            # Tensor.backward already runs inside a bwd phase scope; the
            # explicit scope here keeps attribution correct when the closure
            # is driven directly (e.g. gradcheck harnesses).
            with phase_scope("bwd"):
                d_q, d_k, d_v = plan.backward(
                    saved, q.data, k.data, v.data, out.grad, scale,
                    drop_keep=drop_keep, out=out.data, dropout=dropout,
                )
            # the kernel's fresh gradients are adopted, not copied
            for x, grad in ((q, d_q), (k, d_k), (v, d_v)):
                x._accumulate(grad, adopt=True)

        return fn

    return q._make(out_data, (q, k, v), backward, name)


def dfss_sparse_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    pattern="2:4",
    scale: Optional[float] = None,
    backend: Optional[str] = None,
    block_mask: Optional[BlockedEllMask] = None,
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
    block_mask:
        Optional hybrid blocked-ELL coarse mask (the same argument the
        inference-path :func:`repro.core.attention.dfss_attention` takes):
        score blocks outside the mask are excluded before the N:M selection
        and carry exactly zero probability; the backward kernels already zero
        the sentinel entries of fully-masked groups.
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
        q.data, k.data, v.data, scale=scale, block_mask=block_mask,
        return_stats=True, dropout=dropout,
    )
    out = _attention_node(
        q, k, v, out_data, stats, plan, scale, None, "dfss_attention", dropout
    )
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
    """Differentiable static-mask attention on the row-block layout.

    ``structure`` is the mechanism's
    :class:`~repro.core.row_block.RowBlockStructure` for ``(n_q, n_k)``;
    every batch slice shares it.  The forward is
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
    out = _attention_node(
        q, k, v, out_data, stats, plan, scale, None, "row_block_attention", dropout
    )
    return out, stats


def masked_sparse_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: Union[np.ndarray, PaddedCSRMatrix],
    scale: Optional[float] = None,
    backend: Optional[str] = None,
    dropout_p: float = 0.0,
    dropout_rng: Optional[np.random.Generator] = None,
    training: bool = False,
    scores: Optional[PaddedCSRMatrix] = None,
) -> Tuple[Tensor, PaddedCSRMatrix]:
    """Differentiable masked attention on the compressed padded-CSR pipeline.

    The op of the content-dependent masks and of explicit boolean masks:
    instead of the fused N:M epilogue choosing the structure, an arbitrary
    boolean attention mask is compressed into a per-row variable-nnz
    :class:`~repro.core.padded_csr.PaddedCSRMatrix`, and the same kernel
    pipeline (``sddmm_csr`` → sparse softmax → SpMM, analytic backward on the
    compressed representation) runs on that structure.  The mask is treated
    as a constant of the graph — gradients flow through the surviving score
    entries only, which is exactly what the dense masked-softmax formulation
    computes, without ever materialising the dense score matrix in autograd.

    Parameters
    ----------
    q, k, v:
        ``(..., seq, d)`` Tensors sharing their leading batch shape.
    mask:
        Boolean mask over the dense score matrix — either an ndarray
        broadcastable to ``(..., seq_q, seq_k)`` or an already-compressed
        :class:`PaddedCSRMatrix` structure.  Fully masked rows receive exactly zero
        attention everywhere, matching ``F.masked_softmax``.
    scale:
        Score scale; defaults to ``1/sqrt(d)``.
    backend:
        Kernel backend for every dispatched stage ("reference" or "fast").
    dropout_p, dropout_rng, training:
        Seeded inverted dropout on the compressed probabilities, derived
        layout-independently from dense positions exactly as in
        :func:`dfss_sparse_attention` — a seeded run through this op and one
        through the dense masked oracle drop the same (row, column) entries.
    scores:
        Optional precomputed *scaled* compressed scores sharing ``mask``'s
        structure (padding lanes carrying the masked-score sentinel).
        Mechanisms that already computed the dense score matrix to choose
        their mask (Top-K) pass it here so the op skips its SDDMM instead of
        paying the score GEMM a second time.

    Returns
    -------
    ``(out, probs)`` where ``out`` is the ``(..., seq, d)`` output Tensor and
    ``probs`` the compressed (pre-dropout) probability matrix.
    """
    d = q.shape[-1]
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    scale = float(scale)
    batch_shape = q.shape[:-2]

    if isinstance(mask, PaddedCSRMatrix):
        structure = mask.broadcast_to(batch_shape)
    else:
        mask = np.asarray(mask, dtype=bool)
        seq = (q.shape[-2], k.shape[-2])
        if mask.shape[-2:] != seq:
            mask = np.broadcast_to(mask, mask.shape[:-2] + seq)
        # compress the mask as given and broadcast the *structure* over the
        # remaining batch dims — compressing an already-broadcast mask would
        # re-run the argsort on every identical leading slice
        structure = PaddedCSRMatrix.from_mask(mask).broadcast_to(batch_shape)

    plan = plan_for_structure(structure, backend=backend)
    prescored = scores is not None
    if not prescored:
        scores = plan.compute_scores(q.data, k.data, structure, scale=scale)
    elif scores.values.shape != structure.values.shape:
        raise ValueError(
            f"precomputed scores shape {scores.values.shape} does not share "
            f"the mask structure {structure.values.shape}"
        )
    # caller-provided score buffers must survive: owned=False copies once
    probs = plan.compute_probs(scores, owned=not prescored)
    dropout = _dropout(dropout_p, dropout_rng, training)
    keep = None
    if dropout is not None:
        keep = attention_dropout_keep(*dropout, dense_positions(probs))
    out_data = plan.contract(probs, v.data, drop_keep=keep)
    out = _attention_node(
        q, k, v, out_data, probs, plan, scale, keep, "masked_attention"
    )
    return out, probs
