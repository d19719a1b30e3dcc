"""Trainable compressed sparse attention as single-node autograd ops.

Two entry points share one compressed pipeline (SDDMM into a compressed
structure → sparse softmax → SpMM forward; the analytic backward of
:mod:`repro.core.attention_grad` on the compressed representation — ``dV =
Pᵀ dO``, masked SDDMM for ``dP``, the row-wise softmax Jacobian on compressed
rows, then ``dQ``/``dK`` via SpMM and its transpose):

* :func:`dfss_sparse_attention` — the N:M specialisation: the structure is
  chosen *dynamically* by the fused SDDMM + prune epilogue
  (:class:`~repro.core.sparse.NMSparseMatrix`), exactly the paper's kernel;
* :func:`masked_sparse_attention` — the layout-generic op every mask-based
  mechanism (TopK, local/strided, Longformer, BigBird, Reformer, Routing,
  Sinkhorn, …) trains through: an arbitrary boolean mask is compressed into
  a :class:`~repro.core.padded_csr.PaddedCSRMatrix` and the same kernels run
  on the per-row variable-nnz layout.

In both cases the sparsity selection is treated as a constant of the graph,
exactly as the CUDA kernels do — the pruning/masking decision is not
differentiated through.  The dense score matrix is never materialised by
autograd; the graph holds a single node whose saved state is the compressed
probability matrix.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.core.backend import REFERENCE
from repro.core.blocked_ell import BlockedEllMask
from repro.core.layout import CompressedLayout, dense_positions
from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.patterns import resolve_pattern
from repro.core.plan import AttentionPlan, plan_for_nm, plan_for_structure
from repro.core.sparse import NMSparseMatrix
from repro.nn.autograd import Tensor
from repro.profile.tracer import phase_scope
from repro.utils.seeding import attention_dropout_keep, draw_dropout_seed


def _compressed_attention_node(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    probs: CompressedLayout,
    plan: AttentionPlan,
    scale: float,
    dropout_p: float,
    dropout_rng: Optional[np.random.Generator],
    training: bool,
    name: str,
) -> Tensor:
    """Finish the pipeline from compressed probabilities: dropout, SpMM, backward.

    This is the layout-independent half shared by the N:M and padded-CSR
    ops; ``probs`` is the compressed (pre-dropout) probability matrix.  The
    SpMM and the backward dispatch through ``plan``'s pre-resolved kernels.
    """
    if plan.key.backend != REFERENCE:
        # one metadata walk per step: the forward SpMM and the backward
        # kernels share the scattered tile (the reference loops never use it)
        probs.to_scattered(cache=True)

    drop_keep: Optional[np.ndarray] = None
    if training and dropout_p > 0.0:
        if dropout_p >= 1.0:
            raise ValueError("dropout probability must be < 1")
        if dropout_rng is None:
            # dropout in this repo is deterministic under a seed (see
            # nn.layers.Dropout); an implicit unseeded generator would
            # silently break experiment reproducibility
            raise ValueError("dropout_p > 0 requires an explicit dropout_rng")
        drop_keep = attention_dropout_keep(
            draw_dropout_seed(dropout_rng), dropout_p, dense_positions(probs)
        )
    out_data = plan.contract(probs, v.data, drop_keep=drop_keep)

    def backward(out):
        def fn():
            # Tensor.backward already runs inside a bwd phase scope; the
            # explicit scope here keeps attribution correct when the closure
            # is driven directly (e.g. gradcheck harnesses).
            with phase_scope("bwd"):
                d_q, d_k, d_v = plan.backward(
                    probs, q.data, k.data, v.data, out.grad, scale,
                    drop_keep=drop_keep, out=out.data,
                )
            if q.requires_grad:
                q._accumulate(d_q)
            if k.requires_grad:
                k._accumulate(d_k)
            if v.requires_grad:
                v._accumulate(d_v)

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
) -> Tuple[Tensor, NMSparseMatrix]:
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
        weights).  Active only when ``training`` is true and ``p > 0``, in
        which case ``dropout_rng`` (a seeded Generator) is required —
        dropout in this repo is deterministic under a seed.  The mask is
        derived layout-independently: one seed is drawn from ``dropout_rng``
        per call and hashed with the *dense* position of each stored nonzero
        (:func:`repro.utils.seeding.attention_dropout_keep`), so a seeded run
        through this op and one through the dense escape hatch drop the same
        (row, column) entries.

    Returns
    -------
    ``(out, probs)`` where ``out`` is the ``(..., seq, d)`` output Tensor and
    ``probs`` the compressed (pre-dropout) probability matrix, useful for
    mask/weight introspection.
    """
    pattern = resolve_pattern(pattern)
    d = q.shape[-1]
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    scale = float(scale)

    plan = plan_for_nm(pattern, q.shape[-2], k.shape[-2], backend=backend)
    scores = plan.compute_scores(q.data, k.data, scale=scale, block_mask=block_mask)
    probs = plan.compute_probs(scores)
    out = _compressed_attention_node(
        q, k, v, probs, plan, scale,
        dropout_p, dropout_rng, training, "dfss_attention",
    )
    return out, probs


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

    The layout-generic sibling of :func:`dfss_sparse_attention`: instead of
    the fused N:M epilogue choosing the structure, an arbitrary boolean
    attention mask is compressed into a per-row variable-nnz
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
        :class:`PaddedCSRMatrix` structure (mechanisms with static masks
        compress once and reuse).  Fully masked rows receive exactly zero
        attention everywhere, matching ``F.masked_softmax``.
    scale:
        Score scale; defaults to ``1/sqrt(d)``.
    backend:
        Kernel backend for every dispatched stage ("reference" or "fast").
    dropout_p, dropout_rng, training:
        Seeded inverted dropout on the compressed probabilities, derived
        layout-independently from dense positions exactly as in
        :func:`dfss_sparse_attention` — a seeded run through this op and one
        through the dense masked path drop the same (row, column) entries.
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
    out = _compressed_attention_node(
        q, k, v, probs, plan, scale,
        dropout_p, dropout_rng, training, "masked_attention",
    )
    return out, probs
