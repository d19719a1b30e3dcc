"""Trainable multi-head self-attention with pluggable attention mechanisms.

This is the layer the accuracy experiments swap mechanisms inside: the same
projection weights can be evaluated (or finetuned) under full attention,
DFSS 1:2 / 2:4, and every baseline of Table 4.  Mechanisms come in two
flavours:

* *mask-based* — a boolean mask over the dense score matrix is computed from
  the (detached) scores or from the sequence structure, and attention is a
  masked softmax.  DFSS, Top-K, local/strided/Longformer/BigBird, Reformer
  (LSH buckets), Routing (k-means clusters) and Sinkhorn (block matching)
  fall in this class.  The mask itself is treated as a constant of the graph,
  exactly as the paper's kernel does (the N:M selection is not differentiated
  through).  Every mask-based core dispatches the whole trainable
  computation — forward and backward — through a compressed sparse op of
  :mod:`repro.nn.sparse_attention` by default: DFSS through the N:M layout
  (:func:`dfss_sparse_attention`), every other mask through the padded-CSR
  layout (:func:`masked_sparse_attention`).  The dense masked-softmax
  formulation remains available on all of them as the ``path="dense"``
  parity oracle.
* *kernel / low-rank* — the attention output is computed through a different
  differentiable computation graph: Linformer, Linear Transformer, Performer,
  Nyströmformer and the DFSS + Nyströmformer combination.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

import repro.baselines  # noqa: F401  populate the mechanism registry first
from repro.baselines.fixed import local_window_mask, strided_mask, truncated_mask
from repro.baselines.longformer import longformer_mask
from repro.baselines.reformer import ReformerAttention
from repro.baselines.routing import RoutingTransformerAttention
from repro.baselines.sinkhorn import SinkhornAttention
from repro.core.backend import get_kernel
from repro.core.blocked_ell import BlockedEllMask, bigbird_mask
from repro.core.lottery import topk_mask
from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.patterns import resolve_pattern
from repro.core.pruning import global_column_indices
from repro.core.sddmm import MASKED_SCORE
from repro.nn import functional as F
from repro.nn.autograd import Tensor
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.sparse_attention import dfss_sparse_attention, masked_sparse_attention
from repro.registry import _check_path, make_core, register_mechanism
from repro.utils.seeding import attention_dropout_keep, draw_dropout_seed, new_rng


# --------------------------------------------------------------------- cores
class AttentionCore:
    """Strategy object mapping per-head (q, k, v) Tensors to the attention output."""

    name = "core"

    #: Dropout module applied to the attention probabilities (not the output);
    #: attached by :class:`MultiHeadSelfAttention`, ``None`` for bare cores.
    attn_dropout: Optional[Dropout] = None

    #: True for cores that consume ``attn_dropout`` themselves (on their
    #: probability matrix).  Kernel/low-rank cores have no probability matrix;
    #: for those the layer applies ``attn_dropout`` to the core output instead,
    #: so ``dropout=`` regularises every mechanism.
    handles_prob_dropout = False

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        raise NotImplementedError

    def _apply_prob_dropout(self, weights: Tensor) -> Tensor:
        drop = self.attn_dropout
        return drop(weights) if drop is not None else weights

    # mask-based cores also expose their mask for analysis
    def last_mask(self) -> Optional[np.ndarray]:
        return getattr(self, "_last_mask", None)


@register_mechanism("full", role="core")
class FullCore(AttentionCore):
    name = "full"

    handles_prob_dropout = True

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        d = q.shape[-1]
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d))
        weights = self._apply_prob_dropout(F.softmax(scores, axis=-1))
        return weights @ v


def _nm_selection_mask(
    indices: np.ndarray, pattern, dense_cols: int
) -> np.ndarray:
    """Dense boolean mask of an N:M selection from its compressed metadata."""
    cols = global_column_indices(indices, pattern, dense_cols)
    mask = np.zeros(indices.shape[:-1] + (dense_cols,), dtype=bool)
    np.put_along_axis(mask, cols, True, axis=-1)
    return mask


def _positional_prob_dropout(drop, weights: Tensor) -> Tensor:
    """Seeded attention dropout on dense weights, layout-independently derived.

    Hashes the dense position of every weight with a per-call seed instead of
    consuming a layout-shaped stream from the generator, so a compressed-path
    run can reproduce the identical keep mask on its compressed
    representation (see :func:`repro.utils.seeding.attention_dropout_keep`).
    """
    if drop is None or not drop.training or drop.p <= 0.0:
        return weights
    seed = draw_dropout_seed(drop.rng)
    positions = np.arange(weights.data.size, dtype=np.uint64).reshape(weights.shape)
    return weights * Tensor(attention_dropout_keep(seed, drop.p, positions))


class MaskedScoreCore(AttentionCore):
    """Shared implementation for all mask-based mechanisms.

    By default (``path="sparse"``) the trainable computation runs through the
    compressed padded-CSR autograd op
    (:func:`repro.nn.sparse_attention.masked_sparse_attention`): the boolean
    mask is derived outside the graph (from the detached scores when the
    mechanism needs them, from the sequence structure otherwise), compressed
    into a :class:`~repro.core.padded_csr.PaddedCSRMatrix`, and forward +
    backward run on the compressed representation.  ``path="dense"`` is the
    escape hatch used for parity testing: the score matrix is materialised
    densely and autograd differentiates a masked softmax.  Both paths treat
    the mask as a constant of the graph.

    Attention dropout is derived layout-independently on both paths: one
    seed per forward call, hashed with the *dense* position of every
    attention weight (:func:`repro.utils.seeding.attention_dropout_keep`),
    so seeded ``path="sparse"`` and ``path="dense"`` runs drop the same
    (row, column) entries and stay comparable under ``dropout > 0``.
    """

    handles_prob_dropout = True

    PATHS = ("sparse", "dense")

    #: whether :meth:`_mask` reads the score matrix (Top-K, DFSS) or only the
    #: sequence structure / detached Q and K (static and clustering masks) —
    #: the sparse path skips the detached score GEMM when it can.
    mask_needs_scores = True

    def __init__(self, backend: Optional[str] = None, path: str = "sparse"):
        _check_path(path)
        self.backend = backend
        self.path = path

    def _mask(self, scores: Optional[np.ndarray], q: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Boolean mask over the dense score matrix.

        ``scores`` is ``None`` on the sparse path when
        ``mask_needs_scores`` is ``False``.
        """
        raise NotImplementedError

    def _detached_scores(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        scale = np.float32(1.0 / np.sqrt(q.shape[-1]))
        return np.matmul(q, np.swapaxes(k, -1, -2)) * scale

    def _sparse_structure(self, q: np.ndarray, k: np.ndarray) -> PaddedCSRMatrix:
        """Compress this call's mask into a padded-CSR structure (no scores)."""
        return PaddedCSRMatrix.from_mask(self._mask(None, q, k))

    def _sparse_inputs(
        self, q: np.ndarray, k: np.ndarray
    ) -> Tuple[PaddedCSRMatrix, Optional[PaddedCSRMatrix]]:
        """``(structure, prescored)`` for the compressed op.

        Score-dependent masks (Top-K) already paid the O(n²d) score GEMM to
        choose their columns, so the detached scores are compressed straight
        into the structure (padding lanes stamped with the masked-score
        sentinel) and the op skips its SDDMM; ``prescored`` is ``None`` for
        masks derived from the sequence structure or detached Q/K alone.
        """
        if not self.mask_needs_scores:
            return self._sparse_structure(q, k), None
        scores = self._detached_scores(q, k)
        mask = self._mask(scores, q, k)
        prescored = PaddedCSRMatrix.from_dense(
            scores, mask, pad_value=float(MASKED_SCORE)
        )
        return prescored, prescored

    def _dense_forward(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        d = q.shape[-1]
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d))
        mask = self._mask(scores.data, q.data, k.data)
        self._last_mask = mask
        self._last_structure_csr = None
        weights = self._apply_prob_dropout(F.masked_softmax(scores, mask, axis=-1))
        return weights @ v

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        if self.path == "dense":
            return self._dense_forward(q, k, v)
        structure, prescored = self._sparse_inputs(q.data, k.data)
        # keep only the compressed structure for mask introspection —
        # retaining the dense boolean mask would pin O(n²) memory per head
        # between training steps; last_mask() re-derives it on demand
        self._last_structure_csr = structure
        self._last_mask = None
        drop = self.attn_dropout
        out, _ = masked_sparse_attention(
            q,
            k,
            v,
            structure,
            scores=prescored,
            backend=self.backend,
            dropout_p=drop.p if drop is not None else 0.0,
            dropout_rng=drop.rng if drop is not None else None,
            training=bool(drop.training) if drop is not None else False,
        )
        return out

    def last_mask(self) -> Optional[np.ndarray]:
        structure = getattr(self, "_last_structure_csr", None)
        if structure is not None:
            return structure.to_mask()
        return super().last_mask()

    def _apply_prob_dropout(self, weights: Tensor) -> Tensor:
        return _positional_prob_dropout(self.attn_dropout, weights)


@register_mechanism("dfss", role="core")
class DfssCore(MaskedScoreCore):
    """Dynamic N:M pruning of the score matrix (the paper's mechanism).

    By default (``path="sparse"``) the whole trainable computation — forward
    *and* backward — runs through the compressed pipeline of
    :func:`repro.nn.sparse_attention.dfss_sparse_attention`: fused SDDMM +
    prune, sparse softmax and SpMM over the stored nonzeros, with analytic
    gradients on the compressed representation.  ``path="dense"`` is the
    escape hatch used for parity testing: the score matrix is materialised
    densely and autograd differentiates a masked softmax, with only the N:M
    selection dispatched through the kernel registry.  Both paths treat the
    selection as a constant of the graph, exactly as the paper's kernel does.

    ``block_mask`` optionally adds the hybrid blocked-ELL coarse sparsity on
    top of the N:M selection, on both paths.

    Attention dropout is derived layout-independently: both paths draw one
    seed per forward call from the layer's dropout generator and hash it with
    the *dense* position of every attention weight
    (:func:`repro.utils.seeding.attention_dropout_keep`), so seeded
    ``path="sparse"`` and ``path="dense"`` runs drop the same (row, column)
    entries and stay comparable under ``dropout > 0``.
    """

    name = "dfss"

    def __init__(
        self,
        pattern="2:4",
        backend: Optional[str] = None,
        path: str = "sparse",
        block_mask: Optional[BlockedEllMask] = None,
    ):
        super().__init__(backend=backend, path=path)
        self.pattern = resolve_pattern(pattern)
        self.block_mask = block_mask
        self._last_structure = None

    def _mask(self, scores, q, k):
        if self.block_mask is not None:
            # exclude blocked scores BEFORE the N:M selection, exactly like
            # the sddmm_nm epilogue, so a group straddling a block boundary
            # promotes allowed runners-up instead of keeping excluded columns
            from repro.core.sddmm import MASKED_SCORE

            allowed = self.block_mask.dense_mask(scores.shape[-2], scores.shape[-1])
            scores = np.where(allowed, scores, MASKED_SCORE)
            return get_kernel("nm_prune_mask", self.backend)(scores, self.pattern) & allowed
        return get_kernel("nm_prune_mask", self.backend)(scores, self.pattern)

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        if self.path == "dense":
            self._last_structure = None
            return self._dense_forward(q, k, v)
        drop = self.attn_dropout
        out, probs = dfss_sparse_attention(
            q,
            k,
            v,
            pattern=self.pattern,
            backend=self.backend,
            block_mask=self.block_mask,
            dropout_p=drop.p if drop is not None else 0.0,
            dropout_rng=drop.rng if drop is not None else None,
            training=bool(drop.training) if drop is not None else False,
        )
        # keep only the int8 metadata for mask introspection — retaining the
        # probs object would pin its values (and the fast backend's scattered
        # dense tile) in memory between steps
        self._last_structure = (probs.indices, probs.pattern, probs.dense_cols)
        self._last_mask = None
        return out

    def last_mask(self) -> Optional[np.ndarray]:
        if self._last_structure is not None:
            mask = _nm_selection_mask(*self._last_structure)
            if self.block_mask is not None:
                # sentinel entries of fully-masked groups carry zero weight
                # but are present in the compressed structure; drop them
                mask &= self.block_mask.dense_mask(mask.shape[-2], mask.shape[-1])
            return mask
        return super().last_mask()


@register_mechanism("topk", role="core")
class TopKCore(MaskedScoreCore):
    name = "topk"

    def __init__(self, density: float = 0.05, k: Optional[int] = None,
                 backend: Optional[str] = None, path: str = "sparse"):
        super().__init__(backend=backend, path=path)
        self.density = density
        self.k = k

    def _mask(self, scores, q, k):
        if self.k is not None:
            return topk_mask(scores, min(1.0, self.k / scores.shape[-1]))
        return topk_mask(scores, self.density)


class StaticMaskCore(MaskedScoreCore):
    """Mechanisms whose mask only depends on the sequence length.

    Both the boolean mask and its padded-CSR compression are cached per
    ``(n_q, n_k)``: the sparse path compresses the 2-D mask once and
    broadcasts the structure over the batch/head dimensions on every call.
    """

    mask_needs_scores = False

    def __init__(self, mask_fn: Callable[[int, int], np.ndarray], name: str,
                 backend: Optional[str] = None, path: str = "sparse"):
        super().__init__(backend=backend, path=path)
        self._mask_fn = mask_fn
        self.name = name
        self._cache: Dict[Tuple[int, int], np.ndarray] = {}
        self._csr_cache: Dict[Tuple[Tuple[int, ...], int, int], PaddedCSRMatrix] = {}

    def _mask_2d(self, n_q: int, n_k: int) -> np.ndarray:
        key = (n_q, n_k)
        if key not in self._cache:
            self._cache[key] = self._mask_fn(n_q, n_k)
        return self._cache[key]

    def _mask(self, scores, q, k):
        n_q, n_k = q.shape[-2], k.shape[-2]
        return np.broadcast_to(self._mask_2d(n_q, n_k), q.shape[:-2] + (n_q, n_k))

    def _sparse_structure(self, q, k):
        # cache the batch-broadcast structure (not just the 2-D one) so its
        # flat gather/scatter index caches persist across training steps
        key = (q.shape[:-2], q.shape[-2], k.shape[-2])
        if key not in self._csr_cache:
            structure = PaddedCSRMatrix.from_mask(self._mask_2d(*key[1:]))
            self._csr_cache[key] = structure.broadcast_to(q.shape[:-2])
        return self._csr_cache[key]


class ClusteringMaskCore(MaskedScoreCore):
    """Reformer / Routing / Sinkhorn masks derived from the (detached) Q and K."""

    mask_needs_scores = False

    def __init__(self, mechanism, name: str,
                 backend: Optional[str] = None, path: str = "sparse"):
        super().__init__(backend=backend, path=path)
        self.mechanism = mechanism
        self.name = name

    def _mask(self, scores, q, k):
        return self.mechanism.attention_mask(q, k)


@register_mechanism("linformer", role="core")
class LinformerCore(AttentionCore):
    """Low-rank projection of keys/values with a fixed random projection."""

    name = "linformer"

    def __init__(self, proj_dim: int = 64, seed=0):
        self.proj_dim = proj_dim
        self.seed = seed
        self._proj: Dict[int, np.ndarray] = {}

    def _projection(self, n: int) -> np.ndarray:
        if n not in self._proj:
            rng = new_rng(self.seed)
            kdim = min(self.proj_dim, n)
            self._proj[n] = rng.normal(0.0, 1.0 / np.sqrt(kdim), size=(kdim, n)).astype(
                np.float32
            )
        return self._proj[n]

    handles_prob_dropout = True

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        n = k.shape[-2]
        d = q.shape[-1]
        e = Tensor(self._projection(n))
        k_proj = e @ k
        v_proj = e @ v
        scores = (q @ k_proj.swapaxes(-1, -2)) * (1.0 / np.sqrt(d))
        weights = self._apply_prob_dropout(F.softmax(scores, axis=-1))
        return weights @ v_proj


@register_mechanism("linear_transformer", role="core")
class LinearTransformerCore(AttentionCore):
    """Kernelised linear attention with the elu+1 feature map."""

    name = "linear_transformer"

    @staticmethod
    def _feature(x: Tensor) -> Tensor:
        # elu(x) + 1 expressed with differentiable primitives:
        # relu(x) + exp(x - relu(x))  ==  x + 1 for x > 0,  exp(x) for x <= 0
        return x.relu() + (x - x.relu()).exp()

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        phi_q = self._feature(q)
        phi_k = self._feature(k)
        kv = phi_k.swapaxes(-1, -2) @ v
        out = phi_q @ kv
        normaliser = phi_q @ phi_k.sum(axis=-2, keepdims=True).swapaxes(-1, -2)
        return out / (normaliser + 1e-6)


@register_mechanism("performer", role="core")
class PerformerCore(AttentionCore):
    """FAVOR+ positive random features (features fixed, not trained)."""

    name = "performer"

    def __init__(self, num_features: Optional[int] = None, seed=0):
        self.num_features = num_features
        self.seed = seed
        self._w: Dict[int, np.ndarray] = {}

    def _features(self, d: int) -> np.ndarray:
        if d not in self._w:
            from repro.baselines.performer import orthogonal_random_features

            m = self.num_features or max(1, int(round(d * np.log(max(d, 2)))))
            self._w[d] = orthogonal_random_features(m, d, new_rng(self.seed))
        return self._w[d]

    def _phi(self, x: Tensor, w: np.ndarray, per_row: bool) -> Tensor:
        d = x.shape[-1]
        m = w.shape[0]
        proj = x @ Tensor(w.T / d**0.25)
        sq = (x * x).sum(axis=-1, keepdims=True) * (1.0 / (2.0 * np.sqrt(d)))
        shifted = proj - sq
        if per_row:
            stab = shifted.max(axis=-1, keepdims=True).detach()
        else:
            stab = Tensor(np.max(shifted.data, axis=(-1, -2), keepdims=True))
        return (shifted - stab).exp() * (1.0 / np.sqrt(m)) + 1e-6

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        w = self._features(q.shape[-1])
        phi_q = self._phi(q, w, per_row=True)
        phi_k = self._phi(k, w, per_row=False)
        kv = phi_k.swapaxes(-1, -2) @ v
        out = phi_q @ kv
        normaliser = phi_q @ phi_k.sum(axis=-2, keepdims=True).swapaxes(-1, -2)
        return out / (normaliser + 1e-6)


@register_mechanism("nystromformer", role="core")
@register_mechanism("nystromformer_dfss", role="core")
class NystromformerCore(AttentionCore):
    """Differentiable Nyström attention with segment-mean landmarks."""

    name = "nystromformer"

    def __init__(self, num_landmarks: int = 32, pinv_iters: int = 6, dfss_pattern=None,
                 backend: Optional[str] = None):
        self.num_landmarks = num_landmarks
        self.pinv_iters = pinv_iters
        self.dfss_pattern = resolve_pattern(dfss_pattern) if dfss_pattern else None
        self.backend = backend

    def _landmarks(self, x: Tensor) -> Tensor:
        n = x.shape[-2]
        m = min(self.num_landmarks, n)
        if n % m != 0:
            # truncate the tail so segments are equal; acceptable for landmarks
            n_trunc = (n // m) * m
            x = x[..., :n_trunc, :]
            n = n_trunc
        seg = x.reshape(x.shape[:-2] + (m, n // m, x.shape[-1]))
        return seg.mean(axis=-2)

    def _pinv(self, a: Tensor) -> Tensor:
        at = a.swapaxes(-1, -2)
        scale = float(
            np.max(np.sum(np.abs(a.data), axis=-2)) * np.max(np.sum(np.abs(a.data), axis=-1))
        )
        z = at * (1.0 / max(scale, 1e-8))
        eye = Tensor(np.eye(a.shape[-1], dtype=np.float32))
        for _ in range(self.pinv_iters):
            az = a @ z
            z = (z @ (eye * 13.0 - az @ (eye * 15.0 - az @ (eye * 7.0 - az)))) * 0.25
        return z

    def _softmax_kernel(self, a: Tensor, b: Tensor, scale: float, prune: bool) -> Tensor:
        scores = (a @ b.swapaxes(-1, -2)) * scale
        if prune and self.dfss_pattern is not None:
            mask = get_kernel("nm_prune_mask", self.backend)(scores.data, self.dfss_pattern)
            return F.masked_softmax(scores, mask, axis=-1)
        return F.softmax(scores, axis=-1)

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        d = q.shape[-1]
        scale = 1.0 / np.sqrt(d)
        q_land = self._landmarks(q)
        k_land = self._landmarks(k)
        kernel1 = self._softmax_kernel(q, k_land, scale, prune=True)   # n x m
        kernel2 = self._softmax_kernel(q_land, k_land, scale, prune=False)  # m x m
        kernel3 = self._softmax_kernel(q_land, k, scale, prune=True)   # m x n
        pinv = self._pinv(kernel2)
        return (kernel1 @ pinv) @ (kernel3 @ v)


@register_mechanism("synthesizer", role="core")
class SynthesizerCore(AttentionCore):
    """Random Synthesizer: a trainable content-independent attention matrix."""

    name = "synthesizer"

    def __init__(self, max_len: int = 512, seed=0):
        from repro.nn.autograd import parameter

        rng = new_rng(seed)
        self.max_len = max_len
        self.weight = parameter(rng.normal(0.0, 0.02, size=(max_len, max_len)), name="synth")

    handles_prob_dropout = True

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        n = q.shape[-2]
        if n > self.max_len:
            raise ValueError(f"sequence length {n} exceeds synthesizer table {self.max_len}")
        weights = self._apply_prob_dropout(F.softmax(self.weight[:n, :n], axis=-1))
        return weights @ v


# -------------------------------------------------- registered core builders
# Mechanisms whose core is a parameterised StaticMaskCore / ClusteringMaskCore
# rather than a dedicated class register small builder functions; class-shaped
# cores are decorated directly.  Together these replace the legacy 16-branch
# ``if/elif`` factory — the registry is the single name -> constructor map.
@register_mechanism("local", role="core")
def _local_core(cfg, seq_len_hint: int) -> AttentionCore:
    return StaticMaskCore(
        lambda nq, nk: local_window_mask(nq, nk, cfg.window), "local",
        backend=cfg.backend, path=cfg.path,
    )


@register_mechanism("sparse_transformer", role="core")
def _strided_core(cfg, seq_len_hint: int) -> AttentionCore:
    return StaticMaskCore(
        lambda nq, nk: strided_mask(nq, nk, cfg.window, cfg.stride),
        "sparse_transformer", backend=cfg.backend, path=cfg.path,
    )


@register_mechanism("fixed_truncated", role="core")
def _truncated_core(cfg, seq_len_hint: int) -> AttentionCore:
    return StaticMaskCore(
        lambda nq, nk: truncated_mask(nq, nk, cfg.density), "fixed_truncated",
        backend=cfg.backend, path=cfg.path,
    )


@register_mechanism("longformer", role="core")
def _longformer_core(cfg, seq_len_hint: int) -> AttentionCore:
    return StaticMaskCore(
        lambda nq, nk: longformer_mask(nq, nk, cfg.window, cfg.num_global),
        "longformer", backend=cfg.backend, path=cfg.path,
    )


def _fitted_bigbird_mask(nq: int, cfg) -> BlockedEllMask:
    """BigBird blocked-ELL mask with the block size halved until it divides ``nq``."""
    bs = cfg.block_size
    while nq % bs != 0 and bs > 1:
        bs //= 2
    return bigbird_mask(
        nq,
        bs,
        window_blocks=cfg.window_blocks,
        num_global_blocks=cfg.num_global_blocks,
        num_random_blocks=cfg.num_random_blocks,
        seed=cfg.seed,
    )


@register_mechanism("bigbird", role="core")
def _bigbird_core(cfg, seq_len_hint: int) -> AttentionCore:
    return StaticMaskCore(
        lambda nq, nk: _fitted_bigbird_mask(nq, cfg).dense_mask(nq, nk), "bigbird",
        backend=cfg.backend, path=cfg.path,
    )


@register_mechanism("reformer", role="core")
def _reformer_core(cfg, seq_len_hint: int) -> AttentionCore:
    mech = ReformerAttention(n_buckets=cfg.n_buckets, n_hashes=cfg.n_hashes,
                             seed=cfg.seed)
    return ClusteringMaskCore(mech, "reformer", backend=cfg.backend, path=cfg.path)


@register_mechanism("routing", role="core")
def _routing_core(cfg, seq_len_hint: int) -> AttentionCore:
    mech = RoutingTransformerAttention(
        n_clusters=cfg.n_clusters, kmeans_iters=cfg.kmeans_iters, seed=cfg.seed
    )
    return ClusteringMaskCore(mech, "routing", backend=cfg.backend, path=cfg.path)


@register_mechanism("sinkhorn", role="core")
def _sinkhorn_core(cfg, seq_len_hint: int) -> AttentionCore:
    mech = SinkhornAttention(
        block_size=cfg.block_size, sinkhorn_iters=cfg.sinkhorn_iters
    )
    return ClusteringMaskCore(mech, "sinkhorn", backend=cfg.backend, path=cfg.path)


# ------------------------------------------------- Appendix A.7 combo cores
class BigBirdDfssCore(DfssCore):
    """BigBird block sparsity with dynamic N:M pruning inside the blocks.

    The trainable counterpart of
    :class:`repro.baselines.combos.DfssBigBirdAttention`: the BigBird
    window/global/random pattern becomes a blocked-ELL coarse mask fed to the
    compressed DFSS op (the mask excludes score blocks *before* the N:M
    selection, exactly like the fused epilogue), so forward and backward run
    on the compressed N:M representation.  The blocked-ELL mask is built
    lazily per observed sequence length — the block size is halved until it
    divides the sequence — and cached.
    """

    name = "bigbird_dfss"

    def __init__(self, cfg, pattern="2:4", backend: Optional[str] = None,
                 path: str = "sparse"):
        super().__init__(pattern, backend=backend, path=path)
        self._cfg = cfg
        self._block_masks: Dict[int, BlockedEllMask] = {}

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        nq = q.shape[-2]
        if nq not in self._block_masks:
            self._block_masks[nq] = _fitted_bigbird_mask(nq, self._cfg)
        self.block_mask = self._block_masks[nq]
        return super().__call__(q, k, v)


@register_mechanism("bigbird_dfss", role="core")
def _bigbird_dfss_core(cfg, seq_len_hint: int) -> AttentionCore:
    return BigBirdDfssCore(cfg, pattern=cfg.pattern or "2:4",
                           backend=cfg.backend, path=cfg.path)


class LinformerDfssCore(AttentionCore):
    """Linformer projection with the projected scores pruned to N:M on the fly.

    The trainable counterpart of
    :class:`repro.baselines.combos.DfssLinformerAttention`: keys and values
    are projected with the fixed random map ``E`` (a constant of the graph,
    shared with :class:`LinformerCore`'s seeding), then the whole attention
    over the projected length runs through the compressed N:M op —
    ``sddmm_nm(Q, (EK)) → sparse softmax → SpMM`` with analytic gradients on
    the compressed representation.  ``path="dense"`` differentiates the
    equivalent dense masked softmax for parity testing.

    The projected length is rounded down to a multiple of the N:M group size
    so the pattern applies cleanly.
    """

    name = "linformer_dfss"

    handles_prob_dropout = True

    PATHS = ("sparse", "dense")

    def __init__(self, proj_dim: int = 64, pattern="2:4", seed=0,
                 backend: Optional[str] = None, path: str = "sparse"):
        _check_path(path)
        self.proj_dim = proj_dim
        self.pattern = resolve_pattern(pattern)
        self.seed = seed
        self.backend = backend
        self.path = path
        self._proj: Dict[int, np.ndarray] = {}
        self._last_structure = None

    def _projection(self, n: int) -> np.ndarray:
        if n not in self._proj:
            rng = new_rng(self.seed)
            kdim = min(self.proj_dim, n)
            # round the projected length down to a whole number of M-groups
            kdim = max(self.pattern.m, kdim - kdim % self.pattern.m)
            self._proj[n] = rng.normal(
                0.0, 1.0 / np.sqrt(kdim), size=(kdim, n)
            ).astype(np.float32)
        return self._proj[n]

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        e = Tensor(self._projection(k.shape[-2]))
        k_proj = e @ k
        v_proj = e @ v
        drop = self.attn_dropout
        if self.path == "dense":
            scale = 1.0 / np.sqrt(q.shape[-1])
            scores = (q @ k_proj.swapaxes(-1, -2)) * scale
            mask = get_kernel("nm_prune_mask", self.backend)(scores.data, self.pattern)
            self._last_mask = mask
            self._last_structure = None
            weights = _positional_prob_dropout(
                drop, F.masked_softmax(scores, mask, axis=-1)
            )
            return weights @ v_proj
        out, probs = dfss_sparse_attention(
            q,
            k_proj,
            v_proj,
            pattern=self.pattern,
            backend=self.backend,
            dropout_p=drop.p if drop is not None else 0.0,
            dropout_rng=drop.rng if drop is not None else None,
            training=bool(drop.training) if drop is not None else False,
        )
        # store only the int8 metadata; last_mask() re-derives the dense mask
        self._last_structure = (probs.indices, probs.pattern, probs.dense_cols)
        self._last_mask = None
        return out

    def last_mask(self) -> Optional[np.ndarray]:
        if self._last_structure is not None:
            return _nm_selection_mask(*self._last_structure)
        return super().last_mask()


@register_mechanism("linformer_dfss", role="core")
def _linformer_dfss_core(cfg, seq_len_hint: int) -> AttentionCore:
    return LinformerDfssCore(
        proj_dim=cfg.proj_dim, pattern=cfg.pattern or "2:4", seed=cfg.seed,
        backend=cfg.backend, path=cfg.path,
    )


# ------------------------------------------------------------- the nn layer
class MultiHeadSelfAttention(Module):
    """Multi-head self-attention with a swappable attention core.

    The core can be replaced after construction (and after training) with
    :meth:`set_mechanism`, which is how the "replace full attention by DFSS
    without finetuning" experiments are run.
    """

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        mechanism: str = "full",
        dropout: float = 0.0,
        resid_dropout: float = 0.0,
        seed=0,
        max_len: int = 512,
        **mechanism_kwargs,
    ):
        super().__init__()
        if model_dim % num_heads != 0:
            raise ValueError("model_dim must be divisible by num_heads")
        self.model_dim = model_dim
        self.num_heads = num_heads
        self.head_dim = model_dim // num_heads
        self.max_len = max_len
        rng = new_rng(seed)
        self.q_proj = Linear(model_dim, model_dim, seed=rng.integers(1 << 31))
        self.k_proj = Linear(model_dim, model_dim, seed=rng.integers(1 << 31))
        self.v_proj = Linear(model_dim, model_dim, seed=rng.integers(1 << 31))
        self.out_proj = Linear(model_dim, model_dim, seed=rng.integers(1 << 31))
        #: applied to the attention probabilities inside the core (``dropout``)
        self.attn_dropout = Dropout(dropout, seed=rng.integers(1 << 31))
        #: applied to the projected output (the residual branch)
        self.resid_dropout = Dropout(resid_dropout, seed=rng.integers(1 << 31))
        self.core = make_core(mechanism, seq_len_hint=max_len, **mechanism_kwargs)
        self.mechanism = mechanism
        self._register_core_parameters()
        self.core.attn_dropout = self.attn_dropout

    def _register_core_parameters(self) -> None:
        """Expose trainable tensors owned by the core (e.g. the Synthesizer matrix)."""
        self._parameters.pop("core_weight", None)
        core_weight = getattr(self.core, "weight", None)
        if isinstance(core_weight, Tensor) and core_weight.requires_grad:
            self._parameters["core_weight"] = core_weight

    def set_mechanism(self, mechanism: str, **mechanism_kwargs) -> None:
        """Swap the attention mechanism in place (weights are untouched)."""
        self.core = make_core(mechanism, seq_len_hint=self.max_len, **mechanism_kwargs)
        self.mechanism = mechanism
        self._register_core_parameters()
        self.core.attn_dropout = self.attn_dropout

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, self.model_dim)

    def forward(self, x: Tensor) -> Tensor:
        batch, seq, _ = x.shape
        q = self._split_heads(self.q_proj(x), batch, seq)
        k = self._split_heads(self.k_proj(x), batch, seq)
        v = self._split_heads(self.v_proj(x), batch, seq)
        out = self.core(q, k, v)
        if not self.core.handles_prob_dropout:
            # kernel/low-rank cores have no probability matrix to drop; apply
            # the attention dropout to the per-head context instead
            out = self.attn_dropout(out)
        out = self._merge_heads(out, batch, seq)
        return self.resid_dropout(self.out_proj(out))
