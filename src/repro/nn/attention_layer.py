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
  :mod:`repro.nn.sparse_attention`: DFSS through the N:M layout
  (:func:`dfss_sparse_attention`), every other mask through the row-block
  layout (:func:`row_block_sparse_attention`) over the structure its numpy
  mechanism gives for the call
  (:meth:`~repro.baselines.base.AttentionMechanism.mask_structure`) — the
  one structure the engine's forward and the server run, so the core's
  forward equals theirs bit for bit.
  Their dense ground truth is
  :func:`repro.nn.functional.dense_masked_attention` over the core's
  :meth:`~AttentionCore.last_mask`.
* *kernel / low-rank* — the attention output is computed through a different
  differentiable computation graph: Linformer, Linear Transformer, Performer,
  Nyströmformer, Synthesizer and the DFSS + Nyströmformer and DFSS +
  Linformer combinations.  The core is each one's only definition: its
  forward-only mechanism (:class:`CoreMechanism`) runs the core without
  gradients.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

import numpy as np

import repro.baselines  # noqa: F401  populate the mechanism registry first
from repro.baselines.base import AttentionMechanism
from repro.core.patterns import default_pattern_for_dtype, resolve_pattern
from repro.core.pruning import nm_prune_mask_any_width
from repro.core.row_block import RowBlockStructure
from repro.nn import functional as F
from repro.nn.autograd import Tensor
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.sparse_attention import dfss_sparse_attention, row_block_sparse_attention
from repro.registry import (
    LinearTransformerConfig,
    LinformerConfig,
    LinformerDfssConfig,
    NystromDfssConfig,
    NystromformerConfig,
    PerformerConfig,
    SynthesizerConfig,
    find_spec,
    make_core,
    register_mechanism,
)
from repro.utils.seeding import new_rng


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

    def last_mask(self) -> Optional[np.ndarray]:
        """Dense boolean mask of the last call; ``None`` for cores without one."""
        return None


@register_mechanism("full", role="core")
class FullCore(AttentionCore):
    name = "full"

    handles_prob_dropout = True

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        d = q.shape[-1]
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d))
        weights = self._apply_prob_dropout(F.softmax(scores, axis=-1))
        return weights @ v


class MaskedScoreCore(AttentionCore):
    """The trainable core of every mask-based mechanism other than DFSS.

    The core wraps the registered numpy mechanism it was built from and
    takes this call's :class:`~repro.core.row_block.RowBlockStructure` from
    it outside the graph
    (:meth:`~repro.baselines.base.AttentionMechanism.mask_structure`: a
    static mask's declared structure, kept per length and shared by every
    batch slice and step, or one built from a content-dependent mask of the
    detached Q and K), then runs forward and backward through
    :func:`repro.nn.sparse_attention.row_block_sparse_attention`, treating
    the mask as a constant of the graph.  Seeded attention dropout is
    derived from dense positions, so
    :func:`repro.nn.functional.dense_masked_attention` reproduces it exactly.
    """

    handles_prob_dropout = True

    def __init__(self, mechanism, backend: Optional[str] = None):
        self.mechanism = mechanism
        self.name = mechanism.name
        self.backend = backend
        self._last_structure: Optional[Tuple[RowBlockStructure, Tuple[int, ...]]] = None

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        structure = self.mechanism.mask_structure(q.data, k.data)
        # keep the structure, not a dense mask: last_mask() expands it on demand
        self._last_structure = (structure, q.shape[:-2])
        drop = self.attn_dropout
        out, _ = row_block_sparse_attention(
            q,
            k,
            v,
            structure,
            backend=self.backend,
            mechanism=self.name,
            dropout_p=drop.p if drop is not None else 0.0,
            dropout_rng=drop.rng if drop is not None else None,
            training=bool(drop.training) if drop is not None else False,
        )
        return out

    def last_mask(self) -> Optional[np.ndarray]:
        if self._last_structure is None:
            return None
        structure, batch_shape = self._last_structure
        return np.broadcast_to(structure.to_mask(), batch_shape + (structure.n_q, structure.n_k))


@register_mechanism("dfss", role="core")
class DfssCore(AttentionCore):
    """Dynamic N:M pruning of the score matrix (the paper's mechanism).

    The whole trainable computation — forward *and* backward — runs through
    :func:`repro.nn.sparse_attention.dfss_sparse_attention`: the row-tiled
    fused N:M forward, and a backward that recomputes each tile's
    probabilities from per-row softmax statistics.  The selection is a
    constant of the graph, exactly as the paper's kernel treats it;
    :meth:`last_mask` reads the selection the forward wrote.

    ``pattern=None`` is the float32 hardware default,
    :func:`~repro.core.patterns.default_pattern_for_dtype` (1:2), as it is
    for the numpy mechanism: the core computes in float32.

    A subclass restricts the N:M selection to key blocks by returning a
    :class:`~repro.core.row_block.RowBlockStructure` from
    :meth:`structure` (:class:`BigBirdDfssCore`, the blocked-ELL hybrid).

    Attention dropout is derived layout-independently: one seed per forward
    call from the layer's dropout generator, hashed with the *dense* position
    of every attention weight
    (:func:`repro.utils.seeding.attention_dropout_keep`), so
    :func:`repro.nn.functional.dense_masked_attention` reproduces a seeded
    run exactly.
    """

    name = "dfss"

    handles_prob_dropout = True

    def __init__(
        self,
        pattern=None,
        backend: Optional[str] = None,
    ):
        self.pattern = (
            default_pattern_for_dtype("float32") if pattern is None else resolve_pattern(pattern)
        )
        self.backend = backend
        self._last_stats = None

    def structure(self, n_q: int, n_k: int) -> Optional[RowBlockStructure]:
        """The key blocks N:M selects in for an ``(n_q, n_k)`` call; ``None``
        selects over all keys."""
        return None

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        drop = self.attn_dropout
        out, stats = dfss_sparse_attention(
            q,
            k,
            v,
            pattern=self.pattern,
            backend=self.backend,
            structure=self.structure(q.shape[-2], k.shape[-2]),
            dropout_p=drop.p if drop is not None else 0.0,
            dropout_rng=drop.rng if drop is not None else None,
            training=bool(drop.training) if drop is not None else False,
        )
        # the forward's selection codes and O(rows) statistics, no values
        self._last_stats = stats
        return out

    def last_mask(self) -> Optional[np.ndarray]:
        return None if self._last_stats is None else self._last_stats.to_mask()


# ------------------------------------------- kernel and low-rank mechanisms
class CoreMechanism(AttentionMechanism):
    """The forward-only mechanism of a kernel or low-rank method: its
    trainable core, run without gradients.

    These methods have one definition, the core.  A call validates Q, K and
    V as every mechanism does, runs the core on :class:`Tensor` operands
    that need no gradient, so no graph is kept, and returns the output
    array: the engine, :func:`~repro.registry.make_mechanism`,
    :meth:`approximation_error` and the server's per-request fallback all
    run the forward the layer trains.
    """

    def __init__(self, name: str, core: AttentionCore):
        self.name = name
        self.core = core

    def __call__(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        self._validate(q, k, v)
        return self.core(Tensor(q), Tensor(k), Tensor(v)).data


def _register_core_defined(name: str, **metadata):
    """Register mechanism ``name`` with the decorated core class as its one
    definition: the core side is the class, the mechanism side a
    :class:`CoreMechanism` over the class built from the config's
    forward-only keyword arguments (Synthesizer's 4096-row table)."""

    def decorator(core_cls):
        register_mechanism(name, **metadata)(
            lambda cfg: CoreMechanism(name, core_cls(**cfg.mechanism_kwargs()))
        )
        return register_mechanism(name, role="core")(core_cls)

    return decorator


@_register_core_defined(
    "linformer",
    config=LinformerConfig,
    label="Linformer",
    description="Low-rank key/value projection (Wang et al.)",
)
class LinformerCore(AttentionCore):
    """Low-rank projection of keys/values with a fixed random projection.

    ``O = softmax(Q (E K)ᵀ / sqrt(d)) (E V)`` with one seeded Gaussian
    ``E ∈ R^{k x n}`` (``k = min(proj_dim, n)``), the way Linformer
    initialises its projection, shared by keys and values and kept per
    key length.
    """

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


@_register_core_defined(
    "linear_transformer",
    config=LinearTransformerConfig,
    label="Linear Trans.",
    description="Kernelised linear attention with the elu+1 feature map",
)
class LinearTransformerCore(AttentionCore):
    """Kernelised linear attention with the elu+1 feature map
    (Katharopoulos et al.): ``phi(Q) (phi(K)ᵀ V)`` with a row normaliser."""

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


def orthogonal_random_features(num_features: int, dim: int, rng) -> np.ndarray:
    """Blocks of orthogonalised Gaussian rows, re-scaled to chi-distributed norms."""
    blocks = []
    remaining = num_features
    while remaining > 0:
        gauss = rng.normal(size=(dim, dim))
        q_mat, _ = np.linalg.qr(gauss)
        take = min(remaining, dim)
        blocks.append(q_mat[:take])
        remaining -= take
    w = np.concatenate(blocks, axis=0)
    norms = np.sqrt(rng.chisquare(df=dim, size=(num_features, 1)))
    return (w * norms).astype(np.float32)


@_register_core_defined(
    "performer",
    config=PerformerConfig,
    label="Performer",
    description="FAVOR+ positive orthogonal random features (Choromanski et al.)",
    latency_model="performer",
)
class PerformerCore(AttentionCore):
    """FAVOR+ positive orthogonal random features (features fixed, not trained).

    ``phi(x) = exp(Wx / d^{1/4} - ||x||² / (2 sqrt(d)) - stab) / sqrt(m)``,
    the computation graph of Eq. (32) in Appendix A.5, and the output
    ``phi(Q) (phi(K)ᵀ V)`` with a row normaliser.  The stabiliser is per
    row for the query features (it cancels in the row normaliser) and
    global for the key features (a per-key constant would re-weight keys).
    """

    name = "performer"

    def __init__(self, num_features: Optional[int] = None, seed=0):
        self.num_features = num_features
        self.seed = seed
        self._w: Dict[int, np.ndarray] = {}

    def _features(self, d: int) -> np.ndarray:
        if d not in self._w:
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


@_register_core_defined(
    "nystromformer_dfss",
    config=NystromDfssConfig,
    label="Nystromformer + Dfss",
    description="Nyströmformer with DFSS-pruned softmax kernels (Appendix A.7)",
    aliases=("nystrom_dfss",),
    compressed=True,
)
@_register_core_defined(
    "nystromformer",
    config=NystromformerConfig,
    label="Nystromformer",
    description="Nyström landmark approximation (Xiong et al.)",
    aliases=("nystrom",),
    latency_model="nystromformer",
)
class NystromformerCore(AttentionCore):
    """Differentiable Nyström attention with segment-mean landmarks
    (Xiong et al., Figure 17 of the paper).

    ``A ≈ softmax(Q K̃ᵀ) · pinv(softmax(Q̃ K̃ᵀ)) · softmax(Q̃ Kᵀ)`` with
    ``m`` landmark rows, each the mean of one of ``m`` equal segments (a
    tail that does not fill a segment is left out), and the pseudo-inverse
    by the Newton–Schulz iteration of the reference implementation.

    With a ``pattern`` (``nystromformer_dfss``, Appendix A.7 and Table 6)
    the two ``n x m`` / ``m x n`` kernels circled in Figure 17 are pruned to
    dynamic N:M sparsity before their softmax, at any width
    (:func:`~repro.core.pruning.nm_prune_mask_any_width`); the small
    ``m x m`` kernel stays dense.  Without finetuning the pruned landmark
    kernel perturbs the factorisation, which the pseudo-inverse amplifies,
    so the paper always finetunes the combination.
    """

    name = "nystromformer"

    def __init__(self, num_landmarks: int = 32, pinv_iters: int = 6, pattern=None,
                 backend: Optional[str] = None):
        self.num_landmarks = num_landmarks
        self.pinv_iters = pinv_iters
        self.pattern = None if pattern is None else resolve_pattern(pattern)
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
        # one Newton–Schulz scale per slice: no slice depends on the batch
        mag = np.abs(a.data)
        scale = np.max(mag.sum(-2, keepdims=True), -1, keepdims=True) * np.max(
            mag.sum(-1, keepdims=True), -2, keepdims=True)
        z = a.swapaxes(-1, -2) * (1.0 / np.maximum(scale, 1e-8))
        eye = Tensor(np.eye(a.shape[-1], dtype=np.float32))
        for _ in range(self.pinv_iters):
            az = a @ z
            z = (z @ (eye * 13.0 - az @ (eye * 15.0 - az @ (eye * 7.0 - az)))) * 0.25
        return z

    def _softmax_kernel(self, a: Tensor, b: Tensor, scale: float, prune: bool) -> Tensor:
        scores = (a @ b.swapaxes(-1, -2)) * scale
        if prune and self.pattern is not None:
            mask = nm_prune_mask_any_width(scores.data, self.pattern, self.backend)
            return F.masked_softmax(scores, mask, axis=-1)
        return F.softmax(scores, axis=-1)

    def kernels(self, q: Tensor, k: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
        """The three softmax kernels of the factorisation: ``n x m``,
        ``m x m`` and ``m x n``."""
        scale = 1.0 / np.sqrt(q.shape[-1])
        q_land = self._landmarks(q)
        k_land = self._landmarks(k)
        return (
            self._softmax_kernel(q, k_land, scale, prune=True),
            self._softmax_kernel(q_land, k_land, scale, prune=False),
            self._softmax_kernel(q_land, k, scale, prune=True),
        )

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        kernel1, kernel2, kernel3 = self.kernels(q, k)
        pinv = self._pinv(kernel2)
        return (kernel1 @ pinv) @ (kernel3 @ v)


@_register_core_defined(
    "synthesizer",
    config=SynthesizerConfig,
    label="Synthesizer",
    description="Random content-independent attention weights (Tay et al.)",
)
class SynthesizerCore(AttentionCore):
    """Random Synthesizer: a trainable content-independent attention matrix.

    The ``max_len x max_len`` table is drawn from a seeded N(0, 0.02) at
    construction, as a learned one is initialised; a call of ``n_q``
    queries over ``n_k`` keys reads its ``[:n_q, :n_k]`` corner.
    """

    name = "synthesizer"

    def __init__(self, max_len: int = 512, seed=0):
        from repro.nn.autograd import parameter

        rng = new_rng(seed)
        self.max_len = max_len
        self.weight = parameter(rng.normal(0.0, 0.02, size=(max_len, max_len)), name="synth")

    handles_prob_dropout = True

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        n_q, n_k = q.shape[-2], k.shape[-2]
        if max(n_q, n_k) > self.max_len:
            raise ValueError(
                f"sequence length {max(n_q, n_k)} exceeds the synthesizer table ({self.max_len})"
            )
        weights = self._apply_prob_dropout(F.softmax(self.weight[:n_q, :n_k], axis=-1))
        return weights @ v


# -------------------------------------------------- registered core builders
# Mask cores wrap the numpy mechanism the registry builds from the same
# config, so each mask is defined once, in :mod:`repro.baselines`; DFSS's
# core class is decorated directly, and the kernel / low-rank cores above
# define their mechanisms too.
def _mechanism_of(name: str, cfg):
    """The registered numpy mechanism of ``name`` built from a core config."""
    return find_spec(name).build_mechanism(replace(cfg, backend=None))


def _register_mask_core(name: str) -> None:
    def build(cfg, seq_len_hint: int) -> AttentionCore:
        return MaskedScoreCore(_mechanism_of(name, cfg), backend=cfg.backend)

    register_mechanism(name, role="core")(build)


for _name in (
    "topk", "local", "sparse_transformer", "fixed_truncated", "longformer", "bigbird",
    "reformer", "routing", "sinkhorn",
):
    _register_mask_core(_name)


# ------------------------------------------------- Appendix A.7 combo cores
class BigBirdDfssCore(DfssCore):
    """BigBird block sparsity with dynamic N:M pruning inside the blocks.

    The trainable side of
    :class:`repro.baselines.combos.DfssBigBirdAttention`: the compressed
    DFSS op runs over BigBird's row-block structure
    (:meth:`~repro.baselines.base.StaticMaskAttention.cached_structure`, the
    one the ``bigbird`` route runs), so each forward and backward tile
    scores one block's keys only and N:M selects inside them.
    """

    name = "bigbird_dfss"

    def __init__(self, bigbird, pattern="2:4", backend: Optional[str] = None):
        super().__init__(pattern, backend=backend)
        self.bigbird = bigbird

    def structure(self, n_q: int, n_k: int) -> RowBlockStructure:
        return self.bigbird.cached_structure(n_q, n_k)


@register_mechanism("bigbird_dfss", role="core")
def _bigbird_dfss_core(cfg, seq_len_hint: int) -> AttentionCore:
    mechanism = _mechanism_of("bigbird_dfss", cfg)
    return BigBirdDfssCore(
        mechanism.bigbird, pattern=mechanism.pattern, backend=cfg.backend
    )


@_register_core_defined(
    "linformer_dfss",
    config=LinformerDfssConfig,
    label="Linformer + Dfss",
    description="Linformer with the projected score matrix pruned to N:M",
    aliases=("dfss_linformer",),
    compressed=True,
)
class LinformerDfssCore(DfssCore):
    """Linformer projection with the projected scores pruned to N:M on the fly
    (Appendix A.7, Figure 18 B).

    Keys and values are projected with the fixed random map ``E`` (a
    constant of the graph, shared with :class:`LinformerCore`'s seeding),
    then the whole attention over the projected length runs through the
    compressed N:M op of :class:`DfssCore` — the ``nm_attention`` forward
    over ``Q``, ``EK`` and ``EV``, and its recomputing ``nm_attention_bwd``
    backward.

    The projected length is rounded down to a multiple of the N:M group size
    so the pattern applies cleanly.
    """

    name = "linformer_dfss"

    def __init__(self, proj_dim: int = 64, pattern="2:4", seed=0,
                 backend: Optional[str] = None):
        super().__init__(pattern, backend=backend)
        self.proj_dim = proj_dim
        self.seed = seed
        self._proj: Dict[int, np.ndarray] = {}

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
        return super().__call__(q, e @ k, e @ v)

    def last_mask(self) -> Optional[np.ndarray]:
        # the N:M selection indexes the projected keys, not the dense key axis
        return None


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
