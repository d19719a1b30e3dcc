"""Per-mechanism attention latency models (Figure 5 / Figure 11 substrate).

Each mechanism is described as a list of :class:`~repro.gpusim.ops.OpCost`
kernels assigned to the four categories the paper's latency-breakdown figure
uses: ``overhead`` (everything a mechanism runs that full attention does not —
hashing, sorting, clustering, landmark/feature construction), ``qk`` (the
score computation), ``softmax`` and ``av`` (the value aggregation).

The mechanism set mirrors Figure 5: the dense Transformer, DFSS ("ours"),
Performer, Reformer, Routing Transformer, Sinkhorn Transformer and
Nyströmformer, plus the explicit Top-K and fixed-density mechanisms used in
Figure 11.  The models only aim to reproduce the paper's *qualitative* shape —
who wins at which sequence length and by roughly what factor — not absolute
microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.gpusim import ops
from repro.gpusim.device import AMPERE_A100, GpuDevice
from repro.gpusim.ops import OpCost

#: Number of sequence tokens processed per "launch" across the batch; the
#: paper sets the batch size "large enough to keep the GPU busy", which this
#: budget emulates (batch shrinks as the sequence grows).
DEFAULT_TOKEN_BUDGET = 1 << 17

STAGES = ("overhead", "qk", "softmax", "av")


@dataclass(frozen=True)
class AttentionConfig:
    """Problem size for one attention latency evaluation."""

    seq_len: int
    head_dim: int = 64
    num_heads: int = 4
    dtype: str = "bfloat16"
    batch_size: Optional[int] = None
    token_budget: int = DEFAULT_TOKEN_BUDGET

    @property
    def effective_batch(self) -> int:
        """Number of independent (batch x head) attention problems."""
        if self.batch_size is not None:
            return self.batch_size * self.num_heads
        per_seq = max(1, self.token_budget // self.seq_len)
        return per_seq * self.num_heads


@dataclass
class LatencyBreakdown:
    """Latency (seconds) of one mechanism split into the Figure-5 stages."""

    mechanism: str
    overhead: float = 0.0
    qk: float = 0.0
    softmax: float = 0.0
    av: float = 0.0
    kernels: Dict[str, List[OpCost]] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.overhead + self.qk + self.softmax + self.av

    def normalized_to(self, other: "LatencyBreakdown") -> Dict[str, float]:
        """Per-stage latency normalised to another mechanism's total."""
        ref = other.total
        return {
            "overhead": self.overhead / ref,
            "qk": self.qk / ref,
            "softmax": self.softmax / ref,
            "av": self.av / ref,
            "total": self.total / ref,
        }


def _breakdown(
    mechanism: str, staged: Dict[str, List[OpCost]], device: GpuDevice
) -> LatencyBreakdown:
    out = LatencyBreakdown(mechanism=mechanism, kernels=staged)
    for stage, kernel_list in staged.items():
        setattr(out, stage, ops.total_latency(kernel_list, device))
    return out


# ------------------------------------------------------------------ mechanisms
def _dense(cfg: AttentionConfig) -> Dict[str, List[OpCost]]:
    b, n, d, dt = cfg.effective_batch, cfg.seq_len, cfg.head_dim, cfg.dtype
    return {
        "overhead": [],
        "qk": [ops.gemm("qk", b, n, n, d, dt)],
        "softmax": [ops.softmax_dense(b, n, n, dt)],
        "av": [ops.gemm("av", b, n, d, n, dt)],
    }


def _dfss(cfg: AttentionConfig) -> Dict[str, List[OpCost]]:
    b, n, d, dt = cfg.effective_batch, cfg.seq_len, cfg.head_dim, cfg.dtype
    return {
        "overhead": [],  # pruning is fused into the SDDMM epilogue: zero overhead
        "qk": [ops.sddmm_nm_fused(b, n, n, d, dt)],
        "softmax": [ops.softmax_sparse_nm(b, n, n, dt)],
        "av": [ops.spmm_nm(b, n, n, d, dt)],
    }


def _topk(cfg: AttentionConfig, density: float = 0.05) -> Dict[str, List[OpCost]]:
    b, n, d, dt = cfg.effective_batch, cfg.seq_len, cfg.head_dim, cfg.dtype
    k = max(1, int(density * n))
    av_elem = ops.OpCost(
        name="topk_av_gather",
        flops=2.0 * b * n * k * d,
        bytes_read=b * (n * k + n * k / ops.DEFAULT_TILE + n * d) * 4.0,
        bytes_written=b * n * d * 4.0,
        unit="fp32",
        dtype=dt,
        bandwidth_fraction=0.5,
    )
    return {
        "overhead": [ops.topk_select(b, n, n, k, dt)],
        "qk": [ops.gemm("qk", b, n, n, d, dt)],
        "softmax": [ops.elementwise("softmax_topk", b, n * k, dt, flops_per_elem=5.0)],
        "av": [av_elem],
    }


def _fixed(cfg: AttentionConfig, density: float = 0.5) -> Dict[str, List[OpCost]]:
    b, n, d, dt = cfg.effective_batch, cfg.seq_len, cfg.head_dim, cfg.dtype
    cols = max(1, int(density * n))
    return {
        "overhead": [],
        "qk": [ops.gemm("qk", b, n, cols, d, dt)],
        "softmax": [ops.softmax_dense(b, n, cols, dt)],
        "av": [ops.gemm("av", b, n, d, cols, dt)],
    }


def _local(cfg: AttentionConfig, window: int = 32) -> Dict[str, List[OpCost]]:
    """Sliding-window local attention: banded extents, no per-step overhead.

    The mask is static (the serving structure cache amortises its build to
    zero), so each row touches at most ``2*window + 1`` keys and every stage
    is the dense stage with its column extent cut to the band width.
    """
    b, n, d, dt = cfg.effective_batch, cfg.seq_len, cfg.head_dim, cfg.dtype
    w = min(n, 2 * window + 1)
    return {
        "overhead": [],
        "qk": [ops.gemm("band_qk", b, n, w, d, dt)],
        "softmax": [ops.softmax_dense(b, n, w, dt)],
        "av": [ops.gemm("band_av", b, n, d, w, dt)],
    }


def _longformer(
    cfg: AttentionConfig, window: int = 32, num_global: int = 1
) -> Dict[str, List[OpCost]]:
    """Longformer: the local band plus a few global tokens.

    Regular rows read ``num_global`` extra columns on top of the band; the
    ``num_global`` global rows attend to the full sequence, adding a skinny
    dense stripe whose cost grows linearly in ``n``.
    """
    b, n, d, dt = cfg.effective_batch, cfg.seq_len, cfg.head_dim, cfg.dtype
    g = min(num_global, n)
    w = min(n, 2 * window + 1 + g)
    staged = {
        "overhead": [],
        "qk": [ops.gemm("band_qk", b, n, w, d, dt)],
        "softmax": [ops.softmax_dense(b, n, w, dt)],
        "av": [ops.gemm("band_av", b, n, d, w, dt)],
    }
    if g:
        staged["qk"].append(ops.gemm("global_qk", b, g, n, d, dt))
        staged["softmax"].append(ops.softmax_dense(b, g, n, dt))
        staged["av"].append(ops.gemm("global_av", b, g, d, n, dt))
    return staged


def _bigbird(
    cfg: AttentionConfig,
    block_size: int = 64,
    window_blocks: int = 1,
    num_global_blocks: int = 1,
    num_random_blocks: int = 1,
) -> Dict[str, List[OpCost]]:
    """BigBird: blocked window/global/random pattern.

    Each row block attends to ``2*window_blocks + 1`` window blocks plus the
    global and random blocks — a block-diagonal GEMM whose extent is fixed as
    ``n`` grows.  Global row blocks attend everywhere (a linear stripe, as in
    Longformer) and the random blocks pay a gather to assemble their keys.
    """
    b, n, d, dt = cfg.effective_batch, cfg.seq_len, cfg.head_dim, cfg.dtype
    block = min(block_size, n)
    n_blocks = max(1, -(-n // block))
    kb = min(n_blocks, 2 * window_blocks + 1 + num_global_blocks + num_random_blocks)
    cols = kb * block
    g_rows = min(num_global_blocks * block, n)
    staged = {
        "overhead": [],
        "qk": [ops.gemm("block_qk", b * n_blocks, block, cols, d, dt)],
        "softmax": [ops.softmax_dense(b * n_blocks, block, cols, dt)],
        "av": [ops.gemm("block_av", b * n_blocks, block, d, cols, dt)],
    }
    if num_random_blocks and n_blocks > kb:
        staged["overhead"].append(
            ops.gather(
                "random_block_gather",
                b,
                float(n_blocks * num_random_blocks * block * d),
                dt,
            )
        )
    if g_rows:
        staged["qk"].append(ops.gemm("global_qk", b, g_rows, n, d, dt))
        staged["softmax"].append(ops.softmax_dense(b, g_rows, n, dt))
        staged["av"].append(ops.gemm("global_av", b, g_rows, d, n, dt))
    return staged


def _performer(cfg: AttentionConfig, framework_passes: float = 12.0) -> Dict[str, List[OpCost]]:
    b, n, d, dt = cfg.effective_batch, cfg.seq_len, cfg.head_dim, cfg.dtype
    m = max(1, int(round(d * math.log(d))))  # number of random features
    overhead = [
        ops.gemm("phi_q_proj", b, n, m, d, dt),
        ops.gemm("phi_k_proj", b, n, m, d, dt),
        ops.reduction("q_sqnorm", b, n, d, dt),
        ops.reduction("k_sqnorm", b, n, d, dt),
        ops.reduction("q_rowmax", b, n, m, dt),
        ops.reduction("k_rowmax", b, n, m, dt),
        ops.elementwise("phi_q_exp", b, n * m, dt, flops_per_elem=3.0),
        ops.elementwise("phi_k_exp", b, n * m, dt, flops_per_elem=3.0),
        ops.framework_passes("unfused_glue", b, float(n * m), dt, framework_passes),
    ]
    softmax = [
        ops.reduction("phi_k_colsum", b, m, n, dt),
        ops.gemm("normalizer", b, n, 1, m, dt),
        ops.elementwise("rescale", b, n * d, dt, flops_per_elem=2.0),
    ]
    av = [
        ops.gemm("phiK_T_V", b, m, d, n, dt),
        ops.gemm("phiQ_out", b, n, d, m, dt),
    ]
    return {"overhead": overhead, "qk": [], "softmax": softmax, "av": av}


def _reformer(
    cfg: AttentionConfig, n_hashes: int = 4, chunk: int = 64, framework_passes: float = 16.0
) -> Dict[str, List[OpCost]]:
    b, n, d, dt = cfg.effective_batch, cfg.seq_len, cfg.head_dim, cfg.dtype
    n_buckets = max(2, n // chunk)
    overhead = [
        ops.gemm("lsh_hash", b, n, n_hashes * n_buckets // 2, d, dt),
        ops.sort_rows(b, float(n * n_hashes), dt, launches=3),
        ops.gather("reorder_qkv", b, float(3 * n * d * n_hashes), dt),
        ops.gather("undo_sort", b, float(n * d * n_hashes), dt),
        ops.framework_passes("unfused_glue", b, float(n * d * n_hashes), dt, framework_passes),
    ]
    chunks = max(1, n // chunk) * n_hashes
    qk = [ops.gemm("chunked_qk", b * chunks, chunk, 2 * chunk, d, dt)]
    softmax = [ops.softmax_dense(b * chunks, chunk, 2 * chunk, dt)]
    av = [ops.gemm("chunked_av", b * chunks, chunk, d, 2 * chunk, dt)]
    return {"overhead": overhead, "qk": qk, "softmax": softmax, "av": av}


def _routing(
    cfg: AttentionConfig, kmeans_iters: int = 4, topk_clusters: int = 2,
    framework_passes: float = 14.0,
) -> Dict[str, List[OpCost]]:
    b, n, d, dt = cfg.effective_batch, cfg.seq_len, cfg.head_dim, cfg.dtype
    n_clusters = max(2, int(round(math.sqrt(n))))
    cluster_size = max(1, n // n_clusters) * topk_clusters
    overhead = [
        ops.gemm("kmeans_assign", b * kmeans_iters, n, n_clusters, d, dt),
        ops.reduction("kmeans_update", b * kmeans_iters, n_clusters, d, dt),
        ops.topk_select(b, n, n_clusters, topk_clusters, dt),
        ops.sort_rows(b, float(n * topk_clusters), dt, launches=2),
        ops.gather("cluster_gather", b, float(2 * n * d * topk_clusters), dt),
        ops.gather("cluster_scatter", b, float(n * d * topk_clusters), dt),
        ops.framework_passes("unfused_glue", b, float(n * d), dt, framework_passes),
    ]
    qk = [ops.gemm("cluster_qk", b * n_clusters, cluster_size, cluster_size, d, dt)]
    softmax = [ops.softmax_dense(b * n_clusters, cluster_size, cluster_size, dt)]
    av = [ops.gemm("cluster_av", b * n_clusters, cluster_size, d, cluster_size, dt)]
    return {"overhead": overhead, "qk": qk, "softmax": softmax, "av": av}


def _sinkhorn(
    cfg: AttentionConfig, block: int = 64, sinkhorn_iters: int = 8,
    framework_passes: float = 14.0,
) -> Dict[str, List[OpCost]]:
    b, n, d, dt = cfg.effective_batch, cfg.seq_len, cfg.head_dim, cfg.dtype
    n_blocks = max(1, n // block)
    overhead = [
        ops.reduction("block_means", b, n_blocks, block * d, dt),
        ops.gemm("block_scores", b, n_blocks, n_blocks, d, dt),
        ops.elementwise(
            "sinkhorn_norm", b, float(n_blocks * n_blocks), dt,
            flops_per_elem=4.0, launches=2 * sinkhorn_iters,
        ),
        ops.gather("block_permute", b, float(n * d), dt),
        ops.framework_passes("unfused_glue", b, float(n * d), dt, framework_passes),
    ]
    # each query block attends to its own block and the matched (sorted) block
    qk = [ops.gemm("block_qk", b * n_blocks, block, 2 * block, d, dt)]
    softmax = [ops.softmax_dense(b * n_blocks, block, 2 * block, dt)]
    av = [ops.gemm("block_av", b * n_blocks, block, d, 2 * block, dt)]
    return {"overhead": overhead, "qk": qk, "softmax": softmax, "av": av}


def _nystrom(
    cfg: AttentionConfig, landmarks: int = 64, pinv_iters: int = 6,
    framework_passes: float = 10.0,
) -> Dict[str, List[OpCost]]:
    b, n, d, dt = cfg.effective_batch, cfg.seq_len, cfg.head_dim, cfg.dtype
    m = min(landmarks, n)
    overhead = [
        ops.reduction("landmark_means_q", b, m, (n // max(m, 1)) * d, dt),
        ops.reduction("landmark_means_k", b, m, (n // max(m, 1)) * d, dt),
        ops.gemm("pinv_iter", b * pinv_iters, m, m, m, dt),
        ops.elementwise("dconv_residual", b, float(n * d), dt, flops_per_elem=9.0),
        ops.framework_passes("unfused_glue", b, float(n * m), dt, framework_passes),
    ]
    qk = [
        ops.gemm("q_kl", b, n, m, d, dt),   # Q K~^T
        ops.gemm("ql_kl", b, m, m, d, dt),  # Q~ K~^T
        ops.gemm("ql_k", b, m, n, d, dt),   # Q~ K^T
    ]
    softmax = [
        ops.softmax_dense(b, n, m, dt),
        ops.softmax_dense(b, m, m, dt),
        ops.softmax_dense(b, m, n, dt),
    ]
    av = [
        ops.gemm("kernel3_v", b, m, d, n, dt),   # (m x n) @ V
        ops.gemm("kernel1_pinv", b, n, m, m, dt),
        ops.gemm("out", b, n, d, m, dt),
    ]
    return {"overhead": overhead, "qk": qk, "softmax": softmax, "av": av}


#: Mechanism registry used by the Figure-5 experiment (same ordering as the figure).
ATTENTION_MECHANISMS: Dict[str, Callable[[AttentionConfig], Dict[str, List[OpCost]]]] = {
    "transformer": _dense,
    "dfss": _dfss,
    "performer": _performer,
    "reformer": _reformer,
    "routing": _routing,
    "sinkhorn": _sinkhorn,
    "nystromformer": _nystrom,
    "topk": _topk,
    "fixed": _fixed,
    "local": _local,
    "longformer": _longformer,
    "bigbird": _bigbird,
}


def resolve_latency_model(mechanism: str) -> str:
    """Resolve a registry mechanism name/alias to its latency-model key.

    Accepts anything :func:`repro.registry.find_spec` accepts (canonical
    names, aliases, ``dfss_2:4`` shortcuts) as well as the raw model keys of
    :data:`ATTENTION_MECHANISMS`, so ``attention_latency("full", ...)`` and
    the historical ``attention_latency("transformer", ...)`` hit the same
    model.  Raises ``ValueError`` for unknown names and for mechanisms the
    analytical model does not cover.
    """
    from repro.registry import find_spec

    if mechanism in ATTENTION_MECHANISMS:
        return mechanism
    spec = find_spec(mechanism)  # ValueError on unknown names
    if spec.latency_model is None:
        raise ValueError(
            f"mechanism {spec.name!r} has no analytical latency model; "
            f"modelled mechanisms: {sorted(ATTENTION_MECHANISMS)}"
        )
    return spec.latency_model


def attention_latency(
    mechanism: str,
    config: AttentionConfig,
    device: GpuDevice = AMPERE_A100,
    **mechanism_kwargs,
) -> LatencyBreakdown:
    """Latency breakdown of one attention mechanism at one configuration."""
    model = resolve_latency_model(mechanism)
    staged = ATTENTION_MECHANISMS[model](config, **mechanism_kwargs)
    return _breakdown(mechanism, staged, device)


@dataclass
class TrainingLatency:
    """Forward + backward latency (seconds) of one training step's attention.

    The backward is modelled as the kernel sequence of the analytic
    backward (``dV``/``dP``/softmax-Jacobian/``dQ``/``dK``), for DFSS after
    re-scoring from the saved row statistics; the forward reuses the
    inference breakdown.
    """

    mechanism: str
    forward: LatencyBreakdown
    backward_kernels: List[OpCost]
    backward: float

    @property
    def total(self) -> float:
        return self.forward.total + self.backward


def _dense_bwd_ops(cfg: AttentionConfig) -> List[OpCost]:
    b, n, d, dt = cfg.effective_batch, cfg.seq_len, cfg.head_dim, cfg.dtype
    return [
        ops.gemm("dv", b, n, d, n, dt),  # dV = Pᵀ dO
        ops.gemm("dp", b, n, n, d, dt),  # dP = dO Vᵀ
        ops.elementwise("softmax_bwd", b, float(n * n), dt, flops_per_elem=4.0, reads=2.0),
        ops.gemm("dq", b, n, d, n, dt),  # dQ = dS K
        ops.gemm("dk", b, n, d, n, dt),  # dK = dSᵀ Q
    ]


#: Backward-pass kernel models per latency-model key.  Only the mechanisms the
#: repo actually trains through the compressed pipeline are modelled.
TRAINING_BACKWARD_MODELS: Dict[str, Callable[[AttentionConfig], List[OpCost]]] = {
    "transformer": _dense_bwd_ops,
    "dfss": lambda cfg: ops.nm_attention_bwd_ops(
        cfg.effective_batch, cfg.seq_len, cfg.seq_len, cfg.head_dim, cfg.dtype
    ),
}


def training_attention_latency(
    mechanism: str,
    config: AttentionConfig,
    device: GpuDevice = AMPERE_A100,
) -> TrainingLatency:
    """Forward + backward latency of one attention training step."""
    model = resolve_latency_model(mechanism)
    builder = TRAINING_BACKWARD_MODELS.get(model)
    if builder is None:
        raise ValueError(
            f"mechanism {mechanism!r} has no training backward model; "
            f"modelled mechanisms: {sorted(TRAINING_BACKWARD_MODELS)}"
        )
    forward = attention_latency(mechanism, config, device)
    kernels = builder(config)
    return TrainingLatency(
        mechanism=mechanism,
        forward=forward,
        backward_kernels=kernels,
        backward=ops.total_latency(kernels, device),
    )


def training_attention_speedup(
    mechanism: str,
    config: AttentionConfig,
    device: GpuDevice = AMPERE_A100,
) -> float:
    """Training-step speedup of ``mechanism`` over the dense transformer."""
    dense = training_attention_latency("transformer", config, device)
    other = training_attention_latency(mechanism, config, device)
    return dense.total / other.total


def attention_speedup(
    mechanism: str,
    config: AttentionConfig,
    device: GpuDevice = AMPERE_A100,
    **mechanism_kwargs,
) -> float:
    """Speedup of ``mechanism`` over the dense transformer at ``config``."""
    dense = attention_latency("transformer", config, device)
    other = attention_latency(mechanism, config, device, **mechanism_kwargs)
    return dense.total / other.total


def latency_breakdown_table(
    config: AttentionConfig,
    mechanisms=("transformer", "dfss", "performer", "reformer", "routing", "sinkhorn", "nystromformer"),
    device: GpuDevice = AMPERE_A100,
) -> Dict[str, Dict[str, float]]:
    """Normalised per-stage latencies of several mechanisms (one Figure-5 group)."""
    dense = attention_latency("transformer", config, device)
    table = {}
    for mech in mechanisms:
        table[mech] = attention_latency(mech, config, device).normalized_to(dense)
    return table
