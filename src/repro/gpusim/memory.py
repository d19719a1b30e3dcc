"""Peak activation-memory model (Figure 16).

The paper measures the peak memory allocation of the 4-layer LRA text
classification model under each attention mechanism.  The dominant term at
long sequence length is the attention weight matrix (``n² `` per head for the
dense transformer, compressed to ``n²/2 + n²/16`` by DFSS); the remaining
activations (QKV, FFN intermediates, embeddings) are mechanism-independent.
Only the live working set of one layer is counted (activations of previous
layers can be freed / recomputed), which is what PyTorch's peak allocation
roughly tracks during inference.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.core.precision import dtype_bytes
from repro.gpusim.end_to_end import LayerConfig


def _base_activations_bytes(cfg: LayerConfig) -> float:
    """Mechanism-independent activations of one layer (QKV, FFN, residuals)."""
    elem = dtype_bytes(cfg.dtype)
    b, n, dm, dff = cfg.batch_size, cfg.seq_len, cfg.model_dim, cfg.ffn_hidden
    qkv = 3 * b * n * dm * elem
    attn_out = b * n * dm * elem
    ffn_mid = b * n * dff * elem
    residuals = 2 * b * n * dm * elem
    return qkv + attn_out + ffn_mid + residuals


def attention_peak_memory(mechanism: str, cfg: LayerConfig) -> float:
    """Peak bytes attributable to the attention weight structures of one layer.

    ``mechanism`` is resolved through the unified registry
    (:func:`repro.gpusim.attention_latency.resolve_latency_model`), so
    canonical names (``full``, ``fixed_truncated``) and the historical model
    keys (``transformer``, ``fixed``) address the same entry.
    """
    from repro.gpusim.attention_latency import resolve_latency_model

    mechanism = resolve_latency_model(mechanism)
    elem = dtype_bytes(cfg.dtype)
    b, h, n, d = cfg.batch_size, cfg.num_heads, cfg.seq_len, cfg.head_dim
    heads = b * h
    if mechanism == "transformer":
        return heads * n * n * elem
    if mechanism == "dfss":
        return heads * (n * n / 2.0 + n * n / 16.0) * elem
    if mechanism == "fixed":
        return heads * n * n / 2.0 * elem
    if mechanism == "topk":
        k = max(1, int(0.05 * n))
        return heads * (n * k * elem + n * k * 4.0)  # values + int32 indices
    if mechanism == "performer":
        m = max(1, int(round(d * math.log(d))))
        return heads * (2 * n * m + m * d) * elem
    if mechanism == "reformer":
        chunk, n_hashes = 64, 2
        chunks = max(1, n // chunk) * n_hashes
        return heads * (chunks * chunk * 2 * chunk * elem + n * n_hashes * 4.0 * 2)
    if mechanism == "routing":
        n_clusters = max(2, int(round(math.sqrt(n))))
        c = max(1, n // n_clusters)
        return heads * (n_clusters * c * c * elem + n * 4.0 * 2)
    if mechanism == "sinkhorn":
        block = 64
        n_blocks = max(1, n // block)
        return heads * (n_blocks * block * 2 * block * elem + n_blocks * n_blocks * elem)
    if mechanism == "nystromformer":
        m = min(64, n)
        return heads * (2 * n * m + m * m + n * d) * elem
    raise ValueError(f"unknown mechanism {mechanism!r}")


def end_to_end_peak_memory(mechanism: str, cfg: LayerConfig) -> float:
    """Peak activation bytes of the model under ``mechanism`` (one live layer)."""
    return _base_activations_bytes(cfg) + attention_peak_memory(mechanism, cfg)


def training_attention_memory(mechanism: str, cfg: LayerConfig) -> float:
    """Peak bytes attributable to attention in one *training* layer.

    The dense transformer, and the compressed ``fixed`` and ``topk``
    pipelines, keep the forward's attention weights alive for the backward,
    and the backward materialises one gradient of the same structure
    (``dP``/``dS`` reuse one buffer in the analytic backward): twice
    :func:`attention_peak_memory`.

    DFSS keeps no probabilities.  Its training forward saves each row's
    softmax shift and denominator (float32) and the N:M selection, one code
    byte per M-group (the pattern is the dtype's default, 2:4 for
    bfloat16), and the recomputing backward rebuilds ``P̃ = exp(s − shift)``
    and ``dS`` one ``DEFAULT_TILE``-row tile at a time, float32, so one
    tile of each is live.

    The remaining mechanisms keep their attention structures plus the dense
    gradient of their attention output.
    """
    from repro.core.patterns import default_pattern_for_dtype
    from repro.gpusim.attention_latency import resolve_latency_model
    from repro.gpusim.ops import DEFAULT_TILE

    b, h, n = cfg.batch_size, cfg.num_heads, cfg.seq_len
    model = resolve_latency_model(mechanism)
    if model == "dfss":
        rows = b * h * n
        stats = rows * 2 * 4.0
        selection = rows * math.ceil(n / default_pattern_for_dtype(cfg.dtype).m)
        tiles = 2 * min(n, DEFAULT_TILE) * n * 4.0
        return stats + selection + tiles
    weights = attention_peak_memory(mechanism, cfg)
    if model in ("transformer", "fixed", "topk"):
        return 2 * weights
    return weights + b * h * n * cfg.head_dim * dtype_bytes(cfg.dtype)


def training_peak_memory(mechanism: str, cfg: LayerConfig) -> float:
    """Peak activation bytes of one *training* layer (Table-5-style claims):
    the layer's activations, the gradients of Q, K and V, and
    :func:`training_attention_memory`."""
    elem = dtype_bytes(cfg.dtype)
    qkv_grads = 3 * cfg.batch_size * cfg.seq_len * cfg.model_dim * elem
    return _base_activations_bytes(cfg) + qkv_grads + training_attention_memory(mechanism, cfg)


def training_memory_reduction(mechanism: str, cfg: LayerConfig) -> float:
    """Dense training peak memory divided by ``mechanism``'s training peak."""
    dense = training_peak_memory("transformer", cfg)
    other = training_peak_memory(mechanism, cfg)
    return dense / other


def memory_reduction(mechanism: str, cfg: LayerConfig) -> float:
    """Dense-transformer peak memory divided by ``mechanism``'s peak memory."""
    dense = end_to_end_peak_memory("transformer", cfg)
    other = end_to_end_peak_memory(mechanism, cfg)
    return dense / other


def memory_table(cfg: LayerConfig, mechanisms=("dfss", "performer", "reformer", "routing", "sinkhorn", "nystromformer")) -> Dict[str, float]:
    """Peak memory of several mechanisms normalised to the dense transformer (Figure 16)."""
    dense = end_to_end_peak_memory("transformer", cfg)
    return {mech: end_to_end_peak_memory(mech, cfg) / dense for mech in mechanisms}
