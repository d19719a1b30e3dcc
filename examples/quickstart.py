"""Quickstart: DFSS as a drop-in replacement for full attention (Figure 3 of the paper).

Run with ``python examples/quickstart.py``.
"""

import numpy as np

import repro
from repro.core import sddmm_nm
from repro.core.theory import speedup_dfss
from repro.gpusim import attention_speedup
from repro.gpusim.attention_latency import AttentionConfig


def main() -> None:
    rng = np.random.default_rng(0)
    batch, heads, seq, dim = 2, 4, 256, 64
    q = rng.normal(size=(batch, heads, seq, dim)).astype(np.float32)
    k = rng.normal(size=(batch, heads, seq, dim)).astype(np.float32)
    v = rng.normal(size=(batch, heads, seq, dim)).astype(np.float32)

    # --- the one line a user changes (Figure 3) ----------------------------
    # before: out = softmax(q @ k.T / sqrt(d)) @ v
    out_full = repro.attention(q, k, v, mechanism="full")
    # after:
    out_dfss = repro.attention(q, k, v, mechanism="dfss_2:4", dtype="bfloat16")
    # -----------------------------------------------------------------------

    rel_err = np.linalg.norm(out_dfss - out_full) / np.linalg.norm(out_full)
    print(f"output shape                : {out_dfss.shape}")
    print(f"relative error vs full attn : {rel_err:.4f}")

    # the same mechanism as a reusable engine, with introspection
    engine = repro.AttentionEngine("dfss", pattern="2:4", dtype="bfloat16")
    info = engine.describe()
    flags = {key: info[key] for key in
             ("trainable", "produces_mask", "compressed", "batchable")}
    print(f"engine                      : {engine!r} flags={flags}")
    print(f"registered mechanisms       : {', '.join(repro.available_mechanisms())}")

    # the compressed representation the kernel writes to memory
    scores = sddmm_nm(q[0, 0], k[0, 0], pattern="2:4", dtype="bfloat16")
    print(f"compressed nonzeros shape   : {scores.values.shape} (dense was {scores.dense_shape})")
    print(f"metadata stream shape       : {scores.packed_metadata().shape} (uint16 blocks)")
    print(f"attention-matrix compression: {scores.compression_ratio():.2f}x")

    # what the A100 performance model predicts for this configuration
    cfg = AttentionConfig(seq_len=seq, head_dim=dim, num_heads=heads, dtype="bfloat16")
    print(f"modelled attention speedup  : {attention_speedup('dfss', cfg):.2f}x "
          f"(asymptotic traffic bound {speedup_dfss():.2f}x, paper band 1.27-1.89x)")


if __name__ == "__main__":
    main()
