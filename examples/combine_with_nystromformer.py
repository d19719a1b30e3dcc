"""Appendix-A.7 / Table-6 workflow: combining DFSS with Nyströmformer.

Pretrains a Nyströmformer on the synthetic pixel-sequence image task, then
finetunes it briefly with and without DFSS pruning of the two large Nyström
kernels, and also shows the forward-only combination operators
(`nystromformer_dfss`, `bigbird_dfss` and `linformer_dfss`, built by name).

Run with ``python examples/combine_with_nystromformer.py [--scale smoke|default|full]``.
"""

import argparse

import numpy as np

from repro import AttentionEngine
from repro.experiments.table6_nystrom_dfss import run as run_table6


def main(scale: str = "smoke", seed: int = 0) -> None:
    # 1. forward-only combination operators, constructed through the registry
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(2, 128, 64)).astype(np.float32) * 0.5
    k = rng.normal(size=(2, 128, 64)).astype(np.float32) * 0.5
    v = rng.normal(size=(2, 128, 64)).astype(np.float32)
    for engine in (
        AttentionEngine("nystromformer", num_landmarks=32),
        AttentionEngine("nystromformer_dfss", num_landmarks=32, pattern="2:4"),
        AttentionEngine("bigbird_dfss", block_size=32, pattern="2:4"),
        AttentionEngine("linformer_dfss", proj_dim=32, pattern="2:4"),
    ):
        out = engine(q, k, v)
        mech = engine.mechanism()
        print(f"{engine.spec.label:32s} output {out.shape}, "
              f"approx. error vs full attention {mech.approximation_error(q, k, v):.3f}")

    # 2. the Table-6 experiment: pretrain Nystromformer, finetune the combination
    print("\nTable-6 experiment (pretrain Nystromformer, light finetune of the combination):")
    result = run_table6(scale=scale, seed=seed)
    for row in result["rows"]:
        print(f"  {row[0]:28s} accuracy {row[1]:.2f}%")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", default="smoke", choices=["smoke", "default", "full"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    main(args.scale, args.seed)
