"""DFSS core: dynamic N:M fine-grained structured sparse attention.

This package implements the paper's primary contribution:

* :mod:`repro.core.backend` — the pluggable kernel registry dispatching every
  hot kernel to a ``reference`` (tile-by-tile/loop oracle) or ``fast``
  (batched, loop-free) implementation, selectable per call or via
  ``$REPRO_BACKEND``;
* :mod:`repro.core.patterns` / :mod:`repro.core.pruning` — the dynamic N:M
  selection rule;
* :mod:`repro.core.metadata` / :mod:`repro.core.sparse` — the compressed
  (nonzeros, metadata) representation consumed by sparse-tensor-core SpMM;
* :mod:`repro.core.sddmm`, :mod:`repro.core.softmax`, :mod:`repro.core.spmm` —
  the three attention stages with the fused pruning epilogue;
* :mod:`repro.core.plan` — the compiled plan/execute layer: an
  :class:`AttentionPlan` built once per (mechanism, layout, backend, dtype,
  shape-class) runs one fused forward and one backward per layout (N:M
  lanes, or row blocks for every other mask) as the one execution entry
  point every layer shares;
* :mod:`repro.core.row_block` — the row-block layout of the static,
  content-dependent and explicit masks;
* :mod:`repro.core.attention` — the ``full_attention`` / ``dfss_attention``
  public API and the :class:`DfssAttention` drop-in object;
* :mod:`repro.core.attention_grad` — the analytic backward pass of DFSS
  attention on the compressed representation (transposed SpMM, masked SDDMM,
  compressed softmax Jacobian);
* :mod:`repro.core.lottery`, :mod:`repro.core.theory`, :mod:`repro.core.mse` —
  the analytical results of Section 4 and the appendices;
* :mod:`repro.core.blocked_ell` — hybrid blocked-ELL + N:M sparsity.
"""

from repro.core.attention import DfssAttention, dfss_attention, full_attention
from repro.core import nm_attention as _nm_attention  # noqa: F401  (registers the kernel)
from repro.core.attention_grad import (
    masked_attention_bwd,
    softmax_grad_compressed,
)
from repro.core.backend import (
    available_backends,
    available_kernels,
    get_kernel,
    register_kernel,
    resolve_backend,
    use_backend,
)
from repro.core.plan import (
    AttentionPlan,
    PlanKey,
    clear_plan_cache,
    plan_cache_stats,
    plan_for_blocks,
    plan_for_nm,
)
from repro.core.row_block import RowBlockStructure
from repro.core.blocked_ell import (
    BlockedEllMask,
    bigbird_mask,
    full_mask,
    global_tokens_mask,
    sliding_window_mask,
)
from repro.core.patterns import (
    NMPattern,
    PATTERN_1_2,
    PATTERN_2_4,
    default_pattern_for_dtype,
    resolve_pattern,
)
from repro.core.layout import CompressedLayout
from repro.core.precision import quantize, simulate_tensor_core_matmul, to_bfloat16
from repro.core.pruning import nm_compress, nm_decompress, nm_prune_dense, nm_prune_mask
from repro.core.sddmm import sddmm_dense, sddmm_masked, sddmm_nm, sddmm_nm_tiled
from repro.core.softmax import dense_softmax, sparse_softmax
from repro.core.sparse import NMSparseMatrix
from repro.core.spmm import spmm, spmm_t

__all__ = [
    "DfssAttention",
    "dfss_attention",
    "masked_attention_bwd",
    "full_attention",
    "softmax_grad_compressed",
    "CompressedLayout",
    "available_backends",
    "available_kernels",
    "get_kernel",
    "register_kernel",
    "resolve_backend",
    "use_backend",
    "AttentionPlan",
    "PlanKey",
    "clear_plan_cache",
    "plan_cache_stats",
    "plan_for_blocks",
    "plan_for_nm",
    "RowBlockStructure",
    "BlockedEllMask",
    "bigbird_mask",
    "full_mask",
    "global_tokens_mask",
    "sliding_window_mask",
    "NMPattern",
    "PATTERN_1_2",
    "PATTERN_2_4",
    "default_pattern_for_dtype",
    "resolve_pattern",
    "quantize",
    "simulate_tensor_core_matmul",
    "to_bfloat16",
    "nm_compress",
    "nm_decompress",
    "nm_prune_dense",
    "nm_prune_mask",
    "sddmm_dense",
    "sddmm_masked",
    "sddmm_nm",
    "sddmm_nm_tiled",
    "dense_softmax",
    "sparse_softmax",
    "NMSparseMatrix",
    "spmm",
    "spmm_t",
]
