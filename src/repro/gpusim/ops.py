"""Per-operator cost records for the analytical GPU model.

Every primitive used by an attention mechanism is described by an
:class:`OpCost`: the floating-point work it performs, the DRAM bytes it reads
and writes (with the tiling-reuse factors of Appendix A.3), which execution
unit it runs on, and how many kernel launches it needs.  The device then turns
an OpCost into a latency with a simple roofline:

    ``latency = max(flops / unit_throughput, bytes / effective_bandwidth)
                + launches * launch_overhead``

All builder functions take explicit problem sizes (batch, sequence length,
head dimension, ...) so mechanism models in
:mod:`repro.gpusim.attention_latency` stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.core.precision import dtype_bytes
from repro.gpusim.device import GpuDevice

#: Default GEMM thread-block tile edge (the paper's ``T``).
DEFAULT_TILE = 128


@dataclass
class OpCost:
    """Cost record of one GPU kernel (or fused kernel)."""

    name: str
    flops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    unit: str = "fp32"  # "tensor", "sparse_tensor", "fp32", "memory"
    dtype: str = "float32"
    launches: int = 1
    bandwidth_fraction: float = 1.0

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written

    def latency(self, device: GpuDevice) -> float:
        """Roofline latency of the kernel on ``device`` in seconds."""
        if self.unit == "tensor":
            compute = self.flops / device.matmul_flops(self.dtype, sparse=False)
        elif self.unit == "sparse_tensor":
            compute = self.flops / device.matmul_flops(self.dtype, sparse=True)
        elif self.unit == "fp32":
            compute = self.flops / device.fp32_flops
        elif self.unit == "memory":
            compute = 0.0
        else:
            raise ValueError(f"unknown execution unit {self.unit!r}")
        bandwidth = device.dram_bandwidth * self.bandwidth_fraction
        memory = self.bytes_total / bandwidth
        return max(compute, memory) + self.launches * device.kernel_launch_overhead


def total_latency(ops: List[OpCost], device: GpuDevice) -> float:
    """Sum of the latencies of a list of kernels."""
    return float(sum(op.latency(device) for op in ops))


# --------------------------------------------------------------------- GEMMs
def _round_up(x: int, multiple: int) -> int:
    return ((int(x) + multiple - 1) // multiple) * multiple


def gemm(
    name: str,
    batch: int,
    m: int,
    n: int,
    k: int,
    dtype: str = "float32",
    tile: int = DEFAULT_TILE,
    write_output: bool = True,
) -> OpCost:
    """Dense GEMM ``(m x k) @ (k x n)`` repeated ``batch`` times.

    DRAM traffic follows the tiled model of Appendix A.3: each operand element
    is re-read ``m/tile`` (resp. ``n/tile``) times, the output is written once.
    Two second-order effects matter for the chunked / clustered baselines,
    which issue huge batches of *tiny* GEMMs:

    * tile quantisation — output dimensions are padded to the warp-tile grid,
      so a 22x22 cluster GEMM pays for a 32x32 one;
    * occupancy / coalescing loss — GEMMs much smaller than the thread-block
      tile cannot saturate DRAM; the effective bandwidth is scaled by
      ``sqrt(m*n / tile^2)`` (floored at 1/8).
    """
    elem = dtype_bytes(dtype)
    m_pad, n_pad, k_pad = _round_up(m, 32), _round_up(n, 32), _round_up(k, 32)
    reads = (
        batch
        * (m_pad * k_pad * max(1.0, n_pad / tile) + k_pad * n_pad * max(1.0, m_pad / tile))
        * elem
    )
    writes = batch * m_pad * n_pad * elem if write_output else 0.0
    utilisation = min(1.0, max(1.0 / 8.0, (m_pad * n_pad) / float(tile * tile)) ** 0.5)
    return OpCost(
        name=name,
        flops=2.0 * batch * m_pad * n_pad * k_pad,
        bytes_read=reads,
        bytes_written=writes,
        unit="tensor",
        dtype=dtype,
        bandwidth_fraction=utilisation,
    )


def sddmm_nm_fused(
    batch: int, n_q: int, n_k: int, d: int, dtype: str, tile: int = DEFAULT_TILE
) -> OpCost:
    """Fused dense GEMM + N:M prune epilogue (the paper's SDDMM kernel).

    Reads Q and K with tiling reuse like the dense GEMM, but writes only the
    compressed nonzeros (half the dense output) plus the 1/16 metadata; the
    pruning itself happens in registers and costs no extra traffic.
    """
    elem = dtype_bytes(dtype)
    reads = batch * (n_q * d * max(1.0, n_k / tile) + d * n_k * max(1.0, n_q / tile)) * elem
    nonzeros = batch * n_q * n_k / 2.0 * elem
    metadata = batch * n_q * n_k / 16.0 * elem
    return OpCost(
        name="sddmm_nm",
        flops=2.0 * batch * n_q * n_k * d,
        bytes_read=reads,
        bytes_written=nonzeros + metadata,
        unit="tensor",
        dtype=dtype,
    )


def spmm_nm(
    batch: int, n_q: int, n_k: int, d_v: int, dtype: str, tile: int = DEFAULT_TILE
) -> OpCost:
    """SpMM of the N:M-compressed weights with dense V on the sparse tensor core."""
    elem = dtype_bytes(dtype)
    nonzeros = batch * n_q * n_k / 2.0 * elem
    metadata = batch * n_q * n_k / 16.0 * elem
    v_reads = batch * n_k * d_v * max(1.0, n_q / tile) * elem
    out = batch * n_q * d_v * elem
    return OpCost(
        name="spmm_nm",
        flops=batch * n_q * n_k * d_v,  # half the dense MACs survive
        bytes_read=nonzeros + metadata + v_reads,
        bytes_written=out,
        unit="sparse_tensor",
        dtype=dtype,
    )


def spmm_t_nm(
    batch: int, n_q: int, n_k: int, d_v: int, dtype: str, tile: int = DEFAULT_TILE
) -> OpCost:
    """Transposed SpMM ``Pᵀ @ dO`` of the training backward (``dV``, ``dK``).

    Same compressed-operand traffic as the forward SpMM — the nonzeros and
    metadata are re-read, the dense operand is read with tiling reuse over the
    *output* rows (``n_k`` of them now) — but the transposed access runs
    column-major against the row-compressed layout, so accumulation goes
    through atomics / a workspace and the effective bandwidth drops.
    """
    elem = dtype_bytes(dtype)
    nonzeros = batch * n_q * n_k / 2.0 * elem
    metadata = batch * n_q * n_k / 16.0 * elem
    dense_reads = batch * n_q * d_v * max(1.0, n_k / tile) * elem
    out = batch * n_k * d_v * elem
    return OpCost(
        name="spmm_t_nm",
        flops=batch * n_q * n_k * d_v,  # half the dense MACs survive
        bytes_read=nonzeros + metadata + dense_reads,
        bytes_written=out,
        unit="sparse_tensor",
        dtype=dtype,
        bandwidth_fraction=0.75,
    )


def sddmm_masked_nm(
    batch: int, n_q: int, n_k: int, d: int, dtype: str, tile: int = DEFAULT_TILE
) -> OpCost:
    """Masked SDDMM ``dP = (dO @ Vᵀ)`` sampled at the stored nonzeros.

    The backward reuses the forward's pruning decision, so the metadata is
    read (not recomputed or rewritten) and only the surviving half of the
    products is materialised.
    """
    elem = dtype_bytes(dtype)
    reads = (
        batch
        * (n_q * d * max(1.0, n_k / tile) + d * n_k * max(1.0, n_q / tile))
        * elem
    )
    metadata = batch * n_q * n_k / 16.0 * elem
    nonzeros = batch * n_q * n_k / 2.0 * elem
    return OpCost(
        name="sddmm_masked_nm",
        flops=2.0 * batch * n_q * n_k * d,
        bytes_read=reads + metadata,
        bytes_written=nonzeros,
        unit="tensor",
        dtype=dtype,
    )


def softmax_bwd_nm(batch: int, rows: int, cols: int, dtype: str) -> OpCost:
    """Softmax Jacobian on compressed rows: ``dS = P ⊙ (dP − Σ P ⊙ dP)``.

    Reads both compressed operands (P and dP), writes dS; a multiply, a row
    reduction, a broadcast subtract and a multiply per surviving element.
    """
    elem = dtype_bytes(dtype)
    n_elems = batch * rows * cols / 2.0
    return OpCost(
        name="softmax_bwd_nm",
        flops=4.0 * n_elems,
        bytes_read=2.0 * n_elems * elem,
        bytes_written=n_elems * elem,
        unit="fp32",
        dtype=dtype,
    )


def attention_bwd_nm_ops(
    batch: int, n_q: int, n_k: int, d: int, dtype: str, tile: int = DEFAULT_TILE
) -> List[OpCost]:
    """The kernel sequence of the fused N:M attention backward.

    ``dV = Pᵀ dO`` (transposed SpMM), ``dP`` (masked SDDMM), the compressed
    softmax Jacobian, then ``dQ = dS K`` (SpMM) and ``dK = dSᵀ Q``
    (transposed SpMM) — the compressed mirror of the five-op dense backward,
    with every matrix operand at N:M density.
    """
    return [
        replace(spmm_t_nm(batch, n_q, n_k, d, dtype, tile), name="spmm_t_dv"),
        replace(sddmm_masked_nm(batch, n_q, n_k, d, dtype, tile), name="sddmm_dp"),
        replace(softmax_bwd_nm(batch, n_q, n_k, dtype), name="softmax_bwd"),
        replace(spmm_nm(batch, n_q, n_k, d, dtype, tile), name="spmm_dq"),
        replace(spmm_t_nm(batch, n_q, n_k, d, dtype, tile), name="spmm_t_dk"),
    ]


def nm_attention_bwd_ops(
    batch: int, n_q: int, n_k: int, d: int, dtype: str, tile: int = DEFAULT_TILE
) -> List[OpCost]:
    """The kernel sequence of the recomputing N:M attention backward.

    The training forward saves only each row's softmax shift and
    denominator, so the backward first re-scores and re-selects (the fused
    SDDMM + prune epilogue again) and recomputes the kept probabilities
    ``exp(s − shift) / denom`` in one element-wise pass over the compressed
    scores, reading the two per-row statistics; then it runs the five ops of
    :func:`attention_bwd_nm_ops`.
    """
    elem = dtype_bytes(dtype)
    kept = n_q * n_k / 2.0
    recompute = replace(
        elementwise("softmax_recompute", batch, kept, dtype, flops_per_elem=3.0),
        bytes_read=batch * (kept + 2.0 * n_q) * elem,
    )
    return [
        replace(sddmm_nm_fused(batch, n_q, n_k, d, dtype, tile), name="sddmm_rescore"),
        recompute,
        *attention_bwd_nm_ops(batch, n_q, n_k, d, dtype, tile),
    ]


def row_block_attention_ops(
    tiles: int, rows: int, width: int, pairs: int, d: int, dtype: str, backward: bool = False
) -> List[OpCost]:
    """The row-block forward's kernels over ``tiles`` block tiles whose
    largest is ``rows × width``: ``Q K[keys]ᵀ``, the tile softmax and
    ``P V[keys]``.  The recomputing ``backward`` runs the first two to rebuild
    P from the saved row statistics, then ``dV``, ``dP``, the softmax
    Jacobian, ``dQ`` and ``dK``.

    Each kernel is priced at the largest tile (its tile quantisation
    included), scaled by the share of that work the tiles do: ``pairs``, the
    query-key pairs they score (Σ rows·width), over ``tiles·rows·width``.
    """
    share = pairs / float(tiles * rows * width)
    kernels = [
        gemm("block_qk", tiles, rows, width, d, dtype), softmax_dense(tiles, rows, width, dtype)
    ]
    if not backward:
        kernels.append(gemm("block_pv", tiles, rows, d, width, dtype))
    else:
        kernels += [
            gemm("block_dv", tiles, width, d, rows, dtype),
            gemm("block_dp", tiles, rows, width, d, dtype),
            softmax_dense(tiles, rows, width, dtype),
            gemm("block_dq", tiles, rows, d, width, dtype),
            gemm("block_dk", tiles, width, d, rows, dtype),
        ]
    return [
        replace(op, flops=op.flops * share, bytes_read=op.bytes_read * share,
                bytes_written=op.bytes_written * share)
        for op in kernels
    ]


# ------------------------------------------------------------- element-wise ops
def softmax_dense(batch: int, rows: int, cols: int, dtype: str) -> OpCost:
    """Dense softmax: read the score matrix, write the weight matrix."""
    elem = dtype_bytes(dtype)
    n_elems = batch * rows * cols
    return OpCost(
        name="softmax",
        flops=5.0 * n_elems,
        bytes_read=n_elems * elem,
        bytes_written=n_elems * elem,
        unit="fp32",
        dtype=dtype,
    )


def softmax_sparse_nm(batch: int, rows: int, cols: int, dtype: str) -> OpCost:
    """Softmax over the compressed nonzeros (half the elements of the dense one)."""
    elem = dtype_bytes(dtype)
    n_elems = batch * rows * cols / 2.0
    return OpCost(
        name="softmax_nm",
        flops=5.0 * n_elems,
        bytes_read=n_elems * elem,
        bytes_written=n_elems * elem,
        unit="fp32",
        dtype=dtype,
    )


def elementwise(name: str, batch: int, elems: float, dtype: str, flops_per_elem: float = 1.0,
                reads: float = 1.0, writes: float = 1.0, launches: int = 1) -> OpCost:
    """Generic streaming element-wise kernel touching ``elems`` elements."""
    elem = dtype_bytes(dtype)
    return OpCost(
        name=name,
        flops=flops_per_elem * batch * elems,
        bytes_read=reads * batch * elems * elem,
        bytes_written=writes * batch * elems * elem,
        unit="fp32",
        dtype=dtype,
        launches=launches,
    )


def reduction(name: str, batch: int, rows: int, cols: int, dtype: str) -> OpCost:
    """Row reduction (max / sum / mean) over a ``rows x cols`` matrix."""
    elem = dtype_bytes(dtype)
    return OpCost(
        name=name,
        flops=batch * rows * cols,
        bytes_read=batch * rows * cols * elem,
        bytes_written=batch * rows * elem,
        unit="fp32",
        dtype=dtype,
    )


# ------------------------------------------------ sorting / gathering primitives
def topk_select(batch: int, rows: int, cols: int, k: int, dtype: str) -> OpCost:
    """Per-row top-k selection; multiple passes at degraded effective bandwidth."""
    elem = dtype_bytes(dtype)
    passes = 2.0  # select + compact
    return OpCost(
        name="topk",
        flops=batch * rows * cols * 4.0,
        bytes_read=passes * batch * rows * cols * elem,
        bytes_written=batch * rows * k * elem,
        unit="fp32",
        dtype=dtype,
        bandwidth_fraction=0.25,
        launches=2,
    )


def sort_rows(batch: int, elems: float, dtype: str, launches: int = 2) -> OpCost:
    """Key-value radix sort of ``elems`` items (used by LSH / routing / sinkhorn)."""
    elem = dtype_bytes(dtype)
    passes = 4.0
    return OpCost(
        name="sort",
        flops=batch * elems * 8.0,
        bytes_read=passes * batch * elems * elem,
        bytes_written=passes * batch * elems * elem,
        unit="fp32",
        dtype=dtype,
        bandwidth_fraction=0.25,
        launches=launches,
    )


def gather(name: str, batch: int, elems: float, dtype: str) -> OpCost:
    """Gather / scatter of ``elems`` elements at reduced effective bandwidth."""
    elem = dtype_bytes(dtype)
    return OpCost(
        name=name,
        flops=0.0,
        bytes_read=batch * elems * elem,
        bytes_written=batch * elems * elem,
        unit="memory",
        dtype=dtype,
        bandwidth_fraction=0.4,
    )


def framework_passes(
    name: str, batch: int, elems: float, dtype: str, passes: float
) -> OpCost:
    """Unfused framework overhead: ``passes`` full read+write sweeps over a tensor.

    The baselines the paper benchmarks are research PyTorch implementations
    built from dozens of separate reshape / rearrange / mask / concat /
    normalisation operators, each of which launches a kernel and streams the
    whole activation through DRAM.  The paper applies ``torch.jit.script``
    "when possible", which fuses some but by no means all of these; this cost
    record models the remaining non-fused sweeps and is the main reason those
    mechanisms lose at short and moderate sequence lengths (Section 5.2).
    """
    elem = dtype_bytes(dtype)
    return OpCost(
        name=name,
        flops=batch * elems * passes,
        bytes_read=batch * elems * elem * passes,
        bytes_written=batch * elems * elem * passes,
        unit="fp32",
        dtype=dtype,
        launches=max(1, int(round(passes))),
    )
