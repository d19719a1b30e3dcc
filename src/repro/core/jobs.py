"""Row-tile jobs: the one driver of the fused attention kernels.

Each fused kernel is one job class — ``nm_attention`` and
``nm_attention_bwd`` over N:M lanes (:mod:`repro.core.nm_attention`),
``row_block_attention`` and ``row_block_attention_bwd`` over static-mask key
blocks (:mod:`repro.core.row_block`).  The constructor takes the kernel's
arguments, checks the operands and allocates the outputs; the job then
offers:

* ``tiles`` — independent units of work (row blocks or batch slices) that
  write disjoint parts of the outputs, so any executor may run them in any
  order and on any thread;
* ``new_buffer()`` — the scratch one executor reuses across its tiles,
  cache-line aligned (:func:`aligned_empty`);
* ``run(tile, buf)`` — one tile;
* ``label(tile)`` — the tile's ``(rows, shape)`` trace labels;
* ``result()`` — the kernel's return value, once every tile has run.

:func:`register_job_kernel` registers a job class as two backends of its
kernel: ``fast`` runs the tiles in order on the calling thread
(:func:`run_inline`) and ``multicore`` runs them on the worker pool
(:func:`repro.core.multicore._run_job`, imported on the first call).  Both
run the same tile code over the same tile list, so their outputs are
bitwise equal whatever the worker count.

The layouts also share their operand contract (:func:`attention_operands`,
:func:`batch_slices`) and the seeded attention-dropout hash
(:func:`dropout_keep`).

The operand contract: read in place, write in Q's layout.  Q, K, V and the
backward's dO and O are never flattened into contiguous copies.  A kernel
keeps each operand's batch axes and strides — the transposed head views
``x.reshape(B, L, H, d).transpose(0, 2, 1, 3)`` of a multi-head layer as
much as contiguous arrays — and a tile reads its ``(batch·head)`` slice as
the ``(rows, cols)`` view :func:`batch_slices` indexes, whatever its row
stride.  A tile copies only what it already stages for its own products
(tf32-rounded Q rows, the lane-major Kᵀ, K and V of the N:M backward), and
an unaligned key axis is still padded.  Outputs are allocated with
``np.empty_like``/``np.zeros_like`` in the memory order of the operand they
follow (the attention output and dQ in Q's, dK in K's, dV in V's), so the
caller's inverse transpose and reshape — a layer's head merge, autograd's
backward of its head split — are views, not copies.
"""

from __future__ import annotations

import inspect
from typing import Callable, List, Tuple

import numpy as np

from repro.core.backend import FAST, MULTICORE, register_kernel
from repro.utils.seeding import attention_dropout_keep

__all__ = [
    "Dropout",
    "aligned_empty",
    "attention_operands",
    "batch_slices",
    "dropout_keep",
    "register_job_kernel",
    "run_inline",
]

#: Seeded attention dropout of one call: ``(seed, p)``.
Dropout = Tuple[int, float]


def _operand(x) -> np.ndarray:
    """``x`` as float32 with at least one batch axis, in place: a float32
    array is not copied, and a 2-D one gains a leading axis of one as a
    view."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim < 2:
        raise ValueError(f"expected at least a 2-D array, got shape {x.shape}")
    return x[None] if x.ndim == 2 else x


def attention_operands(q, k, v, structure=None):
    """``(q, k, v, batch_shape)``: float32 Q, K and V read in place, each
    ``(..., rows, cols)`` with its batch axes and strides as given (a 2-D
    operand is viewed with one batch axis), checked to share one batch
    shape, Q and K one feature width, and K and V one key count — and,
    given a ``structure``, its ``(n_q, n_k)``.  ``batch_shape`` is the
    callers' batch shape, ``()`` for 2-D operands, which
    :func:`~repro.utils.shapes.restore_batch_shape` gives the results."""
    batch_shape = np.shape(q)[:-2]
    q, k, v = (_operand(x) for x in (q, k, v))
    for name, x in (("K", k), ("V", v)):
        if x.shape[:-2] != q.shape[:-2]:
            raise ValueError(f"{name} batch shape {x.shape[:-2]} != Q batch shape {q.shape[:-2]}")
    if q.shape[-1] != k.shape[-1]:
        raise ValueError(f"Q feature dim {q.shape[-1]} != K feature dim {k.shape[-1]}")
    if v.shape[-2] != k.shape[-2]:
        raise ValueError(f"V rows ({v.shape[-2]}) must equal the key count ({k.shape[-2]})")
    if structure is not None and (q.shape[-2], k.shape[-2]) != (structure.n_q, structure.n_k):
        raise ValueError(
            f"operands are {q.shape[-2]}x{k.shape[-2]} but the structure is "
            f"{structure.n_q}x{structure.n_k}"
        )
    return q, k, v, batch_shape


def batch_slices(x) -> List[np.ndarray]:
    """The ``(rows, cols)`` view of every batch slice of a ``(..., rows,
    cols)`` float32 operand, in flattened (C) batch order: slice ``b`` of
    any tile is ``batch_slices(x)[b]``, read in place whatever its
    strides."""
    x = _operand(x)
    return [x[index] for index in np.ndindex(x.shape[:-2])]


def aligned_empty(shape: Tuple[int, ...]) -> np.ndarray:
    """An uninitialised float32 array whose data starts on a 64-byte
    (cache-line) boundary: a job's reused tile buffer.

    ``malloc`` aligns to 16 bytes only, so where a tile buffer lands within
    a cache line depends on everything allocated before it.  The elementwise
    passes over a misaligned tile split their vector loads across lines; at
    B1·H2·L4096 a 16-byte shift of the N:M lane planes slowed the forward
    by 2–5 %.
    """
    nbytes = 4 * int(np.prod(shape, dtype=np.int64))
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(np.float32).reshape(shape)


def dropout_keep(dropout: Dropout, rows, cols, n_keys: int) -> np.ndarray:
    """Inverted-dropout keep mask of the attention weights at flattened query
    rows ``rows`` (``batch · n_q + row``) and key columns ``cols``, broadcast
    together.

    Every weight hashes its dense position ``row · n_keys + col`` with the
    real (unpadded) key count: the position
    :func:`repro.nn.functional.dense_masked_attention` hashes, so every
    layout, tile and executor drops the same entries.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    positions = rows * np.uint64(n_keys) + np.asarray(cols, dtype=np.uint64)
    return attention_dropout_keep(*dropout, positions)


def run_inline(job):
    """``fast``'s executor: every tile in order on the calling thread, in one
    ``job.new_buffer()``, then ``job.result()``."""
    buf = job.new_buffer()
    for tile in job.tiles:
        job.run(tile, buf)
    return job.result()


def register_job_kernel(kernel: str, span_args: Callable[..., dict]) -> Callable[[type], type]:
    """Class decorator registering a job class as the ``fast`` and
    ``multicore`` implementations of ``kernel``.

    Both take the constructor's arguments, so the class's signature is the
    kernel's.  ``span_args`` receives those arguments by name, defaults
    applied, and returns what the registry's tracing wrapper adds to the
    kernel's span.
    """

    def decorator(job_cls: type) -> type:
        signature = inspect.signature(job_cls)

        def describe(*args, **kwargs) -> dict:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return span_args(**bound.arguments)

        def fast(*args, **kwargs):
            return run_inline(job_cls(*args, **kwargs))

        def multicore(*args, **kwargs):
            from repro.core.multicore import _run_job

            return _run_job(kernel, job_cls(*args, **kwargs))

        for backend, fn in ((FAST, fast), (MULTICORE, multicore)):
            fn.__name__ = fn.__qualname__ = f"{job_cls.__name__}.{backend}"
            fn.span_args = describe
            register_kernel(kernel, backend)(fn)
        return job_cls

    return decorator
