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
* ``new_buffer()`` — the scratch one executor reuses across its tiles;
* ``run(tile, buf)`` — one tile;
* ``label(tile)`` — the tile's ``(rows, shape)`` trace labels;
* ``result()`` — the kernel's return value, once every tile has run.

:func:`register_job_kernel` registers a job class as two backends of its
kernel: ``fast`` runs the tiles in order on the calling thread
(:func:`run_inline`) and ``multicore`` runs them on the worker pool
(:func:`repro.core.multicore._run_job`, imported on the first call).  Both
run the same tile code over the same tile list, so their outputs are
bitwise equal whatever the worker count.

The layouts also share their operand checks (:func:`attention_operands`)
and the seeded attention-dropout hash (:func:`dropout_keep`).
"""

from __future__ import annotations

import inspect
from typing import Callable, Tuple

import numpy as np

from repro.core.backend import FAST, MULTICORE, register_kernel
from repro.core.sddmm import _prepare_inputs
from repro.utils.seeding import attention_dropout_keep
from repro.utils.shapes import as_batched_3d

__all__ = ["Dropout", "attention_operands", "dropout_keep", "register_job_kernel", "run_inline"]

#: Seeded attention dropout of one call: ``(seed, p)``.
Dropout = Tuple[int, float]


def attention_operands(q, k, v, structure=None):
    """``(q3, k3, v3, batch_shape)``: float32 Q, K and V with their batch
    axes flattened, checked to share one batch shape, Q and K one feature
    width, and K and V one key count — and, given a ``structure``, its
    ``(n_q, n_k)``."""
    q3, k3, batch_shape = _prepare_inputs(q, k)
    v3, v_batch = as_batched_3d(np.asarray(v, dtype=np.float32))
    if v_batch != batch_shape:
        raise ValueError(f"V batch shape {v_batch} != Q batch shape {batch_shape}")
    if v3.shape[1] != k3.shape[1]:
        raise ValueError(f"V rows ({v3.shape[1]}) must equal the key count ({k3.shape[1]})")
    if structure is not None and (q3.shape[1], k3.shape[1]) != (structure.n_q, structure.n_k):
        raise ValueError(
            f"operands are {q3.shape[1]}x{k3.shape[1]} but the structure is "
            f"{structure.n_q}x{structure.n_k}"
        )
    return q3, k3, v3, batch_shape


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
