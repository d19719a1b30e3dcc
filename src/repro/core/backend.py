"""Pluggable kernel backend registry.

The attention pipeline is built from a small number of named kernels — the
row-tiled ``nm_attention`` forward (SDDMM, N:M prune, softmax and SpMM per
row block) and its ``nm_attention_bwd`` backward, the
``row_block_attention`` pair of every other mask (static, content-dependent
and explicit), the staged N:M kernels of the reference chain
(``masked_softmax`` over the compressed nonzeros, ``spmm``/``spmm_t`` of
compressed weights x dense operands, ``sddmm_masked``), and the
``nm_prune_mask`` selection used by the DFSS oracle masks.  Each kernel can have several
interchangeable implementations ("backends") registered against it:

* ``reference`` — the tile-by-tile / per-slice loop implementations that
  mirror the CUDA kernels' structure.  They are slow but transparent and act
  as the numerical oracle for every other backend.
* ``fast`` — fully batched implementations with no Python-level loops over
  batch or head dimensions, used by default everywhere.
* ``multicore`` — the ``fast`` kernels with the fused pairs (``nm_attention``,
  ``row_block_attention`` and their backwards) run as tiles on a thread
  pool.  Each fused kernel is a row-tile job, and
  :func:`repro.core.jobs.register_job_kernel` registers its ``fast`` and
  ``multicore`` kernels together; the pool's module,
  :mod:`repro.core.multicore`, is imported on the first multicore call,
  never at package import.  Any kernel without a ``multicore``
  implementation falls back to ``fast``.

Backend selection, in decreasing priority:

1. the ``backend=...`` argument accepted by every dispatching entry point;
2. an active :func:`use_backend` context;
3. the ``REPRO_BACKEND`` environment variable;
4. the default, ``"fast"``.

Registering a new backend is a one-liner::

    from repro.core.backend import register_kernel

    @register_kernel("spmm", "gpu")
    def spmm_gpu(weights, v):
        ...

after which ``spmm(w, v, backend="gpu")`` (or ``REPRO_BACKEND=gpu``) picks
it up without touching any call site.  A fused kernel registers its
``fast`` and ``multicore`` backends with one decorator on its job class,
whose constructor takes the kernel's arguments::

    @register_job_kernel("row_block_attention", _span_args)
    class RowBlockForwardJob:
        def __init__(self, q, k, v, structure, scale=None, dropout=None,
                     return_stats=False): ...

A compiled :class:`~repro.core.plan.AttentionPlan` resolves its kernels
through :func:`get_kernel` once, at construction, so a backend is nothing
more than the kernels it registers: every layer (autograd op, engine,
serving batcher, bench) picks it up through the plan.
"""

from __future__ import annotations

import difflib
import functools
import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.profile.tracer import current_tracer

#: Canonical backend names shipped with the repository.
REFERENCE = "reference"
FAST = "fast"
MULTICORE = "multicore"
KNOWN_BACKENDS = (REFERENCE, FAST, MULTICORE)

#: Backend used when neither an argument, a context, nor the environment
#: variable selects one.
DEFAULT_BACKEND = FAST

#: Environment variable consulted by :func:`resolve_backend`.
ENV_VAR = "REPRO_BACKEND"

_REGISTRY: Dict[str, Dict[str, Callable]] = {}
_OVERRIDE: Optional[str] = None

#: Kernel fallbacks: a backend that registers only some kernels (multicore
#: registers the fused pairs only) delegates every other kernel to the listed
#: backend, so every entry point stays valid under ``REPRO_BACKEND=multicore``.
_KERNEL_FALLBACKS: Dict[str, str] = {MULTICORE: FAST}


def register_kernel(kernel: str, backend: str) -> Callable[[Callable], Callable]:
    """Decorator registering ``fn`` as the ``backend`` implementation of ``kernel``."""

    def decorator(fn: Callable) -> Callable:
        _REGISTRY.setdefault(kernel, {})[backend] = fn
        return fn

    return decorator


def available_kernels() -> Tuple[str, ...]:
    """Names of all kernels with at least one registered backend."""
    return tuple(sorted(_REGISTRY))


def available_backends(kernel: Optional[str] = None) -> Tuple[str, ...]:
    """Backends registered for ``kernel``, or across all kernels when omitted."""
    if kernel is not None:
        return tuple(sorted(_REGISTRY.get(kernel, {})))
    names = set(KNOWN_BACKENDS)
    for impls in _REGISTRY.values():
        names.update(impls)
    return tuple(sorted(names))


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend name from argument, context, environment, or default.

    Raises ``ValueError`` with the list of valid names for typos such as
    ``REPRO_BACKEND=fats``.
    """
    if backend is None:
        backend = _OVERRIDE
    if backend is None:
        backend = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    name = str(backend).strip().lower()
    valid = available_backends()
    if name not in valid:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {'|'.join(valid)} "
            f"(selectable via a backend= argument or ${ENV_VAR})"
        )
    return name


def get_kernel(kernel: str, backend: Optional[str] = None) -> Callable:
    """Look up the implementation of ``kernel`` for the resolved ``backend``.

    Raises ``KeyError`` for an unregistered kernel name (with a did-you-mean
    hint and the full registered list) and ``ValueError`` for a kernel that
    has no implementation under the resolved backend (listing the backends it
    does have and how to select one).
    """
    if kernel not in _REGISTRY:
        names = available_kernels()
        close = difflib.get_close_matches(str(kernel), names, n=3)
        hint = f" — did you mean {' or '.join(repr(c) for c in close)}?" if close else ""
        raise KeyError(
            f"unknown kernel {kernel!r}{hint}; registered kernels: "
            f"{', '.join(names) if names else 'none'}"
        )
    name = resolve_backend(backend)
    impls = _REGISTRY[kernel]
    if name not in impls and name in _KERNEL_FALLBACKS:
        name = _KERNEL_FALLBACKS[name]
    if name not in impls:
        raise ValueError(
            f"kernel {kernel!r} has no {name!r} backend; available backends "
            f"for it: {', '.join(sorted(impls)) if impls else 'none'} "
            f"(select one via a backend= argument, use_backend(), or ${ENV_VAR})"
        )
    fn = impls[name]
    if current_tracer() is None:
        # Disabled fast path: hand back the registered function itself, so
        # untraced runs keep both zero overhead and function identity.
        return fn
    return _tracing_wrapper(kernel, name, fn)


def _arg_shape(args: Tuple, kwargs: Dict) -> Optional[str]:
    """``"2x4x256x64"`` for the first array-like argument, if any."""
    for value in (*args, *kwargs.values()):
        shape = getattr(value, "shape", None)
        if isinstance(shape, tuple):
            return "x".join(str(d) for d in shape)
    return None


def _tracing_wrapper(kernel: str, backend: str, fn: Callable) -> Callable:
    """Wrap a registered kernel so each call emits a ``cat="kernel"`` span.

    Only built while a trace session is active; the plan cache is cleared at
    session start/stop (see :mod:`repro.core.plan`), so plans compiled before
    or after a session never hold one of these wrappers.  A kernel whose
    function carries a ``span_args(*args, **kwargs) -> dict`` attribute adds
    those entries (e.g. its tile geometry) to the span.
    """
    describe = getattr(fn, "span_args", None)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = current_tracer()
        if tracer is None:
            return fn(*args, **kwargs)
        span = {"backend": backend, "shape": _arg_shape(args, kwargs)}
        if describe is not None:
            span.update(describe(*args, **kwargs))
        start = tracer._now_us()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.emit_complete(
                kernel, "kernel", start, tracer._now_us() - start, span
            )

    traced.__wrapped__ = fn
    return traced


@contextmanager
def use_backend(backend: str) -> Iterator[None]:
    """Context manager selecting ``backend`` for every dispatch inside the block.

    Explicit ``backend=`` arguments still win; the environment variable is
    shadowed for the duration of the block.
    """
    global _OVERRIDE
    name = str(backend).strip().lower()
    valid = available_backends()
    if name not in valid:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {'|'.join(valid)}"
        )
    previous = _OVERRIDE
    _OVERRIDE = name
    try:
        yield
    finally:
        _OVERRIDE = previous
