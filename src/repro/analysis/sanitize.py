"""Runtime sanitizer: read-only inputs, write-once structures, leak checks.

Enabled by ``REPRO_SANITIZE=1`` (any of ``1/true/yes/on``).  The static
aliasing pass (:mod:`repro.analysis.aliasing`) proves what it can at the AST
level; this module makes the same contracts *fail loudly at runtime* on the
paths the type system cannot see:

* :func:`guard_input` — hands kernels a read-only **view** of a user input,
  so any in-place mutation of caller data raises immediately at the faulting
  statement (``ValueError: assignment destination is read-only``) instead of
  corrupting the caller's tensors.
* :func:`freeze_structure` — write-once guard on cached structure arrays
  (N:M ``indices`` and the memoised index tables shared across
  ``with_values`` siblings): the array's ``writeable`` flag is dropped after
  construction, so a shared structure can never be silently rewritten by a
  later request.  Value buffers are *never* frozen — the softmax cores and
  the fused jobs write buffers they own by design (the waived
  ``# repro: owns-buffer`` sites).
* :func:`check_output` — asserts the ``MASKED_SCORE`` sentinel and NaN/inf
  never leak into outputs or gradients (an attention output row may carry
  the NaN/inf of its own non-finite inputs).
* :func:`check_adopted` — asserts a gradient an autograd node adopts
  without a copy shares no memory with a live gradient.

All helpers are no-ops when the mode is off, so production paths pay one env
lookup per entry point and nothing else.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

#: Environment variable that switches the sanitizer on.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

_TRUTHY = ("1", "true", "yes", "on")

#: Leak threshold for the masked-logit sentinel.  Kept numerically identical
#: to :data:`repro.core.softmax.MASKED_LOGIT_THRESHOLD` (asserted by the test
#: suite) but defined locally so the sanitizer stays import-cycle-free —
#: the layout containers import this module at class-definition time.
MASKED_SENTINEL_THRESHOLD = -1e29


class SanitizerError(RuntimeError):
    """A runtime contract violation caught under ``REPRO_SANITIZE=1``."""


def sanitize_enabled() -> bool:
    """True when the sanitizer mode is switched on via ``$REPRO_SANITIZE``."""
    return os.environ.get(SANITIZE_ENV_VAR, "").strip().lower() in _TRUTHY


def guard_input(arr):
    """A read-only view of ``arr`` (sanitize mode), else ``arr`` unchanged.

    The view shares memory with the caller's array, so a kernel that writes
    "through" its input faults at the mutating statement itself — the
    strongest possible localisation of an aliasing bug.  Non-array inputs
    pass through untouched.
    """
    if not sanitize_enabled() or not isinstance(arr, np.ndarray):
        return arr
    view = arr.view()
    view.flags.writeable = False
    return view


def freeze_structure(arr, label: str = ""):
    """Drop the ``writeable`` flag of a cached structure array (sanitize mode).

    Clearing the flag is always legal (unlike setting it), so this works for
    views and broadcast results too.  Returns ``arr`` for chaining.
    """
    if sanitize_enabled() and isinstance(arr, np.ndarray) and arr.flags.writeable:
        arr.flags.writeable = False
    return arr


def check_output(arr, context: str, check_sentinel: bool = True, inputs=None):
    """Assert no NaN/inf and no masked-score sentinel leaked into ``arr``.

    Returns ``arr`` unchanged so call sites can wrap producer expressions.
    ``context`` names the tensor in the error (e.g. ``"attention output"``).
    ``inputs`` is the attention's ``(q, k, v)``, with ``arr`` its
    ``(..., n_q, d_v)`` output: a non-finite output row then counts as a leak
    only when that row's query and its slice's keys and values are all
    finite, so a NaN planted in an input may propagate without being
    reported.
    """
    if not sanitize_enabled() or not isinstance(arr, np.ndarray):
        return arr
    if arr.size == 0 or not np.issubdtype(arr.dtype, np.floating):
        return arr
    finite = np.isfinite(arr)
    if not finite.all():
        leaked = ~finite
        if inputs is not None:
            leaked &= _finite_sources(*inputs)[..., None]
        bad = int(np.count_nonzero(leaked))
        if bad:
            raise SanitizerError(
                f"sanitizer: {context} contains {bad} non-finite value(s) "
                f"(NaN/inf leaked out of the masked pipeline)"
            )
    low = float(np.min(arr, where=finite, initial=np.inf))
    if check_sentinel and low <= MASKED_SENTINEL_THRESHOLD:
        raise SanitizerError(
            f"sanitizer: {context} contains the MASKED_SCORE sentinel "
            f"(min={low:.3e} <= {MASKED_SENTINEL_THRESHOLD:.0e}); "
            f"a masked logit escaped the softmax normalisation"
        )
    return arr


def _finite_sources(q, k, v) -> np.ndarray:
    """Per output row ``(..., n_q)``: True where the query row and every key
    and value of its slice are finite."""
    keys_finite = np.isfinite(k).all(axis=(-2, -1)) & np.isfinite(v).all(axis=(-2, -1))
    return np.isfinite(q).all(axis=-1) & keys_finite[..., None]


def check_grads(grads, context: str, inputs=None):
    """Apply :func:`check_output` to a tuple of gradients.

    ``inputs`` is every array the backward read (``q, k, v, d_out``), each
    ``(..., rows, cols)``.  A gradient's ``(...)`` slices where one of them
    is non-finite are not checked: a NaN planted in one query row reaches
    dK and dV through every key that row kept.
    """
    if sanitize_enabled():
        for i, g in enumerate(grads):
            if inputs is not None and isinstance(g, np.ndarray) and not np.isfinite(g).all():
                finite = [np.isfinite(a).all(axis=(-2, -1)) for a in inputs]
                g = g[np.broadcast_to(np.logical_and.reduce(finite), g.shape[:-2])]
            check_output(g, f"{context}[{i}]")
    return grads


def check_adopted(grad: np.ndarray, live, context: str) -> None:
    """Assert an adopted gradient aliases no live gradient (sanitize mode).

    :meth:`Tensor._accumulate <repro.nn.autograd.Tensor._accumulate>`
    stores an adopted gradient without a copy and later accumulates into it
    in place, so it must share no memory with ``live`` — the other
    gradients of the graph being walked, the adopting node's incoming
    gradient among them.  ``live`` is only iterated when the mode is on.
    """
    if not sanitize_enabled():
        return
    for other in live:
        if np.shares_memory(grad, other):
            raise SanitizerError(
                f"sanitizer: the gradient adopted by {context!r} shares memory with "
                f"a live gradient; a backward closure may adopt only an array it "
                f"has just allocated"
            )


def private_copy(arr: np.ndarray, dtype: Optional[np.dtype] = None) -> np.ndarray:
    """A private copy severing any aliasing with caller arrays.

    Used by structure constructors in sanitize mode before freezing: the
    caller keeps its writable array, the structure keeps a frozen private
    copy, and neither can corrupt the other.
    """
    return np.array(arr, dtype=dtype)
