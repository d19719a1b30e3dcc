# ruff: noqa
"""Seeded kernel-contract violations for the analysis test-suite.

This module is **never imported** — the static passes parse it with ``ast``
only, so the impossible registrations below never pollute the live registry.
Every block is a deliberate violation the checker must flag; the test suite
asserts each rule fires at the expected site (and that the CLI exits nonzero
when pointed here).
"""

import numpy as np

from repro.core.backend import FAST, REFERENCE, register_kernel


@register_kernel("fixture_fastonly", FAST)  # KC001: no reference backend
def _fastonly(a, b):
    return a @ b


@register_kernel("fixture_mismatch", REFERENCE)
def _mismatch_ref(scores, v):
    return scores, v


@register_kernel("fixture_mismatch", FAST)  # KC003: parameter names differ
def _mismatch_fast(scores, values):
    n = values.shape[0]
    tile = np.zeros((n, n), dtype=np.float32)  # KC004: dense O(n²) tile
    dense = scores.toarray()  # KC004: densifies a compressed operand
    stale = scores._scatter_cache  # KC006: private layout internals
    return tile, dense, stale


@register_kernel("fixture_refonly", REFERENCE)  # KC002: no fast backend
def _refonly(x):
    return x
