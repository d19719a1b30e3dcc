"""Differential parity of the blocked-ELL + N:M hybrid (BigBird + DFSS).

The hybrid runs the N:M kernels over BigBird's row-block structure: each
tile scores one key block's keys, widened to whole M-groups, and a widened
lane the block does not allow scores ``MASKED_SCORE`` before the selection.
Each draw checks it against the dense rule "mask, then select per group"
(``DfssBigBirdAttention.attention_mask``, built without the kernels):

* forward and backward match :func:`repro.nn.functional.dense_masked_attention`
  under that mask, with seeded dropout replayed from the same generator: the
  output within ``rtol=1e-5, atol=1e-6``, the gradients within ``rtol=1e-5,
  atol=5e-6``, the tolerance of the other gradient checks against that
  oracle.  A gradient of a global key sums every row's terms in float32, so
  both sides round by about 1e-6 there: 2 of 1000 draws missed ``atol=1e-6``,
  and in the pinned draw the kernel is nearer the float64 value than the
  oracle;
* ``NMStats.to_mask()`` is bitwise that mask;
* ``multicore`` at 2 workers is bitwise ``fast``;
* a batch is bitwise its slices run alone.

Draws cover random-normal and tie-exact lattice inputs, 1:2 and 2:4, key
counts that are no multiple of M, and BigBird block sizes that are no
multiple of M (n=130 halves the block size to 2, n=97 to 1), so groups
straddle block edges.  Q and K are rounded to tensorfloat-32, the precision
both the kernels and the oracle mask's scores multiply in, so the
random-normal scores agree to float32 summation order.
"""

import os
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.backend import FAST, MULTICORE, use_backend
from repro.core.multicore import WORKERS_ENV_VAR
from repro.core.precision import tensor_core_operand
from repro.nn import functional as F
from repro.nn.autograd import Tensor
from repro.nn.sparse_attention import dfss_sparse_attention
from repro.registry import make_mechanism


def _inputs(kind, shape, seed):
    rng = np.random.default_rng(seed)
    if kind == "ties":
        draw = lambda: (rng.integers(-2, 3, size=shape) / 2).astype(np.float32)  # noqa: E731
    else:
        draw = lambda: rng.standard_normal(shape, dtype=np.float32)  # noqa: E731
    q, k, v, g = (draw() for _ in range(4))
    return tensor_core_operand(q), tensor_core_operand(k), v, g


def _train(backend, q, k, v, g, pattern, structure, dropout_p, seed):
    """``(out, selection, shift, denom, dQ, dK, dV)`` of one hybrid step."""
    qt, kt, vt = (Tensor(x, requires_grad=True) for x in (q, k, v))
    with use_backend(backend):
        out, stats = dfss_sparse_attention(
            qt, kt, vt, pattern=pattern, structure=structure, dropout_p=dropout_p,
            dropout_rng=np.random.default_rng(seed), training=dropout_p > 0,
        )
        out.backward(g)
    return (out.data, stats.selection, stats.shift, stats.denom,
            qt.grad, kt.grad, vt.grad), stats


def _assert_bitwise(a, b):
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


@settings(max_examples=25, deadline=None)
@given(
    pattern=st.sampled_from(["1:2", "2:4"]),
    n=st.sampled_from([64, 97, 130, 136]),
    block_size=st.sampled_from([8, 16, 64]),
    batch=st.sampled_from([(1,), (2,), (2, 2)]),
    kind=st.sampled_from(["normal", "ties"]),
    dropout_p=st.sampled_from([0.0, 0.25]),
    seed=st.integers(0, 2**16),
)
@example(pattern="2:4", n=97, block_size=8, batch=(2,), kind="normal", dropout_p=0.25,
         seed=163)
def test_hybrid_matches_the_dense_rule(
    pattern, n, block_size, batch, kind, dropout_p, seed
):
    combo = make_mechanism(
        "bigbird_dfss", pattern=pattern, block_size=block_size, seed=seed % 7
    )
    structure = combo.bigbird.cached_structure(n, n)
    q, k, v, g = _inputs(kind, batch + (n, 16), seed)
    mask = combo.attention_mask(q, k)

    fast, stats = _train(FAST, q, k, v, g, pattern, structure, dropout_p, seed)
    np.testing.assert_array_equal(stats.to_mask(), mask)

    # the dense rule, with the same seeded dropout
    qt, kt, vt = (Tensor(x, requires_grad=True) for x in (q, k, v))
    expected = F.dense_masked_attention(
        qt, kt, vt, mask, dropout_p=dropout_p, dropout_rng=np.random.default_rng(seed)
    )
    expected.backward(g)
    for name, got, want in zip(
        ("out", "dQ", "dK", "dV"), (fast[0], *fast[4:]),
        (expected.data, qt.grad, kt.grad, vt.grad),
    ):
        atol = 1e-6 if name == "out" else 5e-6
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=atol, err_msg=name)

    with mock.patch.dict(os.environ, {WORKERS_ENV_VAR: "2"}):
        tiled, _ = _train(MULTICORE, q, k, v, g, pattern, structure, dropout_p, seed)
    _assert_bitwise(fast, tiled)

    if dropout_p == 0.0:
        # dropout hashes the flattened batch row, so only undropped slices
        # are the same call alone
        for index in np.ndindex(batch):
            alone, _ = _train(FAST, q[index], k[index], v[index], g[index], pattern,
                              structure, 0.0, seed)
            _assert_bitwise([x[index] for x in fast], alone)
