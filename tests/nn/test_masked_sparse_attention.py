"""Parity of every trainable mask core with the dense masked oracle.

Every mask-based mechanism trains through a compressed autograd op —
:func:`repro.nn.sparse_attention.row_block_sparse_attention` (over a static
mechanism's declared structure or one built from a content-dependent mask)
or the N:M op for the DFSS family.  The ground truth is
:func:`repro.nn.functional.dense_masked_attention` over a mask built without
the core — the registered numpy mechanism's mask, or for the DFSS family the
backend's N:M selection of the dense scores — with seeded dropout replayed
from the same generator; the core's ``last_mask()`` must equal that mask.
Inputs are tie-exact lattices (small multiples of 1/2 with a power-of-four
head dim) so outputs and gradients agree to float tolerance.
"""

import numpy as np
import pytest

from repro.baselines.dfss import DfssMechanism
from repro.baselines.fixed import LocalWindowAttention
from repro.core.backend import FAST, MULTICORE, REFERENCE
from repro.core.blocked_ell import sliding_window_mask
from repro.core.multicore import WORKERS_ENV_VAR
from repro.core.sddmm import sddmm_dense
from repro.nn import functional as F
from repro.nn.attention_layer import (
    BigBirdDfssCore,
    DfssCore,
    LinformerDfssCore,
    MaskedScoreCore,
)
from repro.nn.autograd import Tensor
from repro.nn.layers import Dropout
from repro.nn.sparse_attention import masked_sparse_attention
from repro.registry import available_mechanisms, make_core, make_mechanism

#: every compressed mask-based mechanism except the DFSS family, each with
#: options that make its mask non-trivial at L=32
MASK_MECHANISMS = {
    "topk": {"k": 4},
    "local": {"window": 4},
    "sparse_transformer": {"window": 4, "stride": 8},
    "fixed_truncated": {},
    "longformer": {"window": 4},
    "bigbird": {"block_size": 8},
    "reformer": {},
    "routing": {},
    "sinkhorn": {"block_size": 8},
}


def _lattice(shape, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(-2, 3, size=shape) / 2).astype(np.float32)


def _tensors(batch=(2, 3), seq=32, d=16, seed=0):
    shape = tuple(batch) + (seq, d)
    return tuple(
        Tensor(_lattice(shape, seed=seed + i), requires_grad=True) for i in range(3)
    )


class DeadRowLocal(LocalWindowAttention):
    """Local-window mask with one fully masked query row."""

    name = "dead_row"

    def _mask_2d(self, n_q, n_k):
        mask = super()._mask_2d(n_q, n_k)
        mask[0, :] = False
        return mask

    def row_block_keys(self, n_q, n_k):
        ranges, allowed = super().row_block_keys(n_q, n_k)
        return ranges, lambda rows, keys: allowed(rows, keys) & (rows != 0)


def _lookup(mechanism, **options):
    """Independent oracle mask: the registered numpy mechanism's own mask."""
    numpy_mechanism = make_mechanism(mechanism, **options)
    return lambda q, k, backend: numpy_mechanism.attention_mask(q, k)


def _nm_selection(dfss, allowed=None):
    """Independent N:M oracle mask: dense scores through ``backend``'s selection.

    ``dfss._mask`` excludes the scores outside ``allowed`` before
    ``nm_prune_mask``, so a kernel that selected first and excluded
    afterwards would disagree.
    """
    return lambda q, k, backend: dfss._mask(sddmm_dense(q, k), backend, allowed=allowed)


def _bigbird_selection(block_size):
    bigbird = make_mechanism("bigbird", block_size=block_size)
    return _nm_selection(DfssMechanism("2:4"), bigbird._mask_2d(32, 32))


def _window_dfss(block_size):
    """BigBird + DFSS over a band of blocks, against N:M inside the
    blocked-ELL sliding window."""
    window = sliding_window_mask(seq_len=32, block_size=block_size, window_blocks=1)
    return _registered(
        "bigbird_dfss", _nm_selection(DfssMechanism("2:4"), window.dense_mask(32, 32)),
        block_size=block_size, num_global_blocks=0, num_random_blocks=0,
    )


def _registered(mechanism, oracle=None, **options):
    return (
        lambda backend: make_core(mechanism, seq_len_hint=32, backend=backend, **options),
        oracle or _lookup(mechanism, **options),
    )


#: ``(core(backend), oracle mask(q, k, backend))`` per trainable core with a
#: compressed path: every registered mask mechanism, both DFSS patterns, plus
#: a dead query row and BigBird + DFSS over blocked-ELL windows (block_size=2
#: puts a block boundary inside every 2:4 group, so blocked scores must be
#: excluded before the N:M selection).  Every oracle mask is built without
#: the core.
PARITY_CASES = {
    **{name: _registered(name, **options) for name, options in MASK_MECHANISMS.items()},
    "dfss_1:2": _registered("dfss_1:2", _nm_selection(DfssMechanism("1:2"))),
    "dfss_2:4": _registered("dfss_2:4", _nm_selection(DfssMechanism("2:4"))),
    "bigbird_dfss": _registered("bigbird_dfss", _bigbird_selection(8), block_size=8),
    "dead_row": (
        lambda backend: MaskedScoreCore(DeadRowLocal(window=4), backend=backend),
        lambda q, k, backend: DeadRowLocal(window=4).attention_mask(q, k),
    ),
    "bigbird_dfss_window_8": _window_dfss(8),
    "bigbird_dfss_window_2": _window_dfss(2),
}


class TestOracleParity:
    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    @pytest.mark.parametrize("backend", [FAST, REFERENCE, MULTICORE])
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_core_matches_dense_oracle(self, case, backend, dropout, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        make, oracle_mask = PARITY_CASES[case]
        core = make(backend)
        oracle_rng = None
        if dropout:
            core.attn_dropout = Dropout(dropout, seed=5)
            oracle_rng = Dropout(dropout, seed=5).rng
        # several seeded steps: dropout alignment must survive across calls
        for step in range(3 if dropout else 1):
            q1, k1, v1 = _tensors(seed=10 + step)
            q2, k2, v2 = _tensors(seed=10 + step)
            mask = oracle_mask(q2.data, k2.data, backend)
            out = core(q1, k1, v1)
            np.testing.assert_array_equal(
                core.last_mask(), np.broadcast_to(mask, out.shape[:-1] + (32,)),
                err_msg=case,
            )
            expected = F.dense_masked_attention(
                q2, k2, v2, mask, dropout_p=dropout, dropout_rng=oracle_rng
            )
            np.testing.assert_allclose(out.data, expected.data, atol=1e-6, err_msg=case)
            (out * out).sum().backward()
            (expected * expected).sum().backward()
            for a, b in ((q1, q2), (k1, k2), (v1, v2)):
                assert a.grad is not None and b.grad is not None
                # atol absorbs float-order noise amplified by the 1/(1-p)
                # dropout scaling; a misaligned mask would differ at O(1)
                np.testing.assert_allclose(
                    a.grad, b.grad, rtol=1e-5, atol=5e-6, err_msg=case
                )
        if dropout:
            # one draw per call on both sides -> the next draws agree
            assert core.attn_dropout.rng.integers(1 << 62) == oracle_rng.integers(1 << 62)

    @pytest.mark.parametrize("mechanism", ["local", "topk", "dfss_2:4"])
    def test_eval_mode_matches_undropped_oracle(self, mechanism):
        core = make_core(mechanism, seq_len_hint=32)
        core.attn_dropout = Dropout(0.5, seed=42)
        core.attn_dropout.training = False
        q1, k1, v1 = _tensors(seed=26)
        q2, k2, v2 = _tensors(seed=26)
        out = core(q1, k1, v1)
        expected = F.dense_masked_attention(q2, k2, v2, core.last_mask())
        np.testing.assert_allclose(out.data, expected.data, atol=1e-6)

    @pytest.mark.parametrize("mechanism", sorted(MASK_MECHANISMS))
    def test_core_mask_is_the_mechanism_mask(self, mechanism):
        options = MASK_MECHANISMS[mechanism]
        q, k, v = _tensors(seed=2)
        core = make_core(mechanism, seq_len_hint=32, **options)
        core(q, k, v)
        expected = make_mechanism(mechanism, **options).attention_mask(q.data, k.data)
        np.testing.assert_array_equal(core.last_mask(), expected)

    def test_every_compressed_mask_mechanism_is_covered(self):
        # the matrix above must cover what the registry advertises
        advertised = set(
            available_mechanisms(trainable=True, produces_mask=True, compressed=True)
        )
        assert advertised == set(MASK_MECHANISMS) | {"dfss", "bigbird_dfss"}

    def test_linformer_dfss_matches_oracle_over_the_projection(self):
        # the projection is random-normal, so the N:M scores are not
        # tie-exact: the sparse op's tf32-emulated SDDMM rounds differently
        # from the oracle's fp32 matmul (~1e-4 relative), hence the looser
        # tolerances — a wrong mask or misrouted gradient would show up as
        # O(1) differences
        q1, k1, v1 = _tensors(seed=42)
        q2, k2, v2 = _tensors(seed=42)
        core = make_core("linformer_dfss", seq_len_hint=32, proj_dim=16)
        assert isinstance(core, LinformerDfssCore)
        out = core(q1, k1, v1)
        e = Tensor(core._projection(32))
        # the oracle selects N:M on its own dense projected scores
        k_proj = e @ k2
        mask = DfssMechanism("2:4")._mask(
            np.matmul(q2.data, np.swapaxes(k_proj.data, -1, -2)) * np.float32(0.25)
        )
        # the core's selection over the projected keys (its public
        # last_mask() is None: it does not index the dense key axis)
        np.testing.assert_array_equal(mask, DfssCore.last_mask(core))
        assert core.last_mask() is None
        expected = F.dense_masked_attention(q2, k_proj, e @ v2, mask)
        np.testing.assert_allclose(out.data, expected.data, atol=5e-3)
        (out * out).sum().backward()
        (expected * expected).sum().backward()
        for a, b in ((q1, q2), (k1, k2), (v1, v2)):
            np.testing.assert_allclose(a.grad, b.grad, atol=2e-2)


class TestEdgeCases:
    def test_fully_masked_row_zero_output_and_gradients(self):
        q, k, v = _tensors(seed=3)
        core = MaskedScoreCore(DeadRowLocal(window=4))
        out = core(q, k, v)
        np.testing.assert_array_equal(out.data[..., 0, :], 0.0)
        (out * out).sum().backward()
        assert np.all(np.isfinite(q.grad))
        # a dead query row contributes no gradient to its query vector
        np.testing.assert_array_equal(q.grad[..., 0, :], 0.0)

    def test_ragged_row_lengths_parity(self):
        # a hand-built mask with strongly varying nnz per row, including
        # singleton rows and one dead row
        rng = np.random.default_rng(5)
        mask = rng.random((2, 2, 16, 16)) < 0.2
        mask[..., 3, :] = False          # dead row
        mask[..., 5, :] = True           # full row (forces maximum width)
        mask[..., 7, :] = False
        mask[..., 7, 2] = True           # singleton row
        q1, k1, v1 = _tensors(batch=(2, 2), seq=16, seed=6)
        q2, k2, v2 = _tensors(batch=(2, 2), seq=16, seed=6)
        out_s, stats = masked_sparse_attention(q1, k1, v1, mask)
        # one block list per slice; the dead row keeps shift 0, denominator 1
        assert stats.structure.batch_shape == (2, 2)
        np.testing.assert_array_equal(stats.structure.to_mask(), mask)
        assert np.all(stats.shift[..., 3] == 0.0) and np.all(stats.denom[..., 3] == 1.0)
        scale = 1.0 / np.sqrt(q2.shape[-1])
        from repro.core.softmax import masked_dense_softmax

        weights = masked_dense_softmax(
            np.matmul(q2.data, np.swapaxes(k2.data, -1, -2)) * scale, mask
        )
        np.testing.assert_allclose(
            out_s.data, np.matmul(weights, v2.data), atol=1e-5
        )
        out_s.sum().backward()
        assert all(np.all(np.isfinite(t.grad)) for t in (q1, k1, v1))

    def test_2d_mask_broadcasts_over_batch(self):
        q, k, v = _tensors(seed=7)
        from repro.baselines.fixed import local_window_mask

        mask2d = local_window_mask(32, 32, 4)
        out, stats = masked_sparse_attention(q, k, v, mask2d)
        assert out.shape == q.shape
        # one structure every slice shares, statistics per slice
        assert stats.structure.shared
        assert stats.shift.shape == (2, 3, 32)

    def test_head_broadcast_mask_builds_one_block_list_per_batch_row(self):
        # a (batch, 1, n, n) mask serves every head of its batch row
        rng = np.random.default_rng(9)
        mask = rng.random((2, 1, 32, 32)) < 0.3
        q1, k1, v1 = _tensors(seed=12)
        q2, k2, v2 = _tensors(seed=12)
        out, stats = masked_sparse_attention(q1, k1, v1, mask)
        assert stats.structure.batch_shape == (2, 1)
        expected = F.dense_masked_attention(q2, k2, v2, mask)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-6)
        (out * out).sum().backward()
        (expected * expected).sum().backward()
        for a, b in ((q1, q2), (k1, k2), (v1, v2)):
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-5, atol=5e-6)

    def test_dropout_requires_seeded_rng(self):
        q, k, v = _tensors(seed=8)
        mask = np.ones((32, 32), dtype=bool)
        with pytest.raises(ValueError, match="dropout_rng"):
            masked_sparse_attention(q, k, v, mask, dropout_p=0.5, training=True)


class TestDropout:
    def test_dropout_actually_drops(self):
        core = make_core("local", seq_len_hint=32)
        core.attn_dropout = Dropout(0.5, seed=42)
        q, k, v = _tensors(seed=25)
        out1 = core(q, k, v).data.copy()
        out2 = core(q, k, v).data
        assert not np.allclose(out1, out2)


class TestMaskCores:
    @pytest.mark.parametrize("mechanism", MASK_MECHANISMS)
    def test_core_is_a_mask_core(self, mechanism):
        core = make_core(mechanism, seq_len_hint=32)
        assert isinstance(core, MaskedScoreCore)
        assert core.name == mechanism

    def test_static_mask_structure_is_cached_across_steps(self):
        core = make_core("local", seq_len_hint=32)
        q, k, v = _tensors(seed=30)
        core(q, k, v)
        first = core._last_structure[0]
        core(*_tensors(seed=31))
        assert core._last_structure[0] is first

    def test_numpy_mechanism_rejects_core_only_kwargs(self):
        with pytest.raises(TypeError, match="backend"):
            make_mechanism("local", backend="fast")

    def test_training_step_reduces_loss(self):
        from repro.nn.attention_layer import MultiHeadSelfAttention
        from repro.nn.optim import SGD

        layer = MultiHeadSelfAttention(
            model_dim=16, num_heads=2, mechanism="local", seed=0
        )
        opt = SGD(layer.parameters(), lr=0.05)
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 8, 16)).astype(np.float32))
        target = rng.normal(size=(2, 8, 16)).astype(np.float32)
        losses = []
        for _ in range(8):
            layer.zero_grad()
            diff = layer(x) - Tensor(target)
            loss = (diff * diff).mean()
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        assert losses[-1] < losses[0]


class TestComboCores:
    """bigbird_dfss / linformer_dfss gained trainable cores (ROADMAP item)."""

    def test_bigbird_dfss_core_type(self):
        assert isinstance(make_core("bigbird_dfss", seq_len_hint=32), BigBirdDfssCore)

    def test_bigbird_dfss_mask_respects_its_structure(self):
        q, k, v = _tensors(seed=41)
        core = make_core("bigbird_dfss", seq_len_hint=32, block_size=8,
                         num_random_blocks=0)
        core(q, k, v)
        allowed = core.structure(32, 32).to_mask()
        mask = core.last_mask()
        assert not mask[..., ~allowed].any()

    def test_linformer_dfss_projection_rounds_to_pattern_groups(self):
        core = LinformerDfssCore(proj_dim=15, pattern="2:4")
        proj = core._projection(32)
        assert proj.shape[0] % 4 == 0

    def test_combo_cores_are_trainable_in_registry(self):
        trainable = available_mechanisms(trainable=True)
        assert "bigbird_dfss" in trainable and "linformer_dfss" in trainable


class TestBigBirdBlockSize:
    """One block-size rule: halve the configured size until it divides n."""

    @pytest.mark.parametrize("block_size", [8, 12, 24, 48, 64])
    def test_mechanism_core_and_combo_agree(self, block_size):
        n = 64
        mechanism = make_mechanism("bigbird", block_size=block_size)
        expected_block = block_size
        while n % expected_block:
            expected_block //= 2
        assert mechanism.block_size_for(n) == expected_block
        q, k, v = _tensors(batch=(1,), seq=n, seed=50)
        mask = mechanism.attention_mask(q.data, k.data)[0]
        if expected_block < n:
            # a fallback block never degenerates to keeping every entry
            assert mask.sum() < n * n
        core = make_core("bigbird", seq_len_hint=n, block_size=block_size)
        core(q, k, v)
        np.testing.assert_array_equal(core.last_mask()[0], mask)
        dfss_core = make_core("bigbird_dfss", seq_len_hint=n, block_size=block_size)
        dfss_core(q, k, v)
        np.testing.assert_array_equal(dfss_core.structure(n, n).to_mask(), mask)
        combo = make_mechanism("bigbird_dfss", block_size=block_size)
        np.testing.assert_array_equal(
            combo.bigbird.attention_mask(q.data, k.data)[0], mask
        )


@pytest.mark.parametrize("d", [64, 48])
def test_topk_core_selects_the_mechanisms_cells_on_random_scores(d):
    # Random-normal scores have no lattice ties, so a core that selected on
    # unrounded float32 scores would keep other cells than the mechanism's
    # tf32-rounded ones; d=48 also checks the scale's rounding (1/√48 is not
    # a float32).  Q and K are transposed head views, as the layer passes.
    rng = np.random.default_rng(0)
    q, k = (
        rng.standard_normal((2, 256, 2, d)).astype(np.float32).transpose(0, 2, 1, 3)
        for _ in range(2)
    )
    core = make_core("topk", seq_len_hint=256)
    core(Tensor(q), Tensor(k), Tensor(k))
    np.testing.assert_array_equal(core.last_mask(), make_mechanism("topk").attention_mask(q, k))
