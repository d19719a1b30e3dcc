"""Tests for the trainable sparse DFSS attention op and its nn wiring.

Output and gradient parity of every mask core against the dense oracle
lives in ``tests/nn/test_masked_sparse_attention.py``; the tests here pin
the DFSS selection itself, the finite-difference gradient, dropout
placement and the blocked-ELL coarse mask.  Inputs are tie-exact lattices
(entries are small multiples of 1/2 and the head dim is a power of four, so
the score scale is exact and the compressed and dense selections agree).
"""

import copy

import numpy as np
import pytest

from repro.core.backend import FAST, MULTICORE, REFERENCE
from repro.core.blocked_ell import sliding_window_mask
from repro.core.patterns import resolve_pattern
from repro.core.plan import plan_for_nm
from repro.core.pruning import nm_prune_mask
from repro.core.row_block import RowBlockStructure
from repro.nn import functional as F
from repro.nn.attention_layer import DfssCore, MultiHeadSelfAttention
from repro.nn.autograd import Tensor
from repro.nn.layers import Dropout
from repro.nn.sparse_attention import dfss_sparse_attention
from repro.registry import make_core
from repro.utils.seeding import attention_dropout_keep, hashed_uniform

PATTERNS = ["1:2", "2:4"]


def _lattice(shape, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(-2, 3, size=shape) / 2).astype(np.float32)


def _tensors(batch=(2, 3), seq=32, d=16, seed=0):
    shape = tuple(batch) + (seq, d)
    return tuple(
        Tensor(_lattice(shape, seed=seed + i), requires_grad=True) for i in range(3)
    )


class TestGradcheckAgainstDensePath:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("backend", [REFERENCE, FAST, MULTICORE])
    def test_selection_matches_dense_nm_prune(self, pattern, backend):
        # the compressed selection is the one nm_prune_mask picks on the
        # dense scores, so the oracle's mask is the mask the core used
        q, k, v = _tensors(seed=2)
        core = DfssCore(pattern, backend=backend)
        core(q, k, v)
        scores = np.matmul(q.data, np.swapaxes(k.data, -1, -2)) * 0.25
        np.testing.assert_array_equal(
            core.last_mask(), nm_prune_mask(scores, resolve_pattern(pattern))
        )

    def test_finite_difference_gradcheck(self):
        # The analytic gradient treats the N:M selection as a constant of the
        # graph, so central differences are only valid at coordinates whose
        # perturbation does not flip the selection — boundary coordinates are
        # skipped explicitly.
        rng = np.random.default_rng(7)
        shape = (1, 1, 16, 8)
        arrays = [rng.normal(size=shape).astype(np.float32) for _ in range(3)]
        w = rng.normal(size=shape).astype(np.float32)

        def loss(qa, ka, va):
            q, k, v = (Tensor(a, requires_grad=True) for a in (qa, ka, va))
            out, stats = dfss_sparse_attention(q, k, v, pattern="2:4")
            val = (out * Tensor(w)).sum()
            val.backward()
            return float(val.data), (q.grad, k.grad, v.grad), stats.selection

        _, grads, base_idx = loss(*arrays)
        eps = 5e-3
        checked = 0
        for which in range(3):
            for index in [(0, 0, 3, 2), (0, 0, 11, 5), (0, 0, 7, 1)]:
                plus = [a.copy() for a in arrays]
                minus = [a.copy() for a in arrays]
                plus[which][index] += eps
                minus[which][index] -= eps
                val_p, _, idx_p = loss(*plus)
                val_m, _, idx_m = loss(*minus)
                if not (np.array_equal(idx_p, base_idx) and np.array_equal(idx_m, base_idx)):
                    continue  # perturbation crossed a selection boundary
                fd = (val_p - val_m) / (2 * eps)
                assert grads[which][index] == pytest.approx(fd, rel=5e-2, abs=2e-3)
                checked += 1
        assert checked >= 5  # most coordinates must be checkable

    def test_returned_stats_describe_the_mask(self):
        q, k, v = _tensors(seed=3)
        _, stats = dfss_sparse_attention(q, k, v, pattern="2:4")
        mask = stats.to_mask()
        assert mask.mean() == pytest.approx(0.5)
        assert mask.shape == (2, 3, 32, 32)


class TestFullyMaskedRows:
    def test_nn_masked_softmax_zeroes_dead_rows(self):
        x = Tensor(np.zeros((2, 4, 6), np.float32), requires_grad=True)
        mask = np.ones((2, 4, 6), dtype=bool)
        mask[0, 1] = False
        mask[1, 3] = False
        weights = F.masked_softmax(x, mask)
        np.testing.assert_array_equal(weights.data[0, 1], 0.0)
        np.testing.assert_array_equal(weights.data[1, 3], 0.0)
        np.testing.assert_allclose(weights.data[0, 0].sum(), 1.0, atol=1e-6)
        weights.sum().backward()
        assert np.all(np.isfinite(x.grad))
        np.testing.assert_array_equal(x.grad[0, 1], 0.0)

    def test_core_masked_dense_softmax_zeroes_dead_rows(self):
        from repro.core.softmax import masked_dense_softmax

        scores = np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32)
        mask = np.ones((3, 5), dtype=bool)
        mask[2] = False
        out = masked_dense_softmax(scores, mask)
        np.testing.assert_array_equal(out[2], 0.0)
        np.testing.assert_allclose(out[:2].sum(axis=-1), 1.0, atol=1e-6)

    def test_no_uniform_leak_through_dense_oracle(self):
        """The oracle must emit zeros on a row its mask kills entirely."""
        q, k, v = _tensors(seed=4)
        mask = np.ones((32, 32), dtype=bool)
        mask[0, :] = False
        out = F.dense_masked_attention(q, k, v, mask)
        np.testing.assert_array_equal(out.data[..., 0, :], 0.0)


class TestFactoryForwarding:
    def test_backend_is_forwarded(self):
        core = make_core("dfss_2:4", backend="reference")
        assert isinstance(core, DfssCore)
        assert core.backend == "reference"
        assert core.pattern.name == "2:4"

    def test_pattern_is_forwarded(self):
        core = make_core("dfss", pattern="1:2")
        assert core.pattern.name == "1:2"

    def test_pattern_kwarg_beats_name_suffix(self):
        core = make_core("dfss_2:4", pattern="1:2")
        assert core.pattern.name == "1:2"

    @pytest.mark.parametrize("mechanism", [
        "full", "dfss_2:4", "topk", "local", "sparse_transformer", "longformer",
        "bigbird", "linformer", "linear_transformer", "performer",
        "nystromformer", "synthesizer", "reformer",
    ])
    def test_unconsumed_kwargs_raise(self, mechanism):
        with pytest.raises(TypeError):
            make_core(mechanism, definitely_not_a_kwarg=1)


class TestDropoutPlacement:
    def test_sparse_dropout_is_identity_in_eval(self):
        layer = MultiHeadSelfAttention(
            model_dim=16, num_heads=2, mechanism="dfss_2:4", dropout=0.5, seed=0
        )
        layer.eval()
        x = Tensor(np.random.default_rng(0).normal(size=(2, 8, 16)).astype(np.float32))
        out1 = layer(x).data.copy()
        out2 = layer(x).data
        np.testing.assert_array_equal(out1, out2)

    def test_train_dropout_perturbs_attention_not_output_activations(self):
        layer = MultiHeadSelfAttention(
            model_dim=16, num_heads=2, mechanism="dfss_2:4", dropout=0.5, seed=0
        )
        x = Tensor(np.random.default_rng(1).normal(size=(2, 8, 16)).astype(np.float32))
        out1 = layer(x).data.copy()
        out2 = layer(x).data
        # dropout on the attention probabilities re-randomises between calls
        assert not np.allclose(out1, out2)

    def test_train_dropout_gradients_flow(self):
        for mechanism in ("dfss_2:4", "full", "topk"):
            layer = MultiHeadSelfAttention(
                model_dim=16, num_heads=2, mechanism=mechanism, dropout=0.3, seed=0
            )
            x = Tensor(
                np.random.default_rng(2).normal(size=(2, 8, 16)).astype(np.float32),
                requires_grad=True,
            )
            layer(x).sum().backward()
            for name, p in layer.named_parameters():
                assert p.grad is not None and np.all(np.isfinite(p.grad)), name

    def test_resid_dropout_knob(self):
        layer = MultiHeadSelfAttention(
            model_dim=16, num_heads=2, mechanism="full", resid_dropout=0.5, seed=0
        )
        x = Tensor(np.ones((1, 4, 16), np.float32))
        out1 = layer(x).data.copy()
        out2 = layer(x).data
        assert not np.allclose(out1, out2)  # residual dropout active in training
        layer.eval()
        out3 = layer(x).data.copy()
        out4 = layer(x).data
        np.testing.assert_array_equal(out3, out4)

    @pytest.mark.parametrize("mechanism", [
        "linear_transformer", "performer", "linformer", "nystromformer",
        "synthesizer",
    ])
    def test_kernel_and_lowrank_mechanisms_still_get_dropout(self, mechanism):
        layer = MultiHeadSelfAttention(
            model_dim=16, num_heads=2, mechanism=mechanism, dropout=0.5, seed=0,
            max_len=8,
        )
        x = Tensor(np.random.default_rng(5).normal(size=(2, 8, 16)).astype(np.float32))
        out1 = layer(x).data.copy()
        out2 = layer(x).data
        assert not np.allclose(out1, out2), mechanism  # dropout active in training
        layer.eval()
        np.testing.assert_array_equal(layer(x).data, layer(x).data)

    def test_sparse_op_requires_seeded_rng_for_dropout(self):
        q, k, v = _tensors(seed=6)
        with pytest.raises(ValueError, match="dropout_rng"):
            dfss_sparse_attention(q, k, v, dropout_p=0.5, training=True)

    def test_core_swap_reattaches_dropout(self):
        layer = MultiHeadSelfAttention(
            model_dim=16, num_heads=2, mechanism="full", dropout=0.4, seed=0
        )
        layer.set_mechanism("dfss", pattern="2:4")
        assert layer.core.attn_dropout is layer.attn_dropout


class TestDropoutLayoutIndependence:
    """Seeded dropout is keyed by dense positions, so the oracle reproduces it.

    Step-by-step parity of seeded cores against the oracle (one draw per
    call, eval mode as identity) is part of the per-mechanism parity matrix
    in ``tests/nn/test_masked_sparse_attention.py``.
    """

    def test_dropout_actually_drops(self):
        core = DfssCore("2:4")
        core.attn_dropout = Dropout(0.5, seed=42)
        q, k, v = _tensors(seed=21)
        out1 = core(q, k, v).data.copy()
        out2 = core(q, k, v).data
        assert not np.allclose(out1, out2)  # re-randomised between calls

    def test_full_layer_matches_oracle_with_dropout(self):
        # the oracle replays the layer's own projections, mask and dropout
        # generator.  Projected scores are not tie-exact, so the sparse op's
        # tf32-emulated SDDMM rounds differently from the oracle's fp32
        # matmul (~1e-4 output noise, present without dropout too); a
        # misaligned dropout mask would instead zero or double different
        # entries and differ at O(1), so the bound still proves alignment
        layer = MultiHeadSelfAttention(
            model_dim=16, num_heads=2, mechanism="dfss_2:4", dropout=0.4, seed=0,
        )
        x = Tensor(_lattice((2, 8, 16), seed=23))
        rng = copy.deepcopy(layer.attn_dropout.rng)
        out = layer(x).data
        q, k, v = (
            layer._split_heads(proj(x), 2, 8)
            for proj in (layer.q_proj, layer.k_proj, layer.v_proj)
        )
        context = F.dense_masked_attention(
            q, k, v, layer.core.last_mask(), dropout_p=0.4, dropout_rng=rng
        )
        expected = layer.out_proj(layer._merge_heads(context, 2, 8)).data
        np.testing.assert_allclose(out, expected, atol=5e-3)

    def test_hashed_uniform_is_position_keyed(self):
        positions = np.arange(64, dtype=np.uint64).reshape(8, 8)
        full = hashed_uniform(123, positions)
        subset = hashed_uniform(123, positions[::2, 1::3])
        np.testing.assert_array_equal(full[::2, 1::3], subset)
        assert not np.array_equal(full, hashed_uniform(124, positions))
        assert 0.0 <= full.min() and full.max() < 1.0

    def test_attention_dropout_keep_scales_and_validates(self):
        keep = attention_dropout_keep(7, 0.5, np.arange(10_000, dtype=np.uint64))
        assert set(np.unique(keep)) == {0.0, 2.0}
        assert keep.mean() == pytest.approx(1.0, abs=0.05)
        with pytest.raises(ValueError):
            attention_dropout_keep(7, 1.0, np.arange(4, dtype=np.uint64))


def _window_core(seq, block_size, pattern="2:4", backend=None):
    """BigBird + DFSS over a band of blocks only: N:M inside the blocked-ELL
    ``sliding_window_mask(seq, block_size, 1)``."""
    return make_core(
        "bigbird_dfss", seq_len_hint=seq, pattern=pattern, backend=backend,
        block_size=block_size, num_global_blocks=0, num_random_blocks=0,
    )


class TestStructureTrainableOp:
    """The trainable N:M op selects inside a row-block structure's key blocks."""

    def _window(self, seq=32, block_size=8):
        return sliding_window_mask(seq_len=seq, block_size=block_size, window_blocks=1)

    def test_masked_positions_carry_zero_probability(self):
        q, k, v = _tensors(seed=30)
        inside = self._window().dense_mask(32, 32)
        structure = RowBlockStructure.from_mask(inside)
        out, stats = dfss_sparse_attention(q, k, v, pattern="2:4", structure=structure)
        plan_out, plan_stats = plan_for_nm("2:4", 32, 32).forward(
            q.data, k.data, v.data, structure=structure, scale=0.25, return_stats=True
        )
        np.testing.assert_array_equal(out.data, plan_out)
        np.testing.assert_array_equal(stats.to_mask(), plan_stats.to_mask())
        assert not stats.to_mask()[..., ~inside].any()
        # a structured call scores only its blocks: no dense-width P
        with pytest.raises(ValueError, match="structure"):
            plan_for_nm("2:4", 32, 32).forward(
                q.data, k.data, v.data, structure=structure, return_probs=True
            )

    def test_mechanism_mask_excludes_before_selection(self):
        # the numpy DfssMechanism's selection under an allowed mask must be
        # the kernel's on block edges that do not align with N:M groups
        from repro.baselines.dfss import DfssMechanism
        from repro.core.sddmm import sddmm_dense

        rng = np.random.default_rng(40)
        q = (rng.integers(-2, 3, size=(2, 32, 16)) / 2).astype(np.float32)
        k = (rng.integers(-2, 3, size=(2, 32, 16)) / 2).astype(np.float32)
        v = rng.normal(size=(2, 32, 16)).astype(np.float32)
        allowed = self._window(block_size=2).dense_mask(32, 32)
        _, stats = plan_for_nm("2:4", 32, 32).forward(
            q, k, v, structure=RowBlockStructure.from_mask(allowed), return_stats=True
        )
        mech_mask = DfssMechanism(pattern="2:4")._mask(sddmm_dense(q, k), allowed=allowed)
        np.testing.assert_array_equal(stats.to_mask(), mech_mask)

    def test_last_mask_respects_the_structure(self):
        q, k, v = _tensors(seed=32)
        core = _window_core(32, 8)
        core(q, k, v)
        mask = core.last_mask()
        assert not mask[..., ~self._window().dense_mask(32, 32)].any()

    def test_engine_rejects_block_mask(self):
        from repro.engine import AttentionEngine

        with pytest.raises(TypeError, match="block_mask"):
            AttentionEngine("dfss", pattern="2:4", block_mask=self._window())

    def test_structure_with_dropout(self):
        q, k, v = _tensors(seed=33)
        core = _window_core(32, 8)
        core.attn_dropout = Dropout(0.3, seed=5)
        out = core(q, k, v)
        assert np.all(np.isfinite(out.data))
        out.sum().backward()
        assert np.all(np.isfinite(q.grad))


class TestUnalignedKeys:
    """A key count that is no multiple of M trains on the padded key axis.

    The oracle is the dense masked attention under the N:M selection of the
    padded problem, cropped to the real keys (``DfssMechanism._mask``), with
    seeded dropout hashed over the real key count.
    """

    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    @pytest.mark.parametrize("blocked", [False, True])
    @pytest.mark.parametrize("backend", [REFERENCE, FAST, MULTICORE])
    @pytest.mark.parametrize(
        "pattern, seq, block_size", [("2:4", 130, 10), ("1:2", 129, 3)]
    )
    def test_matches_dense_oracle(
        self, pattern, seq, block_size, backend, blocked, dropout
    ):
        from repro.baselines.dfss import DfssMechanism
        from repro.core.sddmm import sddmm_dense

        # block sizes that divide the key count but split M-groups
        allowed = (
            sliding_window_mask(seq_len=seq, block_size=block_size, window_blocks=1)
            .dense_mask(seq, seq) if blocked else None
        )
        core = (
            _window_core(seq, block_size, pattern, backend) if blocked
            else DfssCore(pattern, backend=backend)
        )
        oracle_rng = None
        if dropout:
            core.attn_dropout = Dropout(dropout, seed=5)
            oracle_rng = Dropout(dropout, seed=5).rng
        q1, k1, v1 = _tensors(seq=seq, seed=50)
        q2, k2, v2 = _tensors(seq=seq, seed=50)
        mask = DfssMechanism(pattern)._mask(
            sddmm_dense(q2.data, k2.data), backend, allowed=allowed
        )
        out = core(q1, k1, v1)
        np.testing.assert_array_equal(core.last_mask(), mask)
        expected = F.dense_masked_attention(
            q2, k2, v2, mask, dropout_p=dropout, dropout_rng=oracle_rng
        )
        np.testing.assert_allclose(out.data, expected.data, atol=1e-6)
        (out * out).sum().backward()
        (expected * expected).sum().backward()
        for a, b in ((q1, q2), (k1, k2), (v1, v2)):
            assert a.grad.shape == b.grad.shape
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-5, atol=5e-6)

    def test_returned_selection_spans_the_padded_key_axis(self):
        q, k, v = _tensors(seq=130, seed=51)
        _, stats = dfss_sparse_attention(q, k, v, pattern="2:4")
        assert stats.dense_cols == 132
        assert stats.selection.shape[-1] == 33
        _, probs = plan_for_nm("2:4", 130, 130).forward(
            q.data, k.data, v.data, return_probs=True
        )
        np.testing.assert_array_equal(stats.to_mask(), probs.to_mask()[..., :130])
        np.testing.assert_array_equal(probs.to_dense(0.0)[..., 130:], 0.0)


class TestMemory:
    """fwd+bwd of the N:M op holds one tile per pass, never an n² tensor, and
    keeps no probabilities between them.  The bound is one float32 n² score
    matrix of the operands (8 MiB at B1·H2·L1024): the op peaks at about
    6.9 MiB, and keeping the forward's compressed 2:4 probability values
    (4 MiB) until the backward lifts it to about 10.9 MiB."""

    SHAPE = (1, 2, 1024, 64)
    #: B·H·L² float32 scores, and the values the 2:4 pattern keeps of them
    SCORE_BYTES = SHAPE[0] * SHAPE[1] * SHAPE[2] ** 2 * 4
    PROBABILITY_BYTES = SCORE_BYTES * 2 // 4

    def _peak(self, planted=0):
        import tracemalloc

        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(self.SHAPE, dtype=np.float32) for _ in range(3)]

        def step():
            q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
            out, _ = dfss_sparse_attention(q, k, v, backend=FAST)
            stored = np.ones(planted, np.uint8)  # held from the forward to the backward's end
            out.sum().backward()
            return stored.size

        step()  # warm plans and imports outside the measurement
        tracemalloc.start()
        try:
            step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_training_op_peak_at_most_dense(self):
        peak = self._peak()
        assert peak <= self.SCORE_BYTES, f"dfss peak {peak} B > one n² score matrix"

    def test_bound_catches_stored_probabilities(self):
        assert self._peak(planted=self.PROBABILITY_BYTES) > self.SCORE_BYTES


class TestSparseIsTheDefaultTrainingPath:
    def test_mha_dfss_uses_sparse_op(self):
        layer = MultiHeadSelfAttention(model_dim=16, num_heads=2, mechanism="dfss_2:4")
        assert isinstance(layer.core, DfssCore)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 8, 16)).astype(np.float32))
        layer(x)
        assert layer.core._last_stats is not None  # compressed, not dense autograd

    def test_training_step_reduces_loss(self):
        from repro.nn.optim import SGD

        layer = MultiHeadSelfAttention(model_dim=16, num_heads=2, mechanism="dfss_2:4",
                                       seed=0)
        opt = SGD(layer.parameters(), lr=0.05)
        rng = np.random.default_rng(4)
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
