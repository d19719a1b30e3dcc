"""Runtime sanitizer: guards fire on seeded violations, clean paths pass."""

import numpy as np
import pytest

from repro.analysis.sanitize import (
    MASKED_SENTINEL_THRESHOLD,
    SanitizerError,
    check_output,
    guard_input,
    sanitize_enabled,
)
from repro.core.plan import AttentionPlan, PlanKey
from repro.core.row_block import RowBlockStructure
from repro.core.softmax import MASKED_LOGIT_THRESHOLD
from repro.core.sparse import NMSparseMatrix
from repro.nn.autograd import Node, Tensor
from repro.nn.sparse_attention import dfss_sparse_attention, masked_sparse_attention


@pytest.fixture
def sanitize(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


def _qkv(rows=8, cols=16, d=4, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((rows, d)).astype(np.float32)
    k = rng.standard_normal((cols, d)).astype(np.float32)
    v = rng.standard_normal((cols, d)).astype(np.float32)
    return q, k, v


def _nm_plan():
    key = PlanKey(
        mechanism="dfss_2:4",
        layout="nm",
        backend="fast",
        dtype="float32",
        shape_class=(8, 16, 8),
    )
    return AttentionPlan(key)  # uncached: safe to monkey with its kernels


def _block_plan():
    """An uncached row-block plan over a causal 8x16 mask, and its structure."""
    structure = RowBlockStructure.from_mask(np.tril(np.ones((8, 16), dtype=bool)))
    key = PlanKey(
        mechanism="masked",
        layout="row_block",
        backend="fast",
        dtype="float32",
        shape_class=(8, 16, structure.max_width),
    )
    return AttentionPlan(key), structure


class TestModeSwitch:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        arr = np.ones(3, dtype=np.float32)
        assert guard_input(arr) is arr  # no wrapping when off
        bad = np.full(3, np.nan, dtype=np.float32)
        assert check_output(bad, "x") is bad  # no checking when off

    def test_truthy_values(self, monkeypatch):
        for value in ("1", "true", "YES", " on "):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert sanitize_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled()

    def test_threshold_matches_the_softmax_constant(self):
        assert MASKED_SENTINEL_THRESHOLD == MASKED_LOGIT_THRESHOLD


class TestSeededViolations:
    def test_kernel_mutating_its_input_faults(self, sanitize):
        q, k, v = _qkv()
        plan, structure = _block_plan()

        def mutating_forward(q, k, val, *args):
            val[0, 0] = 0.0  # the seeded violation
            return np.zeros((8, val.shape[-1]), dtype=np.float32), None

        plan._forward = mutating_forward
        with pytest.raises(ValueError, match="read-only"):
            plan.forward(q, k, v, structure=structure)
        assert v[0, 0] != 0.0  # the caller's array survived the attempt

    def test_kernel_leaking_masked_score_detected(self, sanitize):
        q, k, v = _qkv()
        plan, structure = _block_plan()
        plan._forward = lambda *args: (np.full((8, 4), np.float32(-1e30)), None)
        with pytest.raises(SanitizerError, match="MASKED_SCORE sentinel"):
            plan.forward(q, k, v, structure=structure)

    def test_kernel_leaking_nan_detected(self, sanitize):
        q, k, v = _qkv()
        plan, structure = _block_plan()
        plan._forward = lambda *args: (np.full((8, 4), np.nan, dtype=np.float32), None)
        with pytest.raises(SanitizerError, match="non-finite"):
            plan.forward(q, k, v, structure=structure)

    def test_gradient_leak_detected(self, sanitize):
        q, k, v = _qkv()
        plan = _nm_plan()
        out, stats = plan.forward(q, k, v, scale=0.25, return_stats=True)
        plan._bwd = lambda *a, **kw: (
            np.full((8, 4), np.inf, dtype=np.float32),
            np.zeros((16, 4), dtype=np.float32),
            np.zeros((16, 4), dtype=np.float32),
        )
        with pytest.raises(SanitizerError, match="attention gradient"):
            plan.backward(stats, q, k, v, np.ones((8, 4), np.float32), 0.25, out=out)


class TestPlantedNonFiniteInputs:
    """A NaN planted in an input may reach the outputs and gradients it
    feeds; only non-finite values computed from finite inputs are a leak."""

    def _plan(self, backend="fast"):
        key = PlanKey(
            mechanism="dfss_2:4", layout="nm", backend=backend, dtype="float32",
            shape_class=(8, 16, 8),
        )
        return AttentionPlan(key)

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_nan_query_row_is_not_a_leak(self, sanitize, backend):
        q, k, v = _qkv()
        q[3, 1] = np.nan
        out = self._plan(backend).forward(q, k, v, scale=0.25)
        assert np.isnan(out[3]).all() and np.isfinite(np.delete(out, 3, axis=0)).all()

    def test_nan_key_excuses_its_slice_only(self, sanitize):
        q, k, v = _qkv()
        out = np.zeros((2, 8, 4), dtype=np.float32)
        out[:, 2] = np.nan
        k2 = np.stack([k, k])
        k2[0, 5, 0] = np.nan
        with pytest.raises(SanitizerError, match="4 non-finite"):
            check_output(out, "attention output", inputs=(np.stack([q, q]), k2, np.stack([v, v])))

    def test_leak_on_finite_inputs_still_raises(self, sanitize):
        q, k, v = _qkv()
        plan = self._plan()

        def leaking_nm_forward(*args, **kwargs):
            out = np.zeros((8, 4), dtype=np.float32)
            out[6, 2] = np.inf  # the seeded leak: row 6's inputs are finite
            return out, None

        plan._forward = leaking_nm_forward
        with pytest.raises(SanitizerError, match="1 non-finite"):
            plan.forward(q, k, v, scale=0.25)
        q[6, 0] = np.nan  # the same row's query is now non-finite: excused
        assert np.isinf(plan.forward(q, k, v, scale=0.25)[6, 2])

    def test_nan_query_row_trains_under_the_sanitizer(self, sanitize):
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal((2, 2, 64, 16)).astype(np.float32) for _ in range(3)]
        arrays[0][1, 0, 5, 3] = np.nan
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
        out, _ = dfss_sparse_attention(q, k, v, pattern="2:4")
        out.sum().backward()
        assert np.isnan(q.grad[1, 0, 5]).all()
        assert np.isfinite(np.delete(q.grad[1, 0], 5, axis=0)).all()
        for grad in (q.grad, k.grad, v.grad):  # the other slices stay clean
            assert np.isfinite(grad[0]).all() and np.isfinite(grad[1, 1]).all()

    def test_gradient_leak_in_a_finite_slice_still_raises(self, sanitize):
        q, k, v = (np.stack([a, a]) for a in _qkv())
        plan = self._plan()
        out, stats = plan.forward(q, k, v, scale=0.25, return_stats=True)
        q[0, 2, 1] = np.nan  # slice 0's gradients may be non-finite
        d_q = np.zeros((2, 8, 4), dtype=np.float32)
        d_q[0] = np.nan
        plan._bwd = lambda *a, **kw: (
            d_q, np.zeros((2, 16, 4), np.float32), np.zeros((2, 16, 4), np.float32)
        )
        d_out = np.ones((2, 8, 4), np.float32)
        plan.backward(stats, q, k, v, d_out, 0.25, out=out)
        d_q[1, 3, 0] = np.inf  # slice 1's inputs are finite: a leak
        with pytest.raises(SanitizerError, match="attention gradient"):
            plan.backward(stats, q, k, v, d_out, 0.25, out=out)

    def test_sentinel_is_found_next_to_an_excused_nan_row(self, sanitize):
        q, k, v = _qkv()
        q[0, 0] = np.nan
        out = np.zeros((8, 4), dtype=np.float32)
        out[0] = np.nan
        out[4, 1] = np.float32(-1e30)
        with pytest.raises(SanitizerError, match="MASKED_SCORE sentinel"):
            check_output(out, "attention output", inputs=(q, k, v))


class TestGradientAdoption:
    """An autograd node adopts a fresh gradient without a copy; one that
    aliases a live gradient would be written through by later accumulations."""

    @staticmethod
    def _node(adopted):
        """``y = f(x)`` whose backward adopts ``adopted(incoming)`` as dx."""
        x = Tensor(np.ones((4, 3), np.float32), requires_grad=True)
        node = x.node

        def backward(grad):
            node.accumulate(adopted(grad), adopt=True)

        return x, Tensor._make(x.data * 2.0, (x,), backward, "planted")

    def test_adopting_the_incoming_gradient_raises(self, sanitize):
        _, y = self._node(lambda incoming: incoming.reshape(3, 4).reshape(4, 3))
        with pytest.raises(SanitizerError, match="shares memory with a live gradient"):
            y.backward()

    def test_adopting_a_fresh_gradient_passes(self, sanitize):
        x, y = self._node(lambda incoming: incoming * 2.0)
        y.backward()
        np.testing.assert_array_equal(x.grad, np.full((4, 3), 2.0, np.float32))

    def test_unchecked_when_the_sanitizer_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        x, y = self._node(lambda incoming: incoming)
        y.backward()
        assert x.grad is not None

    def test_adoption_saves_the_copy(self):
        grad = np.ones((4, 3), np.float32)
        x = Tensor(np.zeros((4, 3), np.float32), requires_grad=True)
        x.node.accumulate(grad, adopt=True)
        assert x.grad is grad
        x.node.accumulate(grad)
        assert x.grad is grad and grad[0, 0] == 2.0


class TestWriteOnceStructures:
    def test_row_block_structure_is_frozen(self, sanitize):
        # scattered keys (an index list) and a blocked sub-mask
        mask = np.zeros((8, 64), dtype=bool)
        mask[:, [1, 5, 9]] = True
        mask[0, 1] = False
        (block,) = RowBlockStructure.from_mask(mask).blocks
        with pytest.raises(ValueError, match="read-only"):
            block.keys[0] = 3
        with pytest.raises(ValueError, match="read-only"):
            block.blocked[0, 0] = False

    def test_caller_mask_stays_writable(self, sanitize):
        mask = np.ones((8, 8), dtype=bool)
        mask[0, 0] = False
        structure = RowBlockStructure.from_mask(mask)
        mask[0, 0] = True  # the caller's mask is not the structure's
        assert structure.blocks[0].blocked[0, 0]

    def test_nm_metadata_is_frozen(self, sanitize):
        dense = np.arange(32, dtype=np.float32).reshape(4, 8)
        s = NMSparseMatrix.from_dense(dense, "2:4")
        with pytest.raises(ValueError, match="read-only"):
            s.indices[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            s.column_indices()[0, 0] = 1

    def test_values_stay_writable_for_the_fused_plan(self, sanitize):
        # value buffers are deliberately NOT frozen: the fused plan owns and
        # reuses its score buffer in place (the waived owns-buffer sites)
        dense = np.arange(32, dtype=np.float32).reshape(4, 8)
        s = NMSparseMatrix.from_dense(dense, "2:4")
        s.values[0, 0] = 7.0
        assert s.values[0, 0] == 7.0


class TestCleanPathsUnderSanitizer:
    def test_trainable_nm_attention_forward_backward(self, sanitize):
        rng = np.random.default_rng(3)
        q = Tensor(rng.standard_normal((8, 8)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.standard_normal((8, 8)).astype(np.float32), requires_grad=True)
        v = Tensor(rng.standard_normal((8, 8)).astype(np.float32), requires_grad=True)
        out, _ = dfss_sparse_attention(q, k, v, pattern="2:4")
        out.backward(np.ones_like(out.data))
        for grad in (q.grad, k.grad, v.grad):
            assert np.all(np.isfinite(grad))

    def test_trainable_masked_attention_forward_backward(self, sanitize):
        rng = np.random.default_rng(4)
        q = Tensor(rng.standard_normal((6, 8)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.standard_normal((6, 8)).astype(np.float32), requires_grad=True)
        v = Tensor(rng.standard_normal((6, 8)).astype(np.float32), requires_grad=True)
        mask = np.tril(np.ones((6, 6), dtype=bool))
        out, _ = masked_sparse_attention(q, k, v, mask)
        out.backward(np.ones_like(out.data))
        assert np.all(np.isfinite(q.grad))

    def test_sum_adopts_its_broadcast_gradient(self, sanitize, monkeypatch):
        x = Tensor(np.ones((4, 3), np.float32), requires_grad=True)
        handed = []
        accumulate = Node.accumulate

        def spy(self, grad, adopt=False):
            if self is x.node:
                handed.append((grad, adopt))
            accumulate(self, grad, adopt)

        monkeypatch.setattr(Node, "accumulate", spy)
        x.sum(axis=1).sum().backward()
        ((grad, adopt),) = handed
        # the sum node hands over its fresh broadcast copy, which is stored
        # as is: no second copy
        assert adopt and x.grad is grad
        np.testing.assert_array_equal(x.grad, np.ones((4, 3), np.float32))

    def test_serving_routes_guard_and_pass(self, sanitize):
        from repro.serve import AttentionServer, ServeRequest

        rng = np.random.default_rng(5)
        q3 = rng.standard_normal((2, 8, 4)).astype(np.float32)
        requests = [
            ServeRequest(q=q3, mechanism="local", options={"window": 2}),
            ServeRequest(q=q3, mechanism="local", options={"window": 2}),
            ServeRequest(q=q3, mechanism="dfss_2:4"),
            ServeRequest(q=q3[:, :6], mechanism="dfss_2:4"),
            ServeRequest(q=q3, mechanism="topk", options={"k": 3}),
            ServeRequest(q=q3, mask=np.tril(np.ones((8, 8), dtype=bool))),
        ]
        server = AttentionServer()
        for request in requests:
            server.enqueue(request)
        results = server.drain()
        assert len(results) == len(requests)
        for result in results:
            assert result.batched and np.all(np.isfinite(result.output))
        # user inputs were handed to the kernels read-only, not consumed
        q3[0, 0, 0] = 9.0  # still writable by the caller

    def test_guard_input_views_share_memory(self, sanitize):
        arr = np.ones(4, dtype=np.float32)
        view = guard_input(arr)
        assert view.base is arr
        assert not view.flags.writeable
        arr[0] = 2.0
        assert view[0] == 2.0
