"""Tests for the padded-CSR compressed layout and the layout-generic kernels.

The layout is exercised exactly the way the mask-based sparse training path
uses it: compress a boolean mask, write scores through ``sddmm_csr``, softmax
over the stored lanes, contract with ``spmm``/``spmm_t``, and differentiate
with the shared analytic backward — all against the dense masked oracle.
"""

import numpy as np
import pytest

from repro.core.attention_grad import masked_attention_bwd
from repro.core.backend import FAST, REFERENCE
from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.plan import plan_for_structure
from repro.core.sddmm import MASKED_SCORE, sddmm_csr, sddmm_masked
from repro.core.softmax import masked_dense_softmax, sparse_softmax
from repro.core.spmm import spmm, spmm_t

BACKENDS = [REFERENCE, FAST]


def _random_mask(shape, density=0.3, seed=0, dead_row=None):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < density
    mask[..., -1, :] = True  # at least one full-ish row to vary widths
    if dead_row is not None:
        mask[..., dead_row, :] = False
    return mask


def _qkv(batch=(2, 3), seq=16, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return tuple(
        rng.normal(size=tuple(batch) + (seq, d)).astype(np.float32) for _ in range(3)
    )


class TestLayout:
    def test_from_mask_round_trips_the_mask(self):
        mask = _random_mask((2, 3, 16, 16), seed=1, dead_row=3)
        st = PaddedCSRMatrix.from_mask(mask)
        np.testing.assert_array_equal(st.to_mask(), mask)
        np.testing.assert_array_equal(st.row_lengths(), mask.sum(-1))
        assert st.width == int(mask.sum(-1).max())

    def test_ragged_rows_and_dead_rows(self):
        mask = np.zeros((4, 8), dtype=bool)
        mask[0, :5] = True
        mask[1, [1, 6]] = True
        mask[3] = True  # full row
        st = PaddedCSRMatrix.from_mask(mask)
        assert st.width == 8
        np.testing.assert_array_equal(st.lengths, [5, 2, 0, 8])
        # valid columns ascend; padding lanes are clamped in range
        np.testing.assert_array_equal(st.cols[1, :2], [1, 6])
        assert st.cols.min() >= 0 and st.cols.max() < 8
        np.testing.assert_array_equal(st.to_mask(), mask)

    def test_all_masked_matrix_has_width_one(self):
        st = PaddedCSRMatrix.from_mask(np.zeros((3, 7), dtype=bool))
        assert st.width == 1
        assert not st.to_mask().any()

    def test_scatter_never_clobbers_column_zero(self):
        # regression: padding lanes are clamped to column 0 — a row that
        # legitimately stores column 0 must survive the scatter
        mask = np.zeros((2, 6), dtype=bool)
        mask[0, 0] = True          # one-entry row, stores column 0
        mask[1] = True             # full row forces width 6 (5 padding lanes
        st = PaddedCSRMatrix.from_mask(mask)
        vals = st.with_values(np.arange(st.values.size, dtype=np.float32).reshape(st.values.shape) + 1.0)
        dense = vals.to_dense(0.0)
        assert dense[0, 0] == vals.values[0, 0]
        np.testing.assert_array_equal(dense[0, 1:], 0.0)

    def test_to_dense_fill_value(self):
        mask = _random_mask((4, 8), seed=2)
        st = PaddedCSRMatrix.from_dense(np.ones((4, 8), np.float32), mask)
        dense = st.to_dense(-7.0)
        np.testing.assert_array_equal(dense[mask], 1.0)
        np.testing.assert_array_equal(dense[~mask], -7.0)

    def test_from_dense_gathers_masked_entries(self):
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(2, 8, 8)).astype(np.float32)
        mask = _random_mask((2, 8, 8), seed=3)
        st = PaddedCSRMatrix.from_dense(dense, mask, pad_value=0.0)
        np.testing.assert_array_equal(st.to_dense(0.0), np.where(mask, dense, 0.0))

    def test_with_values_shares_structure_and_validates_shape(self):
        st = PaddedCSRMatrix.from_mask(_random_mask((3, 8), seed=4))
        new = st.with_values(np.full(st.values.shape, 2.0, np.float32))
        assert new.cols is st.cols
        with pytest.raises(ValueError, match="shape"):
            st.with_values(np.zeros((3, st.width + 1), np.float32))

    def test_broadcast_to_prepends_batch_dims(self):
        st = PaddedCSRMatrix.from_mask(_random_mask((8, 8), seed=5))
        batched = st.broadcast_to((2, 3))
        assert batched.batch_shape == (2, 3)
        assert batched.dense_shape == (2, 3, 8, 8)
        np.testing.assert_array_equal(batched.to_mask()[1, 2], st.to_mask())

    def test_gather_scatter_are_inverse_on_valid_lanes(self):
        mask = _random_mask((2, 8, 8), seed=6, dead_row=2)
        st = PaddedCSRMatrix.from_mask(mask)
        rng = np.random.default_rng(7)
        vals = np.where(st.valid_lanes(), rng.normal(size=st.values.shape), 0.0).astype(np.float32)
        dense = st.scatter_compressed(vals)
        back = st.with_values(vals).gather_dense(dense)
        valid = st.valid_lanes()
        np.testing.assert_array_equal(back[valid], vals[valid])

    def test_memory_accounting(self):
        mask = np.zeros((8, 64), dtype=bool)
        mask[:, :8] = True
        st = PaddedCSRMatrix.from_mask(mask)
        assert st.nonzeros_nbytes() == 8 * 8 * 4
        assert st.nbytes() == st.nonzeros_nbytes() + st.metadata_nbytes()
        assert st.compression_ratio() > 1.0
        assert st.density == pytest.approx(8 / 64)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            PaddedCSRMatrix(
                values=np.zeros((2, 3), np.float32),
                cols=np.zeros((2, 3), np.int32),
                lengths=np.full((2,), 4, np.int32),
                dense_cols=8,
            )
        with pytest.raises(ValueError, match="columns"):
            PaddedCSRMatrix(
                values=np.zeros((2, 3), np.float32),
                cols=np.full((2, 3), 9, np.int32),
                lengths=np.full((2,), 3, np.int32),
                dense_cols=8,
            )


class TestBatchSlice:
    @staticmethod
    def _structure(seed=6):
        # ragged rows plus a fully-masked row in every slice
        mask = _random_mask((2, 3, 8, 12), seed=seed, dead_row=2)
        st = PaddedCSRMatrix.from_mask(mask)
        values = np.arange(st.values.size, dtype=np.float32).reshape(st.values.shape)
        return mask, st.with_values(values)

    def test_tile_is_a_view_with_its_slice_of_the_structure(self):
        mask, st = self._structure()
        tile = st.batch_slice(slice(1, 4))
        assert tile.batch_shape == (3,) and tile.width == st.width
        assert np.shares_memory(tile.values, st.values)
        np.testing.assert_array_equal(tile.lengths, st.lengths.reshape(6, 8)[1:4])
        np.testing.assert_array_equal(
            tile.valid_lanes(), st.valid_lanes().reshape(6, 8, st.width)[1:4]
        )
        np.testing.assert_array_equal(tile.to_mask(), mask.reshape(6, 8, 12)[1:4])
        np.testing.assert_array_equal(
            tile.to_dense(), st.to_dense().reshape(6, 8, 12)[1:4]
        )
        assert np.all(tile.lengths[:, 2] == 0)
        assert np.all(tile.to_dense()[:, 2] == 0.0)

    def test_in_place_write_through_the_tile_lands_in_the_parent(self):
        _, st = self._structure()
        tile = st.batch_slice(slice(0, 2))
        tile.values[...] = -1.0
        flat = st.values.reshape(6, 8, st.width)
        assert np.all(flat[:2] == -1.0) and np.all(flat[2:] >= 0.0)

    def test_tile_structure_is_memoised_per_slice_across_siblings(self):
        _, st = self._structure()
        tile = st.batch_slice(slice(2, 6))
        tile.flat_gather_indices()  # a tile-local cache, built once
        sibling = st.with_values(st.values * 2)
        again = sibling.batch_slice(slice(2, 6))
        assert again._shared is tile._shared
        assert again.cols is tile.cols
        np.testing.assert_array_equal(again.values, tile.values * 2)
        # another slice owns another cache store
        assert st.batch_slice(slice(0, 2))._shared is not tile._shared

    def test_tile_scatters_its_own_slice(self):
        _, st = self._structure()
        scattered = st.to_scattered()
        tile = st.batch_slice(slice(3, 5))
        np.testing.assert_array_equal(
            tile.to_scattered(), scattered.reshape(6, 8, 12)[3:5]
        )
        sibling = st.with_values(st.values * 2)
        np.testing.assert_array_equal(
            sibling.batch_slice(slice(3, 5)).to_scattered(),
            sibling.to_dense().reshape(6, 8, 12)[3:5],
        )

    def test_broadcast_structure_slices(self):
        mask = _random_mask((8, 8), seed=7, dead_row=0)
        st = PaddedCSRMatrix.from_mask(mask).broadcast_to((2, 3))
        tile = st.batch_slice(slice(1, 5))
        assert tile.batch_shape == (4,)
        np.testing.assert_array_equal(tile.to_mask(), np.broadcast_to(mask, (4, 8, 8)))


class TestKernelsOnPaddedCSR:
    """Every registry kernel must agree with the dense masked oracle on CSR."""

    def _pipeline(self, backend, seed=0):
        q, k, v = _qkv(seed=seed)
        mask = _random_mask(q.shape[:-1] + (k.shape[-2],), seed=seed, dead_row=3)
        st = PaddedCSRMatrix.from_mask(mask)
        scale = 1.0 / np.sqrt(q.shape[-1])
        dense_scores = np.matmul(q, np.swapaxes(k, -1, -2)) * scale
        return q, k, v, mask, st, scale, dense_scores

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sddmm_csr_matches_dense_scores(self, backend):
        q, k, v, mask, st, scale, dense_scores = self._pipeline(backend, seed=10)
        scores = sddmm_csr(q, k, st, backend=backend)
        np.testing.assert_allclose(
            scores.to_dense(0.0), np.where(mask, dense_scores, 0.0), atol=1e-5
        )
        # padding lanes carry the masked-score sentinel
        valid = scores.valid_lanes()
        assert (scores.values[~valid] == MASKED_SCORE).all()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_softmax_matches_masked_dense_softmax(self, backend):
        q, k, v, mask, st, scale, dense_scores = self._pipeline(backend, seed=11)
        probs = sparse_softmax(sddmm_csr(q, k, st, backend=backend), backend=backend)
        np.testing.assert_allclose(
            probs.to_dense(0.0), masked_dense_softmax(dense_scores, mask), atol=1e-6
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spmm_and_spmm_t_match_dense(self, backend):
        q, k, v, mask, st, scale, dense_scores = self._pipeline(backend, seed=12)
        probs = sparse_softmax(sddmm_csr(q, k, st, backend=backend), backend=backend)
        weights = masked_dense_softmax(dense_scores, mask)
        np.testing.assert_allclose(
            spmm(probs, v, backend=backend), np.matmul(weights, v), atol=1e-5
        )
        np.testing.assert_allclose(
            spmm_t(probs, v, backend=backend),
            np.matmul(np.swapaxes(weights, -1, -2), v),
            atol=1e-5,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sddmm_masked_zeroes_padding_lanes(self, backend):
        q, k, v, mask, st, scale, dense_scores = self._pipeline(backend, seed=13)
        out = sddmm_masked(q, k, st, backend=backend)
        valid = out.valid_lanes()
        np.testing.assert_array_equal(out.values[~valid], 0.0)
        np.testing.assert_allclose(
            out.to_dense(0.0),
            np.where(mask, np.matmul(q, np.swapaxes(k, -1, -2)), 0.0),
            atol=1e-4,
        )

    def test_plan_softmax_contract_matches_unfused(self):
        q, k, v, mask, st, scale, dense_scores = self._pipeline(FAST, seed=16)
        scores = sddmm_csr(q, k, st)
        unfused = spmm(sparse_softmax(scores), v)
        for backend in BACKENDS:
            plan = plan_for_structure(st, backend=backend)
            probs = plan.compute_probs(scores, owned=False)
            np.testing.assert_allclose(
                plan.contract(probs, v), unfused, atol=1e-5, err_msg=backend
            )

    def test_backward_backends_agree(self):
        q, k, v, mask, st, scale, dense_scores = self._pipeline(FAST, seed=14)
        probs = sparse_softmax(sddmm_csr(q, k, st))
        g = np.random.default_rng(15).normal(size=q.shape).astype(np.float32)
        ref = masked_attention_bwd(probs, q, k, v, g, scale, backend=REFERENCE)
        fast = masked_attention_bwd(probs, q, k, v, g, scale, backend=FAST)
        for a, b in zip(ref, fast):
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-5)
