"""Tests for the row-block layout of every non-N:M mask.

The structure each static mechanism declares must expand to exactly its
dense ``attention_mask`` (built independently, from a full ``n × n`` grid),
and a structure built from a mask must expand back to that mask, one block
list per batch slice.  The kernels must match the dense masked oracle
forward and backward on every backend, with and without dropout, the
training op must keep only per-row statistics, and the multicore plan must
equal the fast one bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.backend import FAST, MULTICORE, REFERENCE, get_kernel
from repro.core.multicore import WORKERS_ENV_VAR
from repro.core.plan import plan_for_blocks
from repro.core.row_block import BLOCK_ROWS, RowBlockStructure
from repro.nn import functional as F
from repro.nn.autograd import Tensor
from repro.nn.layers import Dropout
from repro.nn.sparse_attention import row_block_sparse_attention
from repro.registry import available_mechanisms, make_mechanism

STATIC = ("local", "sparse_transformer", "fixed_truncated", "longformer", "bigbird")


def _lattice(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(-2, 3, size=shape) / 2).astype(np.float32)


def test_every_static_mechanism_is_covered():
    assert set(available_mechanisms(static_mask=True)) == set(STATIC)


class TestStructureMatchesMask:
    @pytest.mark.parametrize("n", [1, 3, 130, 255, 318, 4097])
    @pytest.mark.parametrize("mechanism", STATIC)
    def test_self_attention(self, mechanism, n):
        mech = make_mechanism(mechanism)
        structure = mech.block_structure(n, n)
        np.testing.assert_array_equal(structure.to_mask(), mech._mask_2d(n, n))

    @pytest.mark.parametrize(
        "mechanism, options",
        [
            ("local", {"window": 8}),
            ("sparse_transformer", {"window": 8, "stride": 16}),
            ("fixed_truncated", {}),
            ("longformer", {"window": 8}),
        ],
    )
    @pytest.mark.parametrize("n_q, n_k", [(64, 96), (96, 64), (200, 70)])
    def test_rectangular(self, mechanism, options, n_q, n_k):
        mech = make_mechanism(mechanism, **options)
        structure = mech.block_structure(n_q, n_k)
        np.testing.assert_array_equal(structure.to_mask(), mech._mask_2d(n_q, n_k))

    @pytest.mark.parametrize(
        "mechanism, options",
        [
            ("local", {"window": 0}),
            ("sparse_transformer", {"window": 0, "stride": 5}),
            ("longformer", {"window": 0}),
            ("longformer", {"window": 3, "num_global": 200}),
            ("longformer", {"window": 0, "num_global": 130}),
            ("fixed_truncated", {"density": 0.9}),
            ("bigbird", {"block_size": 8, "num_global_blocks": 100}),
        ],
    )
    @pytest.mark.parametrize("n", [3, 130])
    def test_window_zero_and_all_global(self, mechanism, options, n):
        mech = make_mechanism(mechanism, **options)
        np.testing.assert_array_equal(mech.block_structure(n, n).to_mask(), mech._mask_2d(n, n))

    def test_band_blocks_read_key_ranges_not_every_key(self):
        structure = make_mechanism("longformer", window=32).block_structure(4096, 4096)
        first, *rest = structure.blocks
        assert first.width == 4096  # the global row's block is one dense tile
        assert all(block.rows == BLOCK_ROWS for block in rest)
        assert max(block.width for block in rest) == 1 + 2 * 32 + BLOCK_ROWS
        local = make_mechanism("local", window=32).block_structure(4096, 4096)
        assert all(isinstance(block.keys, slice) for block in local.blocks)

    def test_longformer_build_allocates_no_square_mask(self):
        mech = make_mechanism("longformer")
        tracemalloc.start()
        try:
            structure = mech.block_structure(8192, 8192)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert structure.n_q == 8192
        assert peak < 8 * 2**20  # one 8192² bool mask is 64 MiB


def _scattered_mask(shape, seed=0):
    """Random sparse keys per row, a dead row, a full row and a far band."""
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < 0.02
    n_q, n_k = shape[-2:]
    mask[..., min(3, n_q - 1), :] = False
    mask[..., min(70, n_q - 1), :] = True
    rows = np.arange(n_q)[:, None]
    mask |= np.abs(rows - np.arange(n_k)[None, :]) <= 2
    return mask


class TestFromMask:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (130, 130), (200, 70), (2, 3, 130, 100)])
    def test_round_trips_the_mask(self, shape):
        mask = _scattered_mask(shape)
        structure = RowBlockStructure.from_mask(mask)
        assert structure.batch_shape == shape[:-2]
        np.testing.assert_array_equal(structure.to_mask(), mask)

    def test_keys_are_a_slice_an_index_list_or_the_dense_tile(self):
        n = 256
        rows, cols = np.arange(n)[:, None], np.arange(n)[None, :]
        band = np.abs(rows - cols) <= 4
        two_bands = band | (np.abs(rows + 128 - cols) <= 4)
        wide = np.abs(rows - cols) <= 120
        for mask, kind in ((band, slice), (two_bands, np.ndarray), (wide, slice)):
            structure = RowBlockStructure.from_mask(mask)
            np.testing.assert_array_equal(structure.to_mask(), mask)
            assert all(isinstance(b.keys, kind) for b in structure.blocks[:1])
        assert RowBlockStructure.from_mask(band).max_width == 64 + 8
        assert RowBlockStructure.from_mask(wide).max_width == n  # over 3/4: dense
        assert RowBlockStructure.from_mask(band).blocks[0].blocked is not None
        assert RowBlockStructure.from_mask(np.ones((8, 8), bool)).blocks[0].blocked is None

    def test_rows_without_keys_are_left_out(self):
        mask = np.zeros((200, 50), dtype=bool)
        mask[:64, :10] = True
        structure = RowBlockStructure.from_mask(mask)
        assert [(b.start, b.stop) for b in structure.blocks] == [(0, 64)]
        assert structure.pairs == 64 * 10

    def test_each_slice_derives_its_keys_from_its_own_mask(self):
        masks = np.stack([_scattered_mask((130, 130), seed) for seed in range(3)])
        masks[1] = np.eye(130, dtype=bool)  # a narrow slice next to wide ones
        structure = RowBlockStructure.from_mask(masks)
        assert not structure.shared and len(structure.slices) == 3
        for blocks, mask in zip(structure.slices, masks):
            alone = RowBlockStructure.from_mask(mask).blocks
            assert [(b.start, b.stop, b.width) for b in blocks] == [
                (b.start, b.stop, b.width) for b in alone
            ]
        np.testing.assert_array_equal(structure.slice_pairs, [
            RowBlockStructure.from_mask(m).pairs for m in masks
        ])

    def test_batch_shape_broadcasts_to_the_operands(self):
        structure = RowBlockStructure.from_mask(np.ones((3, 1, 8, 8), dtype=bool))
        np.testing.assert_array_equal(structure.slice_index((3, 2)), [0, 0, 1, 1, 2, 2])
        with pytest.raises(ValueError, match="broadcast"):
            structure.slice_index((2, 2))
        q = np.zeros((2, 2, 8, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="broadcast"):
            plan_for_blocks(structure).forward(q, q, q, structure=structure)

    def test_shared_structure_has_one_block_list(self):
        structure = make_mechanism("local").block_structure(130, 130)
        assert structure.shared and structure.slices == (structure.blocks,)
        with pytest.raises(ValueError, match="per slice"):
            RowBlockStructure.from_mask(np.ones((2, 8, 8), dtype=bool)).blocks


def _dead_structure(n):
    """A local window whose first and last query rows attend to nothing."""
    return RowBlockStructure.build(
        n, n,
        lambda start, stop: [(start - 4, stop + 4)],
        lambda rows, keys: (np.abs(rows - keys) <= 4) & (rows != 0) & (rows != n - 1),
    )


class TestKernels:
    """Both kernels against the dense masked oracle (multi-block geometries)."""

    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    @pytest.mark.parametrize("backend", [FAST, REFERENCE, MULTICORE])
    @pytest.mark.parametrize("mechanism", STATIC)
    def test_matches_dense_oracle(self, mechanism, backend, dropout, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        n = 200  # four row blocks, index lists and dense tiles
        options = {"block_size": 8} if mechanism == "bigbird" else {}
        mech = make_mechanism(mechanism, **options)
        structure = mech.block_structure(n, n)
        shape = (2, 3, n, 16)
        sparse = [Tensor(_lattice(shape, seed), requires_grad=True) for seed in range(3)]
        dense = [Tensor(_lattice(shape, seed), requires_grad=True) for seed in range(3)]
        out, stats = row_block_sparse_attention(
            *sparse, structure, backend=backend, dropout_p=dropout,
            dropout_rng=Dropout(dropout, seed=3).rng, training=True,
        )
        expected = F.dense_masked_attention(
            *dense, mech._mask_2d(n, n), dropout_p=dropout,
            dropout_rng=Dropout(dropout, seed=3).rng,
        )
        np.testing.assert_allclose(out.data, expected.data, atol=1e-5)
        assert stats.shift.shape == stats.denom.shape == (2, 3, n)
        np.testing.assert_array_equal(stats.structure.to_mask(), mech._mask_2d(n, n))
        (out * out).sum().backward()
        (expected * expected).sum().backward()
        for a, b in zip(sparse, dense):
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-5, atol=2e-5)

    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    @pytest.mark.parametrize("backend", [FAST, REFERENCE, MULTICORE])
    def test_mask_built_structure_matches_dense_oracle(self, backend, dropout, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        # one block list per slice: scattered keys, dead and full rows, n_q != n_k
        mask = _scattered_mask((2, 3, 200, 150), seed=4)
        structure = RowBlockStructure.from_mask(mask)
        shapes = ((2, 3, 200, 16), (2, 3, 150, 16), (2, 3, 150, 16))
        sparse = [Tensor(_lattice(x, seed), requires_grad=True) for seed, x in enumerate(shapes)]
        dense = [Tensor(_lattice(x, seed), requires_grad=True) for seed, x in enumerate(shapes)]
        out, stats = row_block_sparse_attention(
            *sparse, structure, backend=backend, dropout_p=dropout,
            dropout_rng=Dropout(dropout, seed=3).rng, training=True,
        )
        expected = F.dense_masked_attention(
            *dense, mask, dropout_p=dropout, dropout_rng=Dropout(dropout, seed=3).rng,
        )
        np.testing.assert_allclose(out.data, expected.data, atol=1e-5)
        assert stats.shift.shape == stats.denom.shape == (2, 3, 200)
        (out * out).sum().backward()
        (expected * expected).sum().backward()
        for a, b in zip(sparse, dense):
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-5, atol=2e-5)

    @pytest.mark.parametrize("backend", [FAST, REFERENCE, MULTICORE])
    def test_fully_masked_rows_are_exactly_zero(self, backend, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        n = 130
        structure = _dead_structure(n)
        q, k, v = (Tensor(_lattice((3, n, 16), seed), requires_grad=True) for seed in range(3))
        out, _ = row_block_sparse_attention(q, k, v, structure, backend=backend)
        for row in (0, n - 1):
            assert np.all(out.data[:, row] == 0.0)
        (out * out).sum().backward()
        for row in (0, n - 1):
            assert np.all(q.grad[:, row] == 0.0)
        assert all(np.isfinite(t.grad).all() for t in (q, k, v))

    @pytest.mark.parametrize("backend", [FAST, REFERENCE, MULTICORE])
    def test_training_op_saves_only_row_statistics(self, backend, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        structure = make_mechanism("longformer", window=16).block_structure(200, 200)
        q, k, v = (Tensor(_lattice((2, 3, 200, 16), seed), requires_grad=True) for seed in range(3))
        out, _ = row_block_sparse_attention(q, k, v, structure, backend=backend)
        # the node's backward closure holds what the forward kept
        backward = out.node.backward
        cells = dict(zip(backward.__code__.co_freevars, backward.__closure__))
        saved = cells["saved"].cell_contents
        arrays = [x for x in vars(saved).values() if isinstance(x, np.ndarray)]
        assert len(arrays) == 2
        for array in arrays:
            assert array.shape == (2, 3, 200) and array.dtype == np.float32
            assert sum(b.rows * b.width for b in structure.blocks) not in array.shape

    def test_rows_without_keys_are_zero(self):
        # queries past the key range of a local window read no key at all
        mech = make_mechanism("local", window=2)
        structure = mech.block_structure(200, 40)
        assert structure.blocks[-1].stop < 200
        q = _lattice((2, 200, 16), 1)
        k, v = _lattice((2, 40, 16), 2), _lattice((2, 40, 16), 3)
        out = plan_for_blocks(structure).forward(q, k, v, structure=structure)
        assert np.all(out[:, 64:] == 0.0)

    def test_rejects_a_structure_of_another_geometry(self):
        structure = make_mechanism("local").block_structure(64, 64)
        q = np.zeros((2, 32, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="structure"):
            plan_for_blocks(structure).forward(q, q, q, structure=structure)


class TestMulticoreBitwise:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("mechanism", STATIC)
    def test_train_step_equals_fast(self, mechanism, workers, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        rng = np.random.default_rng(4)
        n = 256
        structure = make_mechanism(mechanism).block_structure(n, n)
        arrays = [rng.standard_normal((5, n, 32), dtype=np.float32) for _ in range(3)]
        results = []
        for backend in (FAST, MULTICORE):
            tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out, _ = row_block_sparse_attention(
                *tensors, structure, backend=backend, dropout_p=0.25,
                dropout_rng=np.random.default_rng(9), training=True,
            )
            (out * out).sum().backward()
            results.append([out.data] + [t.grad for t in tensors])
        for fast, multi in zip(*results):
            assert fast.tobytes() == multi.tobytes()


    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_mask_built_train_step_equals_fast(self, workers, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        rng = np.random.default_rng(6)
        structure = RowBlockStructure.from_mask(_scattered_mask((5, 200, 200), seed=2))
        arrays = [rng.standard_normal((5, 200, 32), dtype=np.float32) for _ in range(3)]
        results = []
        for backend in (FAST, MULTICORE):
            tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out, _ = row_block_sparse_attention(
                *tensors, structure, backend=backend, dropout_p=0.25,
                dropout_rng=np.random.default_rng(9), training=True,
            )
            (out * out).sum().backward()
            results.append([out.data] + [t.grad for t in tensors])
        for fast, multi in zip(*results):
            assert fast.tobytes() == multi.tobytes()

    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    @pytest.mark.parametrize(
        "case",
        [
            ("longformer", 200, 200),
            ("local", 200, 40),  # queries past the last key read nothing
            ("dead", 130, 130),
        ],
        ids=lambda case: f"{case[0]}-{case[1]}x{case[2]}",
    )
    @pytest.mark.parametrize(
        "backend, workers", [(FAST, 1), (MULTICORE, 2), (MULTICORE, 3)]
    )
    def test_batch_equals_its_slices_run_alone(
        self, backend, workers, case, dropout, monkeypatch
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        mechanism, n_q, n_k = case
        if mechanism == "dead":
            structure = _dead_structure(n_q)
        else:
            structure = make_mechanism(mechanism, window=2).block_structure(n_q, n_k)
        rng = np.random.default_rng(5)
        batch = 4
        q = rng.standard_normal((batch, n_q, 16), dtype=np.float32)
        k, v = (rng.standard_normal((batch, n_k, 16), dtype=np.float32) for _ in range(2))
        g = rng.standard_normal((batch, n_q, 16), dtype=np.float32)
        drop = (11, dropout) if dropout else None
        forward = get_kernel("row_block_attention", backend)
        backward = get_kernel("row_block_attention_bwd", backend)

        def step(q, k, v, g):
            out, stats = forward(q, k, v, structure, dropout=drop, return_stats=True)
            grads = backward(
                q, k, v, g, out, stats.shift, stats.denom, structure, dropout=drop
            )
            return (out, stats.shift, stats.denom) + grads

        whole = step(q, k, v, g)
        for b in range(batch):
            if drop is None:
                alone = step(q[b:b + 1], k[b:b + 1], v[b:b + 1], g[b:b + 1])
                at = 0
            else:
                # dropout hashes the flattened slice index, so the slice runs
                # at its own index, among slices of unrelated data
                noise = [rng.standard_normal(x.shape, dtype=np.float32) for x in (q, k, v, g)]
                for x, mine in zip(noise, (q, k, v, g)):
                    x[b] = mine[b]
                alone = step(*noise)
                at = b
            for full, part in zip(whole, alone):
                assert full[b].tobytes() == part[at].tobytes()


@pytest.mark.parametrize("mechanism", STATIC)
def test_static_masks_never_build_from_a_mask_or_run_dense_masked_attention(mechanism, monkeypatch):
    from repro.baselines.base import StaticMaskAttention
    from repro.engine import AttentionEngine
    from repro.registry import make_core
    from repro.serve import ServeRequest, serve

    def forbidden(*args, **kwargs):
        raise AssertionError("static masks run their declared structure")

    monkeypatch.setattr(RowBlockStructure, "from_mask", forbidden)
    # nor the dense mask a dense masked attention would read
    monkeypatch.setattr(StaticMaskAttention, "attention_mask", forbidden)
    q, k, v = (_lattice((2, 96, 16), seed) for seed in range(3))
    AttentionEngine(mechanism)(q, k, v)
    serve([ServeRequest(q=q, k=k, v=v, mechanism=mechanism)])
    tensors = [Tensor(x, requires_grad=True) for x in (q, k, v)]
    make_core(mechanism, seq_len_hint=96)(*tensors).sum().backward()
