"""Tests for request preparation, the plan routes, and coalescing."""

import numpy as np
import pytest

from repro.core.precision import tensor_core_operand
from repro.core.row_block import RowBlockStructure
from repro.engine import AttentionEngine
from repro.registry import available_mechanisms, find_spec
from repro.serve import (
    AttentionServer,
    ServeRequest,
    StructureCache,
    prepare_request,
    run_ragged_batch,
    structure_cache_key,
)

BATCHABLE = tuple(m for m in available_mechanisms() if find_spec(m).batchable)


def _request(rng, mechanism="local", options=None, heads=2, seq=32, d=16, n_k=None, **kw):
    options = {"window": 4} if options is None else options
    n_k = seq if n_k is None else n_k
    return ServeRequest(
        q=rng.standard_normal((heads, seq, d), dtype=np.float32),
        k=rng.standard_normal((heads, n_k, d), dtype=np.float32),
        v=rng.standard_normal((heads, n_k, d), dtype=np.float32),
        mechanism=mechanism,
        options=options,
        **kw,
    )


def _prepare(request, cache):
    engine = (
        None
        if request.mask is not None
        else AttentionEngine(request.mechanism, _options=dict(request.options))
    )
    return prepare_request(request, engine, cache)


def _qkv(request):
    return request.q, request.k, request.v


def _dense_oracle(q, k, v, mask):
    """float64 masked softmax attention, the numerical ground truth."""
    scores = (q.astype(np.float64) @ np.swapaxes(k.astype(np.float64), -1, -2))
    scores = np.where(mask, scores / np.sqrt(q.shape[-1]), -np.inf)
    peak = np.max(scores, axis=-1, keepdims=True)
    exp = np.where(mask, np.exp(scores - np.where(np.isfinite(peak), peak, 0.0)), 0.0)
    denom = exp.sum(-1, keepdims=True)
    probs = np.divide(exp, denom, out=np.zeros_like(exp), where=denom > 0)
    return probs @ v.astype(np.float64)


class TestPrepareRequest:
    def test_static_mask_cache_miss_then_hit(self):
        rng = np.random.default_rng(0)
        cache = StructureCache()
        first = _prepare(_request(rng), cache)
        assert first.cache_hit is False
        assert cache.stats() == {
            "hits": 0, "misses": 1, "evictions": 0, "entries": 1, "size": 1,
        }
        second = _prepare(_request(rng), cache)
        assert second.cache_hit is True
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "entries": 1, "size": 1,
        }
        # every segment of every request shares the one cached structure
        assert first.structure is second.structure
        assert isinstance(first.structure, RowBlockStructure)

    def test_different_lengths_use_different_cache_entries(self):
        rng = np.random.default_rng(1)
        cache = StructureCache()
        _prepare(_request(rng, seq=32), cache)
        prepared = _prepare(_request(rng, seq=64), cache)
        assert prepared.cache_hit is False
        assert len(cache) == 2

    def test_dfss_request_carries_no_structure(self, monkeypatch):
        # the N:M route selects lanes from the scores inside the plan, so
        # preparing a DFSS request builds neither a mask nor a structure
        def forbidden(*args, **kwargs):
            raise AssertionError("N:M requests must not build a mask or structure")

        monkeypatch.setattr(AttentionEngine, "attention_mask", forbidden)
        monkeypatch.setattr(RowBlockStructure, "from_mask", forbidden)
        rng = np.random.default_rng(2)
        cache = StructureCache()
        request = _request(rng, mechanism="dfss_2:4", options={}, seq=30)
        prepared = _prepare(request, cache)
        assert prepared.batchable
        assert prepared.structure is None
        assert prepared.nm.pattern.name == "2:4"
        assert prepared.cache_hit is None
        assert len(cache) == 0
        out = run_ragged_batch([prepared])[0]
        assert out.tobytes() == AttentionEngine("dfss_2:4")(
            request.q, request.k, request.v
        ).tobytes()

    def test_content_dependent_mask_is_one_batched_structure(self):
        rng = np.random.default_rng(8)
        cache = StructureCache()
        request = _request(rng, mechanism="topk", options={"k": 4}, heads=3)
        prepared = _prepare(request, cache)
        assert prepared.cache_hit is None
        assert len(cache) == 0
        assert prepared.structure.batch_shape == (3,)
        engine = AttentionEngine("topk", k=4)
        expected = engine.attention_mask(prepared.q3, prepared.k3)
        assert np.array_equal(prepared.structure.to_mask(), expected)

    def test_non_batchable_mechanism_falls_back_to_engine(self):
        rng = np.random.default_rng(3)
        cache = StructureCache()
        prepared = _prepare(
            _request(rng, mechanism="linformer", options={}, seq=64), cache
        )
        assert not prepared.batchable
        assert prepared.q3 is None and prepared.structure is None
        assert prepared.engine is not None

    def test_custom_mask_broadcasts_over_leading_dims(self):
        rng = np.random.default_rng(4)
        cache = StructureCache()
        mask = np.tri(32, dtype=bool)
        prepared = _prepare(_request(rng, heads=3, mask=mask), cache)
        assert prepared.mechanism == "mask"
        assert prepared.batchable
        # a 2-D mask builds one block list every segment shares
        assert prepared.structure.shared
        assert np.array_equal(prepared.structure.to_mask(), mask)
        per_segment = _prepare(
            _request(np.random.default_rng(4), heads=3, mask=np.broadcast_to(mask, (3, 32, 32))),
            cache,
        )
        assert per_segment.structure.batch_shape == (3,)
        assert (
            run_ragged_batch([prepared])[0].tobytes()
            == run_ragged_batch([per_segment])[0].tobytes()
        )

    def test_custom_mask_shape_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="mask trailing shape"):
            _prepare(_request(rng, mask=np.ones((8, 8), dtype=bool)), StructureCache())


class TestStructureCacheKey:
    def test_same_config_same_key(self):
        a = AttentionEngine("local", _options={"window": 4})
        b = AttentionEngine("local", _options={"window": 4})
        assert structure_cache_key("local", a.config, 32, 32) == structure_cache_key(
            "local", b.config, 32, 32
        )

    def test_config_and_length_distinguish_keys(self):
        a = AttentionEngine("local", _options={"window": 4})
        b = AttentionEngine("local", _options={"window": 8})
        base = structure_cache_key("local", a.config, 32, 32)
        assert base != structure_cache_key("local", b.config, 32, 32)
        assert base != structure_cache_key("local", a.config, 64, 64)
        assert base != structure_cache_key("longformer", a.config, 32, 32)


def _mixed_requests(rng):
    """Every route, with group mates, rectangular and unaligned lengths."""
    cross = np.random.default_rng(99).random((24, 40)) < 0.3
    cross[:, 0] = True
    return [
        _request(rng, "local", {"window": 4}, seq=32),
        _request(rng, "longformer", {"window": 4, "num_global": 2}, seq=64),
        _request(rng, "dfss_2:4", {}, seq=32),
        _request(rng, "local", {"window": 4}, seq=32),  # cache/group mate
        _request(rng, "dfss_2:4", {}, seq=32),  # N:M group mate
        _request(rng, "dfss_2:4", {}, seq=24, n_k=30),  # n_q != n_k, 30 % 4 != 0
        _request(rng, "topk", {"k": 5}, seq=32),
        _request(rng, "topk", {"k": 5}, seq=32),  # content-dependent: own call
        _request(rng, seq=24, n_k=40, mask=cross),  # explicit mask, n_q != n_k
        _request(rng, seq=32, mask=np.tri(32, dtype=bool)),
    ]


class TestRunRaggedBatch:
    def test_batch_output_bitwise_equals_solo(self):
        rng = np.random.default_rng(6)
        cache = StructureCache()
        requests = _mixed_requests(rng)
        prepared = [_prepare(r, cache) for r in requests]
        batch_outputs = run_ragged_batch(prepared)
        for request, out in zip(requests, batch_outputs):
            solo = run_ragged_batch([_prepare(request, StructureCache())])[0]
            assert out.shape == request.q.shape[:-1] + (request.v.shape[-1],)
            assert out.tobytes() == solo.tobytes()

    def test_served_dfss_equals_engine_bitwise(self):
        rng = np.random.default_rng(9)
        requests = [_request(rng, "dfss_2:4", {}, heads=3, seq=n) for n in (64, 64, 66)]
        outputs = run_ragged_batch([_prepare(r, StructureCache()) for r in requests])
        engine = AttentionEngine("dfss_2:4")
        for request, out in zip(requests, outputs):
            assert out.tobytes() == engine(request.q, request.k, request.v).tobytes()

    def test_served_static_equals_engine_plan_bitwise(self):
        rng = np.random.default_rng(10)
        options = {"window": 4, "num_global": 2}
        requests = [_request(rng, "longformer", options, heads=3, seq=48) for _ in range(3)]
        cache = StructureCache()
        outputs = run_ragged_batch([_prepare(r, cache) for r in requests])
        engine = AttentionEngine("longformer", **options)
        plan = engine.plan(48, 48)
        structure = engine.mechanism().block_structure(48, 48)
        for request, out in zip(requests, outputs):
            expected = plan.forward(request.q, request.k, request.v, structure=structure)
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mechanism", [m for m in BATCHABLE if m != "dfss"])
    def test_engine_equals_served_static_bitwise_on_float32_operands(self, mechanism):
        # one precision contract for every row-block mask, static or
        # content-dependent, wherever it runs: float32 operands, so the
        # engine and the server give the same bits, and both sit within
        # float32 rounding of the float64 oracle
        rng = np.random.default_rng(14)
        requests = [
            _request(rng, mechanism, {}, heads=2, seq=n, d=64) for n in (255, 255, 130, 318)
        ]
        outputs = run_ragged_batch([_prepare(r, StructureCache()) for r in requests])
        engine = AttentionEngine(mechanism)
        for request, out in zip(requests, outputs):
            direct = engine(request.q, request.k, request.v)
            assert direct.tobytes() == out.tobytes()
            mask = engine.attention_mask(request.q, request.k)
            expected = _dense_oracle(request.q, request.k, request.v, mask)
            np.testing.assert_allclose(direct, expected, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("mechanism", BATCHABLE)
    def test_served_output_matches_float64_oracle(self, mechanism):
        rng = np.random.default_rng(11)
        requests = [_request(rng, mechanism, {}, seq=n) for n in (64, 64, 66)]
        engine = AttentionEngine(mechanism)
        outputs = run_ragged_batch([_prepare(r, StructureCache()) for r in requests])
        for request, out in zip(requests, outputs):
            q, k = request.q, request.k
            mask = engine.attention_mask(q, k)
            if mechanism == "dfss":
                # DFSS multiplies QKᵀ on tensor-core operands (TF32 for float32)
                q, k = tensor_core_operand(q), tensor_core_operand(k)
            expected = _dense_oracle(q, k, request.v, mask)
            np.testing.assert_allclose(out, expected, rtol=0, atol=2e-5)

    @pytest.mark.parametrize("per_head", [False, True])
    def test_explicit_mask_matches_float64_oracle(self, per_head):
        # scattered keys, a dead row and n_q != n_k; one shared block list
        # for a 2-D mask, one per segment for a per-head mask
        rng = np.random.default_rng(15)
        shape = (3, 130, 90) if per_head else (130, 90)
        mask = rng.random(shape) < 0.1
        mask[..., 7, :] = False
        request = _request(rng, heads=3, seq=130, n_k=90, mask=mask)
        prepared = _prepare(request, StructureCache())
        assert prepared.structure.shared is not per_head
        out = run_ragged_batch([prepared])[0]
        expected = _dense_oracle(request.q, request.k, request.v, mask)
        np.testing.assert_allclose(out, expected, rtol=0, atol=2e-5)
        assert np.all(out[:, 7] == 0.0)

    def test_one_cached_structure_serves_every_stack_depth(self):
        rng = np.random.default_rng(12)
        cache = StructureCache()
        prepared = [_prepare(_request(rng), cache) for _ in range(3)]
        first = run_ragged_batch(prepared)  # 3 requests x 2 heads stacked
        structure = prepared[0].structure
        assert all(p.structure is structure for p in prepared)
        again = run_ragged_batch(prepared)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
        alone = run_ragged_batch(prepared[:1])
        assert alone[0].tobytes() == first[0].tobytes()
        assert len(cache) == 1

    def test_server_backend_reaches_batched_requests(self):
        rng = np.random.default_rng(13)
        requests = [
            _request(rng, "local", {"window": 4}, seq=32),
            _request(rng, "dfss_2:4", {}, seq=32),
            _request(rng, "local", {"window": 4}, seq=32),
        ]
        server = AttentionServer(backend="reference")
        for request in requests:
            server.enqueue(request)
        results = server.drain()
        assert all(r.batched and r.batch_requests == 3 for r in results)
        local = AttentionEngine("local", backend="reference", window=4)
        dfss = AttentionEngine("dfss_2:4", backend="reference")
        structure = local.mechanism().block_structure(32, 32)
        expected = [
            local.plan(32, 32).forward(*_qkv(requests[0]), structure=structure),
            dfss.plan(32, 32).forward(*_qkv(requests[1])),
            local.plan(32, 32).forward(*_qkv(requests[2]), structure=structure),
        ]
        for result, want in zip(results, expected):
            assert result.output.tobytes() == want.tobytes()

    def test_empty_batch(self):
        assert run_ragged_batch([]) == []

    def test_2d_request_keeps_2d_output(self):
        rng = np.random.default_rng(7)
        request = ServeRequest(
            q=rng.standard_normal((32, 16), dtype=np.float32),
            mechanism="local",
            options={"window": 4},
        )
        out = run_ragged_batch([_prepare(request, StructureCache())])[0]
        assert out.shape == (32, 16)
