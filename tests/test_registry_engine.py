"""Tests for the unified mechanism registry and the `repro.engine` façade.

Round-trip coverage: every registered spec must construct through the
engine AND match the registry's ``make_mechanism`` / ``make_core`` factories
bit-for-bit on tie-exact lattice inputs, and unknown keyword arguments must
keep raising ``TypeError``.
"""

import inspect
import tracemalloc
import warnings

import numpy as np
import pytest

import repro
from repro import registry
from repro.engine import AttentionConfig, AttentionEngine
from repro.nn.attention_layer import DfssCore
from repro.nn.autograd import Tensor

TABLE4_NAMES = (
    "full", "local", "sparse_transformer", "longformer", "linformer", "reformer",
    "sinkhorn", "synthesizer", "bigbird", "linear_transformer", "performer",
    "routing", "nystromformer", "dfss",
)

ALL_NAMES = registry.available_mechanisms()
TRAINABLE_NAMES = registry.available_mechanisms(trainable=True)
#: every compressed mask mechanism, the DFSS patterns spelled out (a bare
#: "dfss" resolves its pattern from the float32 dtype: 1:2)
MASK_NAMES = tuple(
    name
    for m in registry.available_mechanisms(produces_mask=True, compressed=True)
    for name in (("dfss_1:2", "dfss_2:4") if m == "dfss" else (m,))
)
#: the kernel and low-rank mechanisms, whose trainable core defines them
CORE_DEFINED_NAMES = tuple(
    m for m in registry.available_mechanisms(trainable=True, produces_mask=False) if m != "full"
)
#: mechanisms whose forward-only side is a class of :mod:`repro.baselines`
CLASS_NAMES = tuple(
    m for m in ALL_NAMES if inspect.isclass(registry.find_spec(m).mechanism_builder)
)
#: the masks chosen from Q and K (Top-K and the clustering masks)
CONTENT_MASK_NAMES = tuple(
    m for m in registry.available_mechanisms(batchable=True, static_mask=False) if m != "dfss"
)
#: mechanisms defined for self-attention only
SELF_ONLY = ("bigbird", "sinkhorn", "bigbird_dfss")


def _lattice_qkv(batch=(2,), seq=32, d=16, seed=0):
    """Tie-exact inputs: small multiples of 1/2, head dim a power of four."""
    rng = np.random.default_rng(seed)
    shape = tuple(batch) + (seq, d)
    return tuple(
        (rng.integers(-2, 3, size=shape) / 2).astype(np.float32) for _ in range(3)
    )


class TestCatalogue:
    def test_every_table4_mechanism_enumerated_with_flags(self):
        names = repro.available_mechanisms()
        for name in TABLE4_NAMES:
            assert name in names, name
            info = repro.describe_mechanism(name)
            for flag in ("trainable", "produces_mask", "compressed", "batchable"):
                assert isinstance(info[flag], bool), (name, flag)

    def test_every_mechanism_has_one_definition(self):
        # a mask mechanism is a class of repro.baselines; a kernel or
        # low-rank one is its trainable core, which its mechanism side runs
        assert set(CLASS_NAMES) | set(CORE_DEFINED_NAMES) == set(ALL_NAMES)
        assert not set(CLASS_NAMES) & set(CORE_DEFINED_NAMES)
        assert set(CORE_DEFINED_NAMES) == {
            "linformer", "linear_transformer", "performer", "nystromformer",
            "synthesizer", "linformer_dfss", "nystromformer_dfss",
        }
        for name in CORE_DEFINED_NAMES:
            mechanism = registry.make_mechanism(name)
            assert type(mechanism.core) is registry.find_spec(name).core_builder, name
            assert mechanism.name == name

    def test_capability_filters(self):
        # the Appendix-A.7 combo mechanisms gained trainable cores with the
        # layout-generic compressed op
        trainable = registry.available_mechanisms(trainable=True)
        assert "bigbird_dfss" in trainable and "linformer_dfss" in trainable
        compressed = registry.available_mechanisms(compressed=True)
        assert "dfss" in compressed
        # every mask-based mechanism now trains through the compressed path
        for name in ("topk", "local", "sparse_transformer", "longformer",
                     "bigbird", "reformer", "routing", "sinkhorn"):
            assert name in compressed, name
        assert "full" not in compressed
        assert set(registry.available_mechanisms(produces_mask=True)) <= set(ALL_NAMES)
        batchable = registry.available_mechanisms(batchable=True)
        assert "dfss" in batchable and "full" not in batchable

    def test_aliases_resolve(self):
        assert registry.canonical_name("transformer") == "full"
        assert registry.canonical_name("dense") == "full"
        assert registry.canonical_name("fixed") == "fixed_truncated"
        assert registry.canonical_name("nystrom_dfss") == "nystromformer_dfss"
        assert registry.canonical_name("dfss_2:4") == "dfss"
        assert registry.canonical_name("Transformer (full)") == "full"

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError, match="flash"):
            registry.find_spec("flash")

    def test_experiment_table4_catalogue_uses_the_same_specs(self):
        from repro.experiments.registry import table4_mechanisms

        entries = table4_mechanisms()
        assert {e["mechanism"] for e in entries} == set(TABLE4_NAMES)
        for entry in entries:
            assert entry["trainable"], entry["mechanism"]


class TestNumpyRoundTrip:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_engine_matches_make_mechanism(self, name):
        q, k, v = _lattice_qkv(seed=1)
        engine_out = AttentionEngine(name)(q, k, v)
        factory_out = registry.make_mechanism(name)(q, k, v)
        np.testing.assert_array_equal(engine_out, factory_out)

    @pytest.mark.parametrize("name", CLASS_NAMES)
    def test_engine_matches_direct_class_construction(self, name):
        q, k, v = _lattice_qkv(seed=2)
        cls = registry.find_spec(name).mechanism_builder
        np.testing.assert_array_equal(AttentionEngine(name)(q, k, v), cls()(q, k, v))

    def test_one_shot_attention_facade(self):
        q, k, v = _lattice_qkv(seed=3)
        out = repro.attention(q, k, v, mechanism="dfss_2:4")
        ref = repro.attention(q, k, v, mechanism="dfss", pattern="2:4")
        np.testing.assert_array_equal(out, ref)
        assert out.shape == q.shape


class TestCoreRoundTrip:
    @pytest.mark.parametrize("name", TRAINABLE_NAMES)
    def test_engine_core_matches_make_core(self, name):
        qa, ka, va = (Tensor(a) for a in _lattice_qkv(batch=(2, 2), seed=4))
        qb, kb, vb = (Tensor(a) for a in _lattice_qkv(batch=(2, 2), seed=4))
        engine_core = AttentionEngine(name, seq_len_hint=32).core()
        factory_core = registry.make_core(name, seq_len_hint=32)
        out_a = engine_core(qa, ka, va)
        out_b = factory_core(qb, kb, vb)
        np.testing.assert_array_equal(out_a.data, out_b.data)
        mask_a, mask_b = engine_core.last_mask(), factory_core.last_mask()
        if mask_a is not None or mask_b is not None:
            np.testing.assert_array_equal(mask_a, mask_b)

    def test_untrainable_mechanism_core_raises(self):
        spec = registry.MechanismSpec(
            name="untrainable", label="untrainable", description="",
            config_cls=registry.MechanismConfig,
        )
        with pytest.raises(ValueError, match="not trainable"):
            spec.build_core(registry.MechanismConfig())

    def test_combo_mechanism_cores_train(self):
        # bigbird_dfss / linformer_dfss gained trainable cores (ROADMAP item)
        for name in ("bigbird_dfss", "linformer_dfss"):
            core = AttentionEngine(name, seq_len_hint=32).core()
            q, k, v = (Tensor(a, requires_grad=True)
                       for a in _lattice_qkv(batch=(2, 2), seed=11))
            out = core(q, k, v)
            out.sum().backward()
            assert np.all(np.isfinite(out.data)), name
            assert q.grad is not None and np.all(np.isfinite(q.grad)), name

    def test_pattern_suffix_and_explicit_kwarg(self):
        core = registry.make_core("dfss_2:4")
        assert isinstance(core, DfssCore) and core.pattern.name == "2:4"
        core = registry.make_core("dfss_2:4", pattern="1:2")
        assert core.pattern.name == "1:2"  # explicit kwarg beats the suffix
        core = registry.make_core("dfss")
        assert core.pattern.name == "1:2"  # the float32 default, as the mechanism's
        assert DfssCore().pattern == core.pattern  # direct construction agrees

    def test_backend_forwarded_into_core_config(self):
        core = AttentionEngine("dfss", backend="reference").core()
        assert core.backend == "reference"
        # an explicit backend in the mechanism options wins over the
        # engine-level one
        cfg = AttentionConfig(mechanism="dfss", backend="reference",
                              options={"backend": "fast"})
        core = AttentionEngine.from_config(cfg).core()
        assert core.backend == "fast"

    def test_engine_backend_does_not_break_numpy_forward(self):
        # regression: the engine-level backend is scoped via use_backend, not
        # injected into the config, so the numpy mechanism (whose constructor
        # has no backend parameter on the DFSS spec) still builds and runs
        q, k, v = _lattice_qkv(seed=8)
        engine = AttentionEngine("dfss", pattern="2:4", backend="reference")
        out_ref = engine(q, k, v)
        out_fast = AttentionEngine("dfss", pattern="2:4", backend="fast")(q, k, v)
        np.testing.assert_allclose(out_ref, out_fast, atol=1e-6)  # backend parity


class TestEngineMaskRoute:
    """The engine's forward of a trainable mechanism is the core's (and, for
    a mask, the server's)."""

    @pytest.mark.parametrize("n_q, n_k", [(130, 130), (130, 90)])
    @pytest.mark.parametrize("name", MASK_NAMES + CORE_DEFINED_NAMES)
    def test_engine_forward_equals_core_forward_bitwise(self, name, n_q, n_k):
        # lengths that are no multiple of an N:M group or a row block
        rng = np.random.default_rng(12)
        q = rng.standard_normal((2, 2, n_q, 16), dtype=np.float32)
        k, v = (rng.standard_normal((2, 2, n_k, 16), dtype=np.float32) for _ in range(2))
        # the Synthesizer's forward-only table has 4096 rows and its core's
        # seq_len_hint rows unless max_len sets one size for both
        options = {"max_len": 256} if name == "synthesizer" else {}
        engine = AttentionEngine(name, **options)
        if n_q != n_k and registry.find_spec(name).name in SELF_ONLY:
            with pytest.raises(ValueError, match="self-attention"):
                engine(q, k, v)
            return
        core = engine.core()  # a bare core: no attention dropout
        out = core(Tensor(q), Tensor(k), Tensor(v)).data
        assert engine(q, k, v).tobytes() == out.tobytes()

    def test_bare_dfss_engine_forward_equals_its_core_forward_bitwise(self):
        # pattern=None resolves once, from the dtype, for the engine's numpy
        # mechanism and its trainable core alike
        rng = np.random.default_rng(14)
        q, k, v = (rng.standard_normal((2, 2, 130, 16), dtype=np.float32) for _ in range(3))
        engine = AttentionEngine("dfss")
        core = engine.core()
        assert core.pattern == engine.mechanism().pattern
        out = core(Tensor(q), Tensor(k), Tensor(v)).data
        assert engine(q, k, v).tobytes() == out.tobytes()

    @pytest.mark.parametrize("name", CONTENT_MASK_NAMES)
    def test_engine_forward_peaks_at_its_mask(self, name):
        # the forward holds the mask's own arrays and, past them, at most its
        # row-block structure (one bool per mask cell) and the output: no
        # dense score or probability matrix
        batch, heads, n, d = 1, 2, 1024, 64
        rng = np.random.default_rng(13)
        q, k, v = (rng.standard_normal((batch, heads, n, d), dtype=np.float32) for _ in range(3))
        engine = AttentionEngine(name)
        engine(q, k, v)  # compile the plan outside the measurement

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        mask_peak = peak(lambda: engine.attention_mask(q, k))
        slack = batch * heads * n * n + 4 * batch * heads * n * d
        assert peak(lambda: engine(q, k, v)) <= mask_peak + slack


class TestKwargValidation:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_unknown_kwargs_raise_type_error(self, name):
        with pytest.raises(TypeError, match="definitely_not_a_kwarg"):
            AttentionEngine(name, definitely_not_a_kwarg=1)

    def test_side_specific_kwargs_rejected_on_the_other_side(self):
        # dtype is numpy-mechanism-only for DFSS, so the core side rejects it
        with pytest.raises(TypeError, match="dtype"):
            registry.make_core("dfss", dtype="bfloat16")
        # backend is core-only
        with pytest.raises(TypeError, match="backend"):
            registry.make_mechanism("dfss", backend="fast")

    def test_path_is_not_a_knob_on_any_surface(self):
        # the trainable cores have one execution path; path= is an unknown
        # keyword everywhere and fails with the registry's uniform TypeError
        q, k, v = _lattice_qkv()
        uniform = r"unexpected keyword arguments \['path'\]"
        with pytest.raises(TypeError, match=uniform):
            repro.attention(q, k, v, mechanism="dfss", path="sparse")
        with pytest.raises(TypeError, match=uniform):
            AttentionEngine("dfss", path="sparse")
        with pytest.raises(TypeError, match=uniform):
            registry.make_core("local", path="sparse")
        with pytest.raises(TypeError, match=uniform):
            AttentionEngine.from_config(
                AttentionConfig(mechanism="dfss", options={"path": "sparse"})
            )
        # the explicit-signature surfaces reject it as an unknown argument
        with pytest.raises(TypeError, match="path"):
            AttentionEngine("dfss").core(path="sparse")
        with pytest.raises(TypeError, match="path"):
            AttentionConfig(mechanism="dfss", path="sparse")

    def test_config_value_validation(self):
        with pytest.raises(ValueError):
            AttentionEngine("fixed_truncated", density=0.0)
        with pytest.raises(ValueError):
            AttentionEngine("linformer", proj_dim=-3)


class TestEngineSurface:
    def test_from_config_round_trip(self):
        cfg = AttentionConfig(mechanism="dfss", backend="reference",
                              options={"pattern": "1:2"})
        engine = AttentionEngine.from_config(cfg)
        assert engine.name == "dfss"
        assert engine.config.pattern == "1:2"
        assert engine.backend == "reference"

    def test_describe_contains_flags_and_config(self):
        info = AttentionEngine("dfss_1:2", backend="reference").describe()
        assert info["name"] == "dfss"
        assert info["compressed"] is True and info["trainable"] is True
        assert info["config"]["pattern"] == "1:2"
        assert info["backend"] == "reference"

    def test_engine_backend_context_manager(self):
        from repro.core.backend import resolve_backend

        engine = AttentionEngine("dfss", backend="reference")
        # the ambient default honours $REPRO_BACKEND (the CI backend matrix
        # sets it), so compare against whatever it resolves to
        ambient = resolve_backend(None)
        assert ambient != "reference"
        with engine:
            assert resolve_backend(None) == "reference"
            with engine:  # re-entrant
                assert resolve_backend(None) == "reference"
            assert resolve_backend(None) == "reference"
        assert resolve_backend(None) == ambient

    def test_multi_head_layer_does_not_warn(self):
        from repro.nn.attention_layer import MultiHeadSelfAttention

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            layer = MultiHeadSelfAttention(model_dim=16, num_heads=2, mechanism="dfss_2:4")
            layer.set_mechanism("full")

    def test_attention_mask_introspection(self):
        q, k, _ = _lattice_qkv(seed=7)
        mask = AttentionEngine("dfss", pattern="2:4").attention_mask(q, k)
        assert mask.dtype == bool and mask.mean() == pytest.approx(0.5)
