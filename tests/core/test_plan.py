"""Tests for the compiled plan/execute layer (:mod:`repro.core.plan`).

Covers the backend plan-builder registry seam, the LRU plan cache and its
hit/miss accounting, and the :meth:`AttentionEngine.plan` façade.
"""

import numpy as np
import pytest

from repro.core.backend import (
    FAST,
    REFERENCE,
    available_plan_backends,
    get_plan_builder,
)
from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.patterns import PATTERN_2_4
from repro.core.plan import (
    AttentionPlan,
    PlanKey,
    build_plan,
    clear_plan_cache,
    plan_cache_stats,
    plan_for_nm,
    plan_for_structure,
)
from repro.engine import AttentionEngine


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _qkv(seq=16, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return tuple(
        rng.standard_normal((seq, d), dtype=np.float32) for _ in range(3)
    )


class TestPlanBuilders:
    def test_both_backends_register_builders(self):
        assert set(available_plan_backends()) >= {REFERENCE, FAST}

    def test_fast_builds_fused_reference_builds_staged(self):
        key = PlanKey("dfss_2:4", "nm", FAST, "float32", (16, 16, 8))
        assert build_plan(key).fused is True
        ref_key = PlanKey("dfss_2:4", "nm", REFERENCE, "float32", (16, 16, 8))
        assert build_plan(ref_key).fused is False

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_plan_builder("warp")

    def test_unknown_layout_rejected(self):
        key = PlanKey("dfss_2:4", "blocked", FAST, "float32", (16, 16, 8))
        with pytest.raises(ValueError, match="unknown plan layout"):
            AttentionPlan(key, fused=True)

    def test_csr_plan_requires_structure_to_score(self):
        mask = np.eye(8, dtype=bool)
        structure = PaddedCSRMatrix.from_mask(mask)
        plan = plan_for_structure(structure, backend=FAST)
        q, k, _ = _qkv(seq=8, d=4)
        with pytest.raises(ValueError, match="structure"):
            plan.compute_scores(q, k)


class TestPlanCache:
    def test_same_geometry_hits(self):
        a = plan_for_nm(PATTERN_2_4, 16, 16, backend=FAST)
        b = plan_for_nm("2:4", 16, 16, backend=FAST)
        assert a is b
        stats = plan_cache_stats()
        assert stats == {"size": 1, "hits": 1, "misses": 2 - 1, "evictions": 0}

    def test_key_axes_separate_plans(self):
        base = plan_for_nm(PATTERN_2_4, 16, 16, backend=FAST)
        assert plan_for_nm(PATTERN_2_4, 32, 32, backend=FAST) is not base
        assert plan_for_nm("1:2", 16, 16, backend=FAST) is not base
        assert plan_for_nm(PATTERN_2_4, 16, 16, backend=REFERENCE) is not base
        assert plan_cache_stats()["misses"] == 4

    def test_structure_plans_share_by_geometry(self):
        mask = np.triu(np.ones((12, 12), dtype=bool), -2)
        a = plan_for_structure(PaddedCSRMatrix.from_mask(mask), backend=FAST)
        b = plan_for_structure(PaddedCSRMatrix.from_mask(mask), backend=FAST)
        assert a is b

    def test_lru_eviction_bounds_the_cache(self):
        from repro.core import plan as plan_module

        for rows in range(8, 8 + plan_module._PLAN_CACHE_MAX + 8):
            plan_for_nm(PATTERN_2_4, rows, 16, backend=FAST)
        assert plan_cache_stats()["size"] == plan_module._PLAN_CACHE_MAX
        assert plan_cache_stats()["evictions"] == 8

    def test_clear_resets_stats(self):
        plan_for_nm(PATTERN_2_4, 16, 16, backend=FAST)
        clear_plan_cache()
        assert plan_cache_stats() == {
            "size": 0, "hits": 0, "misses": 0, "evictions": 0,
        }

    def test_build_plan_is_uncached(self):
        key = PlanKey("dfss_2:4", "nm", FAST, "float32", (16, 16, 8))
        assert build_plan(key) is not build_plan(key)
        assert plan_cache_stats()["size"] == 0


class TestPlanExecution:
    def test_nm_forward_matches_dfss_attention(self):
        from repro.core.attention import dfss_attention

        q, k, v = _qkv()
        plan = plan_for_nm(PATTERN_2_4, 16, 16, backend=FAST)
        np.testing.assert_array_equal(
            plan(q, k, v, scale=0.5),
            dfss_attention(q, k, v, pattern="2:4", scale=0.5, backend=FAST),
        )

    def test_return_probs_row_sums(self):
        q, k, v = _qkv(seed=3)
        plan = plan_for_nm(PATTERN_2_4, 16, 16, backend=FAST)
        out, probs = plan(q, k, v, scale=0.5, return_probs=True)
        assert out.shape == v.shape
        np.testing.assert_allclose(probs.values.sum(-1), 1.0, atol=1e-6)

    def test_compute_probs_owned_false_preserves_scores(self):
        q, k, _ = _qkv(seed=4)
        mask = np.triu(np.ones((16, 16), dtype=bool), -4)
        structure = PaddedCSRMatrix.from_mask(mask)
        plan = plan_for_structure(structure, backend=FAST)
        scores = plan.compute_scores(q, k, structure, scale=0.5)
        before = scores.values.copy()
        probs = plan.compute_probs(scores, owned=False)
        np.testing.assert_array_equal(scores.values, before)
        assert probs.values is not scores.values

    def test_fused_compute_probs_reuses_the_score_buffer(self):
        q, k, _ = _qkv(seed=5)
        plan = plan_for_nm(PATTERN_2_4, 16, 16, backend=FAST)
        scores = plan.compute_scores(q, k, scale=0.5)
        probs = plan.compute_probs(scores)
        assert probs.values is scores.values  # in place: no intermediate


class TestEnginePlan:
    def test_dfss_engine_plans_nm(self):
        plan = AttentionEngine("dfss_2:4", backend=FAST).plan(n_q=32)
        assert plan.key.layout == "nm"
        assert plan.key.mechanism == "dfss_2:4"
        assert plan.key.shape_class[0] == 32

    def test_static_mask_engine_plans_csr_from_its_mask(self):
        engine = AttentionEngine("local", window=4)
        plan = engine.plan(n_q=24)
        assert plan.key.layout == "csr"
        assert plan.key.mechanism == "local"
        assert plan.key.shape_class[:2] == (24, 24)

    def test_engine_plan_defaults_to_seq_len_hint(self):
        engine = AttentionEngine("local", window=4, seq_len_hint=16)
        assert engine.plan().key.shape_class[0] == 16

    def test_data_dependent_engine_needs_explicit_structure(self):
        engine = AttentionEngine("topk", k=4)
        with pytest.raises(ValueError, match="structure"):
            engine.plan(n_q=16)
        structure = PaddedCSRMatrix.from_mask(np.eye(16, dtype=bool))
        plan = engine.plan(structure=structure)
        assert plan.key.layout == "csr" and plan.key.mechanism == "topk"

    def test_uncompressed_engine_rejected(self):
        with pytest.raises(ValueError, match="no compressed execution plan"):
            AttentionEngine("full").plan(n_q=16)
