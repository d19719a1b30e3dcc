"""Tests for the kernel backend registry and its dispatch rules."""

import numpy as np
import pytest

from repro.core import backend
from repro.core.backend import (
    FAST,
    REFERENCE,
    available_backends,
    available_kernels,
    get_kernel,
    register_kernel,
    resolve_backend,
    use_backend,
)
from repro.core.sddmm import sddmm_masked
from repro.core.sparse import NMSparseMatrix
from repro.core.softmax import sparse_softmax

# Importing the kernel modules above populates the registry.
EXPECTED_KERNELS = (
    "masked_softmax", "nm_attention", "nm_attention_bwd", "nm_prune_mask",
    "row_block_attention", "row_block_attention_bwd", "spmm",
)


class TestRegistry:
    def test_all_kernels_registered(self):
        assert set(EXPECTED_KERNELS) <= set(available_kernels())

    @pytest.mark.parametrize("kernel", EXPECTED_KERNELS)
    def test_both_backends_registered(self, kernel):
        assert set(available_backends(kernel)) >= {REFERENCE, FAST}

    def test_get_kernel_returns_callables(self):
        for kernel in EXPECTED_KERNELS:
            assert callable(get_kernel(kernel, REFERENCE))
            assert callable(get_kernel(kernel, FAST))

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            get_kernel("flash_attention")

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="reference"):
            get_kernel("spmm", backend="cuda")

    def test_register_new_backend(self):
        sentinel = object()

        @register_kernel("spmm", "testprobe")
        def probe(weights, v):
            return sentinel

        try:
            assert get_kernel("spmm", "testprobe")(None, None) is sentinel
            assert "testprobe" in available_backends("spmm")
        finally:
            del backend._REGISTRY["spmm"]["testprobe"]


class TestResolution:
    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv(backend.ENV_VAR, raising=False)
        assert resolve_backend() == FAST

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(backend.ENV_VAR, "reference")
        assert resolve_backend() == REFERENCE

    def test_env_var_typo_rejected_with_choices(self, monkeypatch):
        monkeypatch.setenv(backend.ENV_VAR, "fats")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            resolve_backend()

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(backend.ENV_VAR, "reference")
        assert resolve_backend("fast") == FAST

    def test_names_are_normalised(self):
        assert resolve_backend("  Fast ") == FAST

    def test_use_backend_overrides_and_restores(self, monkeypatch):
        monkeypatch.delenv(backend.ENV_VAR, raising=False)
        with use_backend(REFERENCE):
            assert resolve_backend() == REFERENCE
            # explicit argument still wins inside the context
            assert resolve_backend(FAST) == FAST
        assert resolve_backend() == FAST

    def test_use_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            with use_backend("gpu"):
                pass  # pragma: no cover

    def test_use_backend_restores_after_exception(self, monkeypatch):
        monkeypatch.delenv(backend.ENV_VAR, raising=False)
        with pytest.raises(RuntimeError):
            with use_backend(REFERENCE):
                raise RuntimeError("boom")
        assert resolve_backend() == FAST


class TestDispatchIntegration:
    def test_env_var_routes_sparse_softmax(self, monkeypatch):
        calls = []

        @register_kernel("masked_softmax", "testprobe")
        def probe(scores):
            calls.append(scores)
            return scores

        try:
            monkeypatch.setenv(backend.ENV_VAR, "testprobe")
            sentinel = object()
            assert sparse_softmax(sentinel) is sentinel
            assert calls == [sentinel]
        finally:
            del backend._REGISTRY["masked_softmax"]["testprobe"]

    def test_sddmm_backend_argument(self, monkeypatch):
        monkeypatch.delenv(backend.ENV_VAR, raising=False)
        rng = np.random.default_rng(0)
        q = rng.normal(size=(16, 8)).astype(np.float32)
        k = rng.normal(size=(16, 8)).astype(np.float32)
        structure = NMSparseMatrix.from_dense(np.tril(np.ones((16, 16), np.float32)), "2:4")
        ref = sddmm_masked(q, k, structure, backend=REFERENCE)
        fast = sddmm_masked(q, k, structure, backend=FAST)
        np.testing.assert_allclose(ref.values, fast.values, atol=1e-6)


class TestErrorMessages:
    """get_kernel failures must name every registered kernel/backend (PR 8)."""

    def test_unknown_kernel_lists_registered_names(self):
        with pytest.raises(KeyError) as exc:
            get_kernel("flash_attention")
        msg = str(exc.value)
        for kernel in EXPECTED_KERNELS:
            assert kernel in msg

    def test_unknown_kernel_suggests_close_matches(self):
        with pytest.raises(KeyError, match="did you mean"):
            get_kernel("spm")
        with pytest.raises(KeyError, match="sddmm_masked"):
            get_kernel("sddmm_maskd")

    def test_missing_backend_lists_available_and_selection_paths(self):
        @register_kernel("refonly_probe", REFERENCE)
        def probe(x):
            return x  # pragma: no cover - never dispatched

        try:
            with pytest.raises(ValueError) as exc:
                get_kernel("refonly_probe", backend=FAST)
            msg = str(exc.value)
            assert "refonly_probe" in msg
            assert "reference" in msg  # what it does have
            assert "backend=" in msg and "REPRO_BACKEND" in msg  # how to pick
        finally:
            del backend._REGISTRY["refonly_probe"]
