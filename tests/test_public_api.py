"""Every name a module exports through ``__all__`` must resolve.

``from module import *`` fails on a stale ``__all__`` entry, and nothing else
imports the names one by one, so a deleted function whose export line
survives would only show up in a user's session.
"""

import importlib

import pytest

#: Every module of the package that declares ``__all__``.
EXPORTING_MODULES = (
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.bench",
    "repro.core",
    "repro.core.multicore",
    "repro.core.plan_cache",
    "repro.data",
    "repro.engine",
    "repro.experiments",
    "repro.gpusim",
    "repro.nn",
    "repro.profile",
    "repro.profile.dag",
    "repro.profile.replay",
    "repro.profile.report",
    "repro.profile.tracer",
    "repro.registry",
    "repro.serve",
    "repro.serve.batcher",
    "repro.serve.cache",
    "repro.serve.engine",
    "repro.serve.executor",
    "repro.serve.workload",
    "repro.utils",
)


@pytest.mark.parametrize("name", EXPORTING_MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert exported, f"{name}.__all__ is empty"
    assert len(exported) == len(set(exported)), f"duplicate entries in {name}.__all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_star_import_of_the_core_package():
    namespace = {}
    exec("from repro.core import *", namespace)
    assert {"AttentionPlan", "DfssAttention", "dfss_attention"} <= set(namespace)


def test_unknown_core_attribute_raises():
    import repro.core

    with pytest.raises(AttributeError, match="warp_drive"):
        repro.core.warp_drive
