"""`repro.serve` — request-level attention serving over the mechanism registry.

The module is callable: ``repro.serve(requests)`` serves a request list
offline through the deadline-aware batching scheduler, which coalesces
requests of *different* mechanisms and sequence lengths into one batch and
runs it on the same compiled :class:`~repro.core.plan.AttentionPlan` objects the
engine, autograd and bench use, with bitwise request-isolation.  See
:mod:`repro.serve.engine` for the server, :mod:`repro.serve.batcher` for the
routes and the coalescing, and :mod:`repro.serve.workload` for the synthetic
traffic generator.
"""

from __future__ import annotations

import sys
from types import ModuleType

from repro.serve.batcher import (
    PreparedRequest,
    prepare_request,
    run_ragged_batch,
    structure_cache_key,
)
from repro.serve.cache import StructureCache
from repro.serve.engine import AttentionServer, ServeRequest, ServeResult, serve
from repro.serve.workload import DEFAULT_MIX, synthetic_workload

__all__ = [
    "AttentionServer",
    "ServeRequest",
    "ServeResult",
    "serve",
    "StructureCache",
    "synthetic_workload",
    "DEFAULT_MIX",
    "PreparedRequest",
    "prepare_request",
    "run_ragged_batch",
    "structure_cache_key",
]


class _CallableServeModule(ModuleType):
    """Lets ``repro.serve(...)`` act as the facade while staying a module."""

    def __call__(self, requests, **kwargs):
        return serve(requests, **kwargs)


sys.modules[__name__].__class__ = _CallableServeModule
