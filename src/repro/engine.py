"""`repro.engine` — the user-facing façade over the unified mechanism registry.

One call::

    import repro
    out = repro.attention(q, k, v, mechanism="dfss_2:4")

or an engine object when the mechanism is reused::

    engine = repro.AttentionEngine("dfss", pattern="2:4", backend="fast")
    out = engine(q, k, v)                      # numpy forward pass
    core = engine.core(seq_len_hint=512)       # trainable autograd core
    engine.describe()                          # name, flags, config
    with engine:                               # scope the backend for a block
        other_code_dispatching_kernels()

Engines are declarative: construction resolves the mechanism through
:mod:`repro.registry` and validates every keyword argument against the
mechanism's typed config dataclass, so a typo fails immediately with a
``TypeError`` instead of deep inside a forward pass.  ``backend=`` scopes the
kernel-registry backend (reusing :func:`repro.core.backend.use_backend`) around
every call the engine makes, and is forwarded into the mechanism config when
the mechanism itself takes a ``backend`` argument (the mask mechanisms'
cores, Nyströmformer + DFSS).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import List, Mapping, Optional

import numpy as np

from repro import registry
from repro.core.backend import use_backend

__all__ = ["AttentionConfig", "AttentionEngine", "attention", "available_mechanisms"]

#: Introspection re-export so ``repro.available_mechanisms()`` is the one
#: enumeration point for every registered mechanism.
available_mechanisms = registry.available_mechanisms


@dataclass(frozen=True)
class AttentionConfig:
    """Declarative engine configuration (``AttentionEngine.from_config``).

    ``options`` holds the mechanism-specific keyword arguments and is
    validated against the mechanism's typed config dataclass at engine
    construction.
    """

    mechanism: str = "dfss_2:4"
    backend: Optional[str] = None
    seq_len_hint: int = 512
    options: Mapping[str, object] = field(default_factory=dict)


class AttentionEngine:
    """Façade constructing and running one attention mechanism.

    Parameters
    ----------
    mechanism:
        Canonical name, alias, or pattern-suffixed shortcut (``dfss_1:2``).
    backend:
        Optional kernel backend scoped around every engine call; also
        forwarded to mechanisms that accept a ``backend=`` config field.
    seq_len_hint:
        Default sequence-length hint used when building trainable cores
        (mechanisms with length-dependent state, e.g. the Synthesizer table).
    **options:
        Mechanism-specific keyword arguments, validated against the
        mechanism's config dataclass.
    """

    def __init__(
        self,
        mechanism: str = "dfss_2:4",
        backend: Optional[str] = None,
        seq_len_hint: int = 512,
        _options: Optional[Mapping[str, object]] = None,
        **options,
    ):
        # _options carries a pre-assembled mechanism-option mapping (used by
        # from_config, whose options may legitimately contain a "backend"
        # config field that would collide with the engine-level parameter)
        merged = {**dict(_options or {}), **options}
        self.spec, self.config = registry.make_config(mechanism, **merged)
        self.backend = backend
        self.seq_len_hint = int(seq_len_hint)
        self._mechanism = None
        self._scopes: List[ExitStack] = []

    # ------------------------------------------------------------ construction
    @classmethod
    def from_config(cls, config: AttentionConfig) -> "AttentionEngine":
        """Build an engine from a declarative :class:`AttentionConfig`."""
        return cls(
            config.mechanism,
            backend=config.backend,
            seq_len_hint=config.seq_len_hint,
            _options=config.options,
        )

    # -------------------------------------------------------------- properties
    @property
    def name(self) -> str:
        """Canonical mechanism name."""
        return self.spec.name

    @property
    def trainable(self) -> bool:
        return self.spec.trainable

    # ------------------------------------------------------------------ pieces
    def mechanism(self):
        """The forward-only mechanism (constructed lazily, cached)."""
        if self._mechanism is None:
            self._mechanism = self.spec.build_mechanism(self.config)
        return self._mechanism

    def core(self, seq_len_hint: Optional[int] = None, *, backend: Optional[str] = None):
        """Build a trainable :class:`~repro.nn.attention_layer.AttentionCore`.

        ``backend=`` overrides the engine-level backend for this core: it
        fills the mechanism's ``backend`` config field unless an option set
        it, and never raises.  Raises ``ValueError`` for mechanisms without
        a registered core (``spec.trainable`` is ``False``).
        """
        backend = self.backend if backend is None else backend
        config = self.config
        if backend is not None and getattr(config, "backend", backend) is None:
            config = replace(config, backend=backend)
        return self.spec.build_core(
            config, self.seq_len_hint if seq_len_hint is None else int(seq_len_hint)
        )

    # ----------------------------------------------------------------- running
    def _backend_scope(self) -> ExitStack:
        stack = ExitStack()
        if self.backend is not None:
            stack.enter_context(use_backend(self.backend))
        return stack

    def __call__(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Numpy forward pass through the mechanism, under the engine backend.

        This is the forward the server and the trainable core run: DFSS's
        N:M plan, or for every other mask the row-block plan over the call's
        :meth:`~repro.baselines.base.AttentionMechanism.mask_structure`
        (BigBird + DFSS runs the N:M plan over BigBird's row-block
        structure); a kernel or low-rank mechanism runs its trainable core
        without gradients.
        """
        with self._backend_scope():
            return self.mechanism()(q, k, v)

    def attention_mask(self, q: np.ndarray, k: np.ndarray) -> Optional[np.ndarray]:
        """Boolean mask over the dense score matrix, if the mechanism defines one."""
        with self._backend_scope():
            return self.mechanism().attention_mask(q, k)

    def plan(self, n_q: Optional[int] = None, n_k: Optional[int] = None, structure=None):
        """Compiled :class:`~repro.core.plan.AttentionPlan` for this mechanism.

        The plan is the executable the autograd ops, the serving batcher, and
        the bench runner share; this method exposes it for introspection and
        direct execution.  ``n_q`` / ``n_k`` default to ``seq_len_hint``.
        DFSS plans the N:M layout, and so does BigBird + DFSS, whose
        ``forward`` takes BigBird's structure as ``structure=``
        (``mechanism().bigbird.cached_structure(n_q, n_k)``); a static mask
        plans the row-block layout
        of its structure (``mechanism().block_structure(n_q, n_k)``, which
        the plan's ``forward`` takes as ``structure=``).  Mechanisms that
        choose their structure from the data (Top-K, Routing, …) cannot be
        planned from shapes alone — pass ``structure=mechanism().mask_structure(q, k)``,
        the structure :meth:`__call__` runs, explicitly.  Raises
        ``ValueError`` for mechanisms with no compressed path.
        """
        from repro.core.plan import plan_for_blocks, plan_for_nm

        if structure is not None:
            return plan_for_blocks(structure, backend=self.backend, mechanism=self.name)
        if not self.spec.compressed:
            raise ValueError(
                f"mechanism {self.name!r} has no compressed execution plan"
            )
        n_q = self.seq_len_hint if n_q is None else int(n_q)
        n_k = n_q if n_k is None else int(n_k)
        if self.spec.static_mask:
            return plan_for_blocks(
                self.mechanism().block_structure(n_q, n_k),
                backend=self.backend,
                mechanism=self.name,
            )
        pattern = getattr(self.config, "pattern", None)
        if pattern is None:
            raise ValueError(
                f"mechanism {self.name!r} chooses its structure from the data; "
                f"pass the structure= of its mask explicitly"
            )
        return plan_for_nm(pattern, n_q, n_k, backend=self.backend)

    # ----------------------------------------------------------- introspection
    def describe(self) -> dict:
        """Identity, capability flags, and resolved configuration."""
        return {
            "name": self.spec.name,
            "label": self.spec.label,
            "description": self.spec.description,
            "aliases": list(self.spec.aliases),
            **self.spec.capabilities(),
            "backend": self.backend,
            "seq_len_hint": self.seq_len_hint,
            "config": self.config.describe(),
        }

    # ------------------------------------------------- backend context manager
    def __enter__(self) -> "AttentionEngine":
        """Scope the engine backend over a block (reuses :func:`use_backend`)."""
        self._scopes.append(self._backend_scope())
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._scopes.pop().close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        backend = f", backend={self.backend!r}" if self.backend else ""
        return f"AttentionEngine({self.spec.name!r}{backend})"


def attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mechanism: str = "dfss_2:4",
    backend: Optional[str] = None,
    **options,
) -> np.ndarray:
    """One-shot attention through any registered mechanism.

    ``repro.attention(q, k, v)`` is the paper's drop-in replacement; pass
    ``mechanism="full"`` for the dense reference or any name from
    :func:`repro.available_mechanisms` for a baseline.  ``backend=`` is
    accepted uniformly with :meth:`AttentionEngine.core` and
    :class:`AttentionConfig`; a knob the mechanism does not support raises
    the registry's uniform ``TypeError``.
    """
    return AttentionEngine(mechanism, backend=backend, **options)(q, k, v)
