"""Unified attention-mechanism registry: one catalogue for every construction API.

Historically the repo grew three parallel ways to build the same mechanism —
the ``dspattn`` Figure-3 shim, a second numpy-class catalogue in
:mod:`repro.baselines`, and a 16-branch ``if/elif`` factory chain in the nn
layer — plus a fourth ad-hoc naming scheme in the experiment tables.  This
module replaces all of them with a single declarative catalogue:

* :class:`MechanismSpec` — one record per mechanism: canonical name, aliases,
  capability flags (``trainable``, ``produces_mask``, ``compressed``,
  ``batchable``, ``static_mask``), a typed config
  dataclass, and constructors for both the forward-only numpy mechanism
  (:mod:`repro.baselines` for the masks; for the kernel and low-rank
  methods an adapter over their core) and the trainable autograd core
  (:mod:`repro.nn.attention_layer`);
* :func:`register_mechanism` — the decorator each baseline class / core
  builder registers itself with;
* :func:`find_spec` / :func:`available_mechanisms` / :func:`describe_mechanism`
  — introspection;
* :func:`make_mechanism` / :func:`make_core` — the construction entry points
  the legacy factories now delegate to.

The user-facing façade on top of this registry lives in :mod:`repro.engine`
(``repro.attention(...)`` and :class:`repro.engine.AttentionEngine`).

Per-mechanism keyword arguments are validated through frozen config
dataclasses (:class:`MechanismConfig` subclasses): unknown keys raise
``TypeError`` and out-of-range values raise ``ValueError`` at construction
time instead of surfacing deep inside a forward pass.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Dict, Optional, Tuple

from repro.core.patterns import resolve_pattern

__all__ = [
    "MechanismConfig",
    "MechanismSpec",
    "register_mechanism",
    "find_spec",
    "canonical_name",
    "available_mechanisms",
    "describe_mechanism",
    "specs",
    "make_config",
    "make_mechanism",
    "make_core",
]


# ----------------------------------------------------------------- config base
@dataclass(frozen=True)
class MechanismConfig:
    """Base class for per-mechanism typed configuration.

    Subclasses declare one field per constructor argument.  Fields consumed
    by only one side of the registry are listed in ``_MECHANISM_ONLY`` /
    ``_CORE_ONLY``; building the other side with such a field set to a
    non-default value raises ``TypeError`` (matching the strictness of the
    legacy factories, which never silently dropped keyword arguments).
    """

    #: fields consumed only by the numpy mechanism constructor.
    _MECHANISM_ONLY: ClassVar[Tuple[str, ...]] = ()
    #: fields consumed only by the trainable core constructor.
    _CORE_ONLY: ClassVar[Tuple[str, ...]] = ()

    @classmethod
    def from_kwargs(cls, mechanism: str = "?", /, **kwargs) -> "MechanismConfig":
        """Build a config from loose kwargs; unknown keys raise ``TypeError``."""
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            raise TypeError(
                f"unexpected keyword arguments {unknown} for attention mechanism "
                f"{mechanism!r}; accepted: {sorted(valid)}"
            )
        return cls(**kwargs)

    # ------------------------------------------------------------- kwarg views
    def _field_dict(self, exclude: Tuple[str, ...]) -> Dict[str, object]:
        return {
            f.name: getattr(self, f.name) for f in fields(self) if f.name not in exclude
        }

    def _reject_foreign(self, side: str, foreign: Tuple[str, ...]) -> None:
        offending = sorted(
            f.name
            for f in fields(self)
            if f.name in foreign and getattr(self, f.name) != f.default
        )
        if offending:
            raise TypeError(
                f"keyword arguments {offending} are not accepted by the {side} "
                f"constructor of this mechanism"
            )

    def mechanism_kwargs(self) -> Dict[str, object]:
        """Constructor kwargs for the forward-only numpy mechanism."""
        self._reject_foreign("numpy-mechanism", self._CORE_ONLY)
        return self._field_dict(self._CORE_ONLY)

    def core_kwargs(self, seq_len_hint: int) -> Dict[str, object]:
        """Constructor kwargs for the trainable attention core."""
        self._reject_foreign("trainable-core", self._MECHANISM_ONLY)
        return self._field_dict(self._MECHANISM_ONLY)

    def describe(self) -> Dict[str, object]:
        """JSON-ish summary of the configuration (patterns as their names)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = getattr(value, "name", value)
        return out


def _check_positive(value, name: str) -> None:
    if value is not None and value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def _check_density(value, name: str = "density") -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value!r}")


@dataclass(frozen=True)
class MaskedCoreConfig(MechanismConfig):
    """Shared core-side knob of every mask-based mechanism.

    Every mask-based trainable core runs forward and backward through a
    compressed autograd op; ``backend`` selects the kernel backend for every
    dispatched stage.  The field is core-only — the forward-only numpy
    mechanisms reject it.
    """

    backend: Optional[str] = None

    _CORE_ONLY = ("backend",)


# --------------------------------------------------------- per-mechanism configs
@dataclass(frozen=True)
class FullConfig(MechanismConfig):
    """Dense ``softmax(QK^T)V`` attention."""

    dtype: str = "float32"

    _MECHANISM_ONLY = ("dtype",)


@dataclass(frozen=True)
class DfssConfig(MaskedCoreConfig):
    """Dynamic N:M structured sparse attention (the paper's mechanism).

    ``pattern=None`` defers to the hardware default of ``dtype``,
    :func:`~repro.core.patterns.default_pattern_for_dtype` (1:2 for float32,
    2:4 for bfloat16).  The trainable core accepts only float32 and resolves
    ``None`` by the same rule, so both prune with one pattern.
    """

    pattern: object = None
    dtype: str = "float32"

    _MECHANISM_ONLY = ("dtype",)

    def __post_init__(self) -> None:
        if self.pattern is not None:
            resolve_pattern(self.pattern)  # raises ValueError on unknown patterns


@dataclass(frozen=True)
class TopKConfig(MaskedCoreConfig):
    """Per-row explicit Top-K selection (oracle upper bound for DFSS)."""

    density: float = 0.05
    k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.k is None:
            _check_density(self.density)
        else:
            _check_positive(self.k, "k")


@dataclass(frozen=True)
class LocalConfig(MaskedCoreConfig):
    """Sliding-window local attention."""

    window: int = 32

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError("window must be non-negative")


@dataclass(frozen=True)
class StridedConfig(MaskedCoreConfig):
    """Sparse-Transformer local + strided pattern."""

    window: int = 16
    stride: int = 64

    def __post_init__(self) -> None:
        _check_positive(self.stride, "stride")


@dataclass(frozen=True)
class TruncatedConfig(MaskedCoreConfig):
    """Keep a fixed leading fraction of key columns (Appendix A.4)."""

    density: float = 0.5

    def __post_init__(self) -> None:
        _check_density(self.density)


@dataclass(frozen=True)
class LongformerConfig(MaskedCoreConfig):
    """Sliding window plus global tokens."""

    window: int = 32
    num_global: int = 1


@dataclass(frozen=True)
class BigBirdConfig(MaskedCoreConfig):
    """Blocked window/global/random pattern."""

    block_size: int = 64
    window_blocks: int = 1
    num_global_blocks: int = 1
    num_random_blocks: int = 1
    seed: object = 0

    def __post_init__(self) -> None:
        _check_positive(self.block_size, "block_size")


@dataclass(frozen=True)
class SynthesizerConfig(MechanismConfig):
    """Random Synthesizer (content-independent attention matrix).

    ``max_len=None`` sizes the table by use: 4096 rows for the forward-only
    mechanism, so it takes every length up to 4096, and the layer's
    ``seq_len_hint`` for the trainable core.  The two tables differ unless
    ``max_len`` is set (or the hint is 4096).
    """

    max_len: Optional[int] = None
    seed: object = 0

    def mechanism_kwargs(self) -> Dict[str, object]:
        kwargs = super().mechanism_kwargs()
        if kwargs["max_len"] is None:
            kwargs["max_len"] = 4096
        return kwargs

    def core_kwargs(self, seq_len_hint: int) -> Dict[str, object]:
        kwargs = super().core_kwargs(seq_len_hint)
        if kwargs["max_len"] is None:
            kwargs["max_len"] = seq_len_hint
        return kwargs


@dataclass(frozen=True)
class LinformerConfig(MechanismConfig):
    """Low-rank key/value projection."""

    proj_dim: int = 64
    seed: object = 0

    def __post_init__(self) -> None:
        _check_positive(self.proj_dim, "proj_dim")


@dataclass(frozen=True)
class LinearTransformerConfig(MechanismConfig):
    """Kernelised linear attention (elu+1 feature map); no knobs."""


@dataclass(frozen=True)
class PerformerConfig(MechanismConfig):
    """FAVOR+ positive random features."""

    num_features: Optional[int] = None
    seed: object = 0

    def __post_init__(self) -> None:
        _check_positive(self.num_features, "num_features")


@dataclass(frozen=True)
class ReformerConfig(MaskedCoreConfig):
    """LSH bucketed attention."""

    n_buckets: int = 16
    n_hashes: int = 2
    seed: object = 0

    def __post_init__(self) -> None:
        _check_positive(self.n_buckets, "n_buckets")
        _check_positive(self.n_hashes, "n_hashes")


@dataclass(frozen=True)
class RoutingConfig(MaskedCoreConfig):
    """k-means routed attention."""

    n_clusters: Optional[int] = None
    kmeans_iters: int = 4
    seed: object = 0

    def __post_init__(self) -> None:
        _check_positive(self.n_clusters, "n_clusters")


@dataclass(frozen=True)
class SinkhornConfig(MaskedCoreConfig):
    """Block-matched Sinkhorn attention."""

    block_size: int = 32
    sinkhorn_iters: int = 8

    def __post_init__(self) -> None:
        _check_positive(self.block_size, "block_size")


@dataclass(frozen=True)
class NystromformerConfig(MechanismConfig):
    """Nyström landmark attention."""

    num_landmarks: int = 32
    pinv_iters: int = 6

    def __post_init__(self) -> None:
        _check_positive(self.num_landmarks, "num_landmarks")


@dataclass(frozen=True)
class NystromDfssConfig(MechanismConfig):
    """Nyströmformer with DFSS-pruned softmax kernels (Appendix A.7 combo);
    ``backend`` (core-only) selects the backend of the N:M selection."""

    num_landmarks: int = 32
    pinv_iters: int = 6
    pattern: object = "2:4"
    backend: Optional[str] = None

    _CORE_ONLY = ("backend",)

    def __post_init__(self) -> None:
        _check_positive(self.num_landmarks, "num_landmarks")
        resolve_pattern(self.pattern)  # the combination always prunes


@dataclass(frozen=True)
class BigBirdDfssConfig(MaskedCoreConfig):
    """BigBird's blocks with N:M pruning inside them: the N:M kernels run
    over BigBird's row-block structure (``structure=``), so only its blocks
    are scored."""

    pattern: object = "2:4"
    dtype: str = "float32"
    block_size: int = 64
    window_blocks: int = 1
    num_global_blocks: int = 1
    num_random_blocks: int = 1
    seed: object = 0


@dataclass(frozen=True)
class LinformerDfssConfig(MaskedCoreConfig):
    """Linformer projection with N:M pruning of the projected scores."""

    proj_dim: int = 64
    pattern: object = "2:4"
    seed: object = 0

    def __post_init__(self) -> None:
        _check_positive(self.proj_dim, "proj_dim")
        resolve_pattern(self.pattern)


# ------------------------------------------------------------------- the spec
@dataclass
class MechanismSpec:
    """One attention mechanism: identity, capabilities, and constructors."""

    name: str
    label: str
    description: str
    config_cls: type
    aliases: Tuple[str, ...] = ()
    produces_mask: bool = False
    compressed: bool = False
    #: whether the serving layer (:mod:`repro.serve`) may stack requests of
    #: this mechanism into one plan call (:mod:`repro.serve.batcher`): DFSS
    #: on an N:M plan, static masks on a row-block plan over their cached
    #: structure, content-dependent masks on a row-block plan over the
    #: structure of their mask.  True for DFSS and for the mask-based
    #: mechanisms whose mask fully determines the computation; the others
    #: (e.g. Linformer's projection) fall back to per-request execution.
    batchable: bool = False
    #: whether the mask depends only on (config, sequence lengths) — never on
    #: the request content — so the serving structure cache may reuse one
    #: compressed structure across requests.
    static_mask: bool = False
    #: key into :data:`repro.gpusim.attention_latency.ATTENTION_MECHANISMS`
    #: (and the memory model), when an analytical latency model exists.
    latency_model: Optional[str] = None
    mechanism_builder: Optional[Callable] = None
    core_builder: Optional[Callable] = None

    @property
    def trainable(self) -> bool:
        """Whether a trainable autograd core is registered for this mechanism."""
        return self.core_builder is not None

    def capabilities(self) -> Dict[str, bool]:
        return {
            "trainable": self.trainable,
            "produces_mask": self.produces_mask,
            "compressed": self.compressed,
            "batchable": self.batchable,
            "static_mask": self.static_mask,
        }

    def build_mechanism(self, config: MechanismConfig):
        """Instantiate the forward-only numpy mechanism from ``config``."""
        if self.mechanism_builder is None:
            raise ValueError(f"mechanism {self.name!r} has no numpy implementation")
        builder = self.mechanism_builder
        if inspect.isclass(builder):
            return builder(**config.mechanism_kwargs())
        return builder(config)

    def build_core(self, config: MechanismConfig, seq_len_hint: int = 512):
        """Instantiate the trainable attention core from ``config``."""
        if self.core_builder is None:
            raise ValueError(
                f"mechanism {self.name!r} is not trainable (no attention core is "
                f"registered); trainable mechanisms: {available_mechanisms(trainable=True)}"
            )
        builder = self.core_builder
        if inspect.isclass(builder):
            return builder(**config.core_kwargs(seq_len_hint))
        return builder(config, seq_len_hint)


_REGISTRY: Dict[str, MechanismSpec] = {}
_ALIASES: Dict[str, str] = {}
_POPULATED = False


def register_mechanism(
    name: str,
    *,
    role: str = "mechanism",
    config: Optional[type] = None,
    label: Optional[str] = None,
    description: str = "",
    aliases: Tuple[str, ...] = (),
    produces_mask: bool = False,
    compressed: bool = False,
    batchable: bool = False,
    static_mask: bool = False,
    latency_model: Optional[str] = None,
):
    """Decorator registering a baseline class or core builder under ``name``.

    ``role="mechanism"`` (the default, applied to the numpy baseline class or
    a ``builder(config)`` function) creates the spec and carries the full
    metadata; ``role="core"`` (applied to the trainable core class or a
    ``builder(config, seq_len_hint)`` function) attaches the trainable
    constructor to the existing spec — core registrations therefore follow
    their mechanism registration, which the import order of
    :mod:`repro.baselines` before :mod:`repro.nn.attention_layer` guarantees
    (a kernel or low-rank core registers its own mechanism first).
    """

    if role not in ("mechanism", "core"):
        raise ValueError(f"unknown registration role {role!r}")

    def decorator(obj):
        key = name.lower()
        if role == "mechanism":
            if key in _REGISTRY:
                # re-registration happens when a partially-failed population
                # import is retried; replace the spec and its stale aliases
                for alias, target in list(_ALIASES.items()):
                    if target == key:
                        del _ALIASES[alias]
                del _REGISTRY[key]
            if config is None:
                raise ValueError(f"mechanism {name!r} must declare a config class")
            spec = MechanismSpec(
                name=key,
                label=label or name,
                description=description or (inspect.getdoc(obj) or "").split("\n")[0],
                config_cls=config,
                aliases=tuple(a.lower() for a in aliases),
                produces_mask=produces_mask,
                compressed=compressed,
                batchable=batchable,
                static_mask=static_mask,
                latency_model=latency_model,
                mechanism_builder=obj,
            )
            _REGISTRY[key] = spec
            for alias in (key, spec.label.lower(), *spec.aliases):
                existing = _ALIASES.setdefault(alias, key)
                if existing != key:
                    raise ValueError(
                        f"alias {alias!r} of mechanism {name!r} already maps to "
                        f"{existing!r}"
                    )
        else:
            if key not in _REGISTRY:
                raise ValueError(
                    f"cannot register a core for unknown mechanism {name!r}; "
                    f"register the numpy mechanism first"
                )
            # overwrite is deliberate: a retried population import re-runs the
            # decorators, and stacked decorators reuse one class for two names
            _REGISTRY[key].core_builder = obj
        return obj

    return decorator


def _ensure_populated() -> None:
    """Import the modules whose decorators populate the registry (idempotent).

    The flag is only set once both imports succeed: a transient import
    failure propagates the real error and the next lookup retries instead of
    reporting a misleading half-empty registry (the decorators tolerate the
    re-registration a retry causes).
    """
    global _POPULATED
    if _POPULATED:
        return
    import repro.baselines  # noqa: F401  registers the mask mechanisms
    import repro.nn.attention_layer  # noqa: F401  registers the cores and core-defined mechanisms

    _POPULATED = True


# ----------------------------------------------------------------- resolution
def _split_name(name: str) -> Tuple[str, Dict[str, object]]:
    """Normalise ``name`` and extract implied kwargs (``dfss_2:4`` shortcuts)."""
    raw = str(name).strip().lower()
    if raw in _ALIASES:
        return _ALIASES[raw], {}
    for sep in ("_", " ", "-"):
        prefix = f"dfss{sep}"
        if raw.startswith(prefix) and raw[len(prefix):]:
            return _ALIASES.get("dfss", "dfss"), {"pattern": raw[len(prefix):]}
    return raw, {}


def find_spec(name: str) -> MechanismSpec:
    """Resolve a mechanism name or alias to its spec; ``ValueError`` if unknown."""
    _ensure_populated()
    key, _ = _split_name(name)
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown attention mechanism {name!r}; available: {list(available_mechanisms())}"
        )
    return _REGISTRY[key]


def canonical_name(name: str) -> str:
    """Canonical registry name for any accepted alias (``transformer`` -> ``full``)."""
    return find_spec(name).name


def specs() -> Tuple[MechanismSpec, ...]:
    """All registered specs, in registration order."""
    _ensure_populated()
    return tuple(_REGISTRY.values())


def available_mechanisms(
    trainable: Optional[bool] = None,
    produces_mask: Optional[bool] = None,
    compressed: Optional[bool] = None,
    batchable: Optional[bool] = None,
    static_mask: Optional[bool] = None,
) -> Tuple[str, ...]:
    """Names of registered mechanisms, optionally filtered by capability flags."""
    _ensure_populated()
    out = []
    for spec in _REGISTRY.values():
        if trainable is not None and spec.trainable != trainable:
            continue
        if produces_mask is not None and spec.produces_mask != produces_mask:
            continue
        if compressed is not None and spec.compressed != compressed:
            continue
        if batchable is not None and spec.batchable != batchable:
            continue
        if static_mask is not None and spec.static_mask != static_mask:
            continue
        out.append(spec.name)
    return tuple(out)


def describe_mechanism(name: str) -> Dict[str, object]:
    """Introspectable summary of one mechanism: identity, flags, config defaults."""
    spec = find_spec(name)
    return {
        "name": spec.name,
        "label": spec.label,
        "description": spec.description,
        "aliases": list(spec.aliases),
        **spec.capabilities(),
        "latency_model": spec.latency_model,
        "config": spec.config_cls().describe(),
    }


# --------------------------------------------------------------- construction
def make_config(name: str, **kwargs) -> Tuple[MechanismSpec, MechanismConfig]:
    """Resolve ``name`` and validate ``kwargs`` into the spec's typed config.

    Pattern-suffixed names (``dfss_1:2``) imply a ``pattern`` kwarg; an
    explicit ``pattern=`` argument wins over the suffix, mirroring the legacy
    factory.
    """
    _ensure_populated()
    key, implied = _split_name(name)
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown attention mechanism {name!r}; available: {list(available_mechanisms())}"
        )
    spec = _REGISTRY[key]
    merged = {**{k: v for k, v in implied.items() if k not in kwargs}, **kwargs}
    return spec, spec.config_cls.from_kwargs(spec.name, **merged)


def make_mechanism(name: str, **kwargs):
    """Build the forward-only numpy mechanism registered under ``name``."""
    spec, config = make_config(name, **kwargs)
    return spec.build_mechanism(config)


def make_core(name: str, seq_len_hint: int = 512, **kwargs):
    """Build the trainable attention core registered under ``name``."""
    spec, config = make_config(name, **kwargs)
    return spec.build_core(config, seq_len_hint)
