"""Module system and basic layers (Linear, Embedding, LayerNorm, Dropout)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.autograd import Tensor, parameter
from repro.utils.seeding import new_rng


class Module:
    """Base class with parameter registration, train/eval mode and state dicts."""

    def __init__(self):
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------ registration
    def __setattr__(self, key, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", {})[key] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[key] = value
        object.__setattr__(self, key, value)

    def register_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ----------------------------------------------------------------- access
    def parameters(self) -> List[Tensor]:
        return [t for _, t in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------ modes
    def train(self) -> "Module":
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            m.training = False
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------- state dict
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ValueError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}"
                )
            p.data = np.asarray(state[name], dtype=np.float32).copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``x W + b`` with Xavier-uniform initialisation."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, seed=None):
        super().__init__()
        rng = new_rng(seed)
        bound = np.sqrt(6.0 / (in_features + out_features))
        self.weight = parameter(
            rng.uniform(-bound, bound, size=(in_features, out_features)), name="weight"
        )
        self.bias = parameter(np.zeros(out_features), name="bias") if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Embedding(Module):
    """Token-id to vector lookup table."""

    def __init__(self, num_embeddings: int, embedding_dim: int, seed=None):
        super().__init__()
        rng = new_rng(seed)
        self.weight = parameter(
            rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim)), name="weight"
        )
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        if ids.max(initial=0) >= self.num_embeddings or ids.min(initial=0) < 0:
            raise ValueError("token id out of range for the embedding table")
        return F.embedding(self.weight, ids)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.weight = parameter(np.ones(dim), name="weight")
        self.bias = parameter(np.zeros(dim), name="bias")
        self.eps = eps
        self.dim = dim

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, self.eps)


class Dropout(Module):
    """Inverted dropout driven by a module-owned RNG (deterministic under a seed)."""

    def __init__(self, p: float = 0.1, seed=0):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must lie in [0, 1)")
        self.p = p
        self.rng = new_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)


class Sequential(Module):
    """Apply sub-modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._ordered: List[Module] = []
        for i, m in enumerate(modules):
            self.register_module(f"layer{i}", m)
            self._ordered.append(m)

    def forward(self, x):
        for m in self._ordered:
            x = m(x)
        return x
