"""Deterministic random-number handling.

All stochastic code in the library accepts either an integer seed or an
``numpy.random.Generator``.  This module centralises the conversion so that
experiments are reproducible run-to-run and the global NumPy legacy state is
never touched implicitly.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]

#: Default seed used by experiments when the caller does not provide one.
DEFAULT_SEED = 20230227  # submission date of the DFSS preprint


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed-like value.

    Parameters
    ----------
    seed:
        ``None`` (fresh nondeterministic generator), an ``int`` seed, or an
        existing ``Generator`` which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng(int(seed))


def set_global_seed(seed: int) -> np.random.Generator:
    """Seed the legacy global NumPy state *and* return a fresh generator.

    Only used by example scripts; library code never relies on global state.
    """
    np.random.seed(int(seed))
    return np.random.default_rng(int(seed))


# ------------------------------------------------- layout-independent dropout
# splitmix64 finalizer constants (Steele et al., "Fast Splittable PRNGs").
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def draw_dropout_seed(rng: np.random.Generator) -> int:
    """Draw one per-call dropout seed from ``rng``.

    The compressed attention ops and the dense masked oracle each consume
    exactly one integer from the module generator per forward call, so seeded
    runs stay aligned step-for-step whichever of them executes.
    """
    return int(rng.integers(0, np.iinfo(np.int64).max))


def hashed_uniform(seed: int, positions: np.ndarray) -> np.ndarray:
    """Counter-based uniform(0, 1) values keyed by ``(seed, position)``.

    Unlike a sequential generator stream, the value at a position depends only
    on the seed and the position itself (splitmix64 of ``seed + (pos+1)·γ``),
    so any layout — dense, compressed, tiled — evaluating any subset of
    positions in any order reproduces identical values.
    """
    z = (np.asarray(positions, dtype=np.uint64) + np.uint64(1)) * _SM64_GAMMA
    z = z + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * _SM64_MIX1
    z = (z ^ (z >> np.uint64(27))) * _SM64_MIX2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def attention_dropout_keep(seed: int, p: float, positions: np.ndarray) -> np.ndarray:
    """Inverted-dropout keep mask (float32, scaled by ``1/(1-p)``) per position.

    ``positions`` are linear indices into the *dense* attention-weight tensor;
    the compressed ops pass the dense positions of their stored nonzeros and
    the dense oracle passes ``arange(size)``, which makes the two masks agree
    at every shared coordinate.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must lie in [0, 1)")
    keep = hashed_uniform(seed, positions) >= p
    return keep.astype(np.float32) / np.float32(1.0 - p)


def spawn_rngs(seed: SeedLike, count: int) -> list:
    """Create ``count`` independent generators derived from ``seed``.

    Useful when an experiment runs several trials (the paper averages over
    8 random seeds for the QA / MLM tables).
    """
    root = new_rng(seed)
    seeds = root.integers(0, 2**31 - 1, size=count)
    return [np.random.default_rng(int(s)) for s in seeds]
