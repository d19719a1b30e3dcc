"""Attention Lottery Ticket quality metric ``Q_p`` (Section 4, Proposition 4.2).

``Q_p`` measures how much of the L_p mass of each attention-weight row a
sparsity mask preserves:

    ``Q_p = (1/n) * sum_j  sum_i (m ⊙ A)^p_{j,i} / sum_i A^p_{j,i}``

The module provides both the closed-form values of Proposition 4.2 (under the
i.i.d. Gaussian score assumption) and empirical estimators that evaluate the
metric on real attention matrices, for the four mask families compared in the
paper: Top-K, fixed (uniform), dynamic 1:2 and dynamic 2:4.
"""

from __future__ import annotations

import numpy as np

from repro.core.patterns import resolve_pattern
from repro.core.pruning import nm_prune_mask
from repro.utils.seeding import new_rng


# --------------------------------------------------------------------------- theory
def qp_topk_theory(density: float, p: float, sigma: float = 1.0) -> float:
    """Closed-form ``Q_p`` of Top-K sparsity at density ``s`` (Prop. 4.2).

    ``Q_p = (1 + erf(p*sigma/sqrt(2) - erfinv(1 - 2s))) / 2``.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if density == 1.0:
        return 1.0
    from scipy.special import erf, erfinv

    return float((1.0 + erf(p * sigma / np.sqrt(2.0) - erfinv(1.0 - 2.0 * density))) / 2.0)


def qp_fixed_theory(density: float) -> float:
    """Closed-form ``Q_p`` of a fixed (data-independent) pattern: ``Q_p = s``."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    return float(density)


def qp_1_2_theory(p: float, sigma: float = 1.0) -> float:
    """Closed-form ``Q_p`` of dynamic 1:2 sparsity: ``(1 + erf(p*sigma/2)) / 2``."""
    from scipy.special import erf

    return float((1.0 + erf(p * sigma / 2.0)) / 2.0)


def qp_2_4_lower_bound(p: float, sigma: float = 1.0) -> float:
    """Lower bound for dynamic 2:4 sparsity (Prop. 4.2): ``Q_p(2:4) >= Q_p(1:2)``."""
    return qp_1_2_theory(p, sigma)


def qp_nm_monte_carlo(
    pattern,
    p: float,
    sigma: float = 1.0,
    mu: float = 0.0,
    rows: int = 2048,
    cols: int = 1024,
    seed=0,
) -> float:
    """Monte-Carlo estimate of ``Q_p`` for any N:M pattern under i.i.d. N(mu, sigma) scores.

    Useful for the exact 2:4 value (the paper only derives a lower bound) and
    for ratios beyond 1:2 / 2:4.
    """
    pattern = resolve_pattern(pattern)
    rng = new_rng(seed)
    scores = rng.normal(mu, sigma, size=(rows, cols)).astype(np.float32)
    return qp_empirical_from_scores(scores, nm_prune_mask(scores, pattern), p)


def topk_crossover_pstd(density: float) -> float:
    """The ``p*sigma`` value at which Top-K at density ``s`` matches ``Q_p`` of 1:2.

    Solves ``erf(x/sqrt(2) - erfinv(1-2s)) = erf(x/2)`` for ``x = p*sigma``;
    the paper quotes ``p*sigma ≈ 7`` for the Top-K density (s ≈ 0.02) that has
    the same efficiency as 1:2.
    """
    if not 0.0 < density < 0.5:
        raise ValueError("crossover is only defined for density in (0, 0.5)")
    from scipy.special import erfinv

    c = float(erfinv(1.0 - 2.0 * density))
    # erf is monotonic: equality requires x/sqrt(2) - c = x/2  =>  x = c / (1/sqrt(2) - 1/2)
    return c / (1.0 / np.sqrt(2.0) - 0.5)


# ------------------------------------------------------------------------ empirical
def qp_empirical(attention: np.ndarray, mask: np.ndarray, p: float) -> float:
    """Empirical ``Q_p`` of a mask applied to an attention-*weight* matrix.

    ``attention`` holds softmax weights (rows sum to one); ``mask`` is a
    boolean array of the same shape.  Both may carry leading batch dimensions,
    which are averaged over (the definition already averages over rows).
    """
    attention = np.asarray(attention, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if attention.shape != mask.shape:
        raise ValueError(
            f"attention shape {attention.shape} != mask shape {mask.shape}"
        )
    powered = attention**p
    denom = powered.sum(axis=-1)
    numer = (powered * mask).sum(axis=-1)
    safe = denom > 0
    ratios = np.where(safe, numer / np.where(safe, denom, 1.0), 1.0)
    return float(ratios.mean())


def qp_empirical_from_scores(scores: np.ndarray, mask: np.ndarray, p: float) -> float:
    """Empirical ``Q_p`` computed from raw scores (softmax applied internally)."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    weights /= weights.sum(axis=-1, keepdims=True)
    return qp_empirical(weights, mask, p)


# ---------------------------------------------------------------------- mask builders
def topk_mask(scores: np.ndarray, density: float) -> np.ndarray:
    """Per-row Top-K mask keeping ``ceil(density * n)`` largest scores."""
    scores = np.asarray(scores, dtype=np.float32)
    n = scores.shape[-1]
    k = max(1, int(np.ceil(density * n)))
    # indices of the k largest per row
    part = np.argpartition(-scores, kth=k - 1, axis=-1)[..., :k]
    mask = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(mask, part, True, axis=-1)
    return mask


def fixed_mask(shape, density: float, kind: str = "truncate") -> np.ndarray:
    """Data-independent mask at a given density.

    ``kind="truncate"`` keeps the first ``density * n`` columns (the scheme
    used for the fixed-sparsity speedup measurement in Appendix A.4);
    ``kind="strided"`` keeps every ``round(1/density)``-th column.
    """
    shape = tuple(shape)
    n = shape[-1]
    mask = np.zeros(shape, dtype=bool)
    if kind == "truncate":
        k = max(1, int(round(density * n)))
        mask[..., :k] = True
    elif kind == "strided":
        stride = max(1, int(round(1.0 / density)))
        mask[..., ::stride] = True
    else:
        raise ValueError(f"unknown fixed mask kind {kind!r}")
    return mask


def nm_mask(scores: np.ndarray, pattern, criterion: str = "value") -> np.ndarray:
    """Dynamic N:M mask of a score matrix (thin wrapper over the pruning module)."""
    return nm_prune_mask(scores, pattern, criterion)


def frobenius_retention(attention: np.ndarray, mask: np.ndarray) -> float:
    """The baseline metric ``||A - m⊙A||_F^2 / ||A||_F^2`` compared against in Fig. 13(b).

    Lower is better for the baseline metric (it measures *lost* mass); the
    paper argues ``Q_p`` orders sparse patterns more faithfully.
    """
    attention = np.asarray(attention, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    lost = attention * (~mask)
    denom = float((attention**2).sum())
    if denom == 0:
        return 0.0
    return float((lost**2).sum() / denom)
