"""Mean-squared-error comparison with Performer's softmax kernel (Appendix A.5).

For query/key vectors ``q, k ~ N(0, I_d)`` the softmax kernel is
``SM(q, k) = exp(qᵀk / sqrt(d))``.  Appendix A.5 derives

* the MSE of the DFSS 1:2 estimator (Eq. 30), which zeroes the kernel when a
  *competing* key ``k'`` wins the pairwise comparison, and
* the upper bound on the MSE of Performer's positive orthogonal random-feature
  estimator (Eq. 31, from Choromanski et al.).

Both closed forms plus Monte-Carlo estimators are provided, so the claim
"DFSS approximates large kernel values better, Performer is fine for small
ones" can be checked numerically.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.seeding import new_rng


def softmax_kernel(q: np.ndarray, k: np.ndarray, d: int = None) -> np.ndarray:
    """``SM(q, k) = exp(qᵀ k / sqrt(d))`` for row-vector batches."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if d is None:
        d = q.shape[-1]
    return np.exp(np.sum(q * k, axis=-1) / np.sqrt(d))


def mse_dfss_theory(sm_value: float, q_norm: float, d: int) -> float:
    """Closed-form MSE of the DFSS 1:2 estimator (Eq. 30).

    ``MSE = SM²(q,k) * (1 - erf(sqrt(d) * ln(SM) / (||q||_2 * sqrt(2)))) / 2``.
    """
    if sm_value <= 0:
        raise ValueError("the softmax kernel value must be positive")
    if q_norm <= 0:
        raise ValueError("||q|| must be positive")
    from scipy.special import erf

    arg = np.sqrt(d) * np.log(sm_value) / (q_norm * np.sqrt(2.0))
    return float(sm_value**2 * (1.0 - erf(arg)) / 2.0)


def mse_performer_bound(
    sm_value: float, q_norm: float, k_norm: float, d: int, num_features: int
) -> float:
    """Upper bound on the MSE of Performer's positive softmax kernel (Eq. 31)."""
    if sm_value <= 0:
        raise ValueError("the softmax kernel value must be positive")
    m = num_features
    term = (
        np.exp((q_norm**2 + k_norm**2) / np.sqrt(d)) * sm_value**2
        - 1.0
        - (1.0 - 1.0 / m) * 2.0 / (d + 2.0)
    )
    return float(sm_value**2 * term / m)


def mse_dfss_monte_carlo(
    q: np.ndarray, k: np.ndarray, trials: int = 20000, seed=0
) -> Tuple[float, float]:
    """Monte-Carlo MSE of the DFSS 1:2 estimator for a fixed ``(q, k)`` pair.

    The competing key ``k'`` is drawn from ``N(0, I_d)``; the estimator keeps
    ``SM(q, k)`` when ``qᵀk > qᵀk'`` and outputs zero otherwise.  Returns the
    estimated MSE and the exact kernel value.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    d = q.shape[-1]
    rng = new_rng(seed)
    k_prime = rng.normal(size=(trials, d))
    sm = float(softmax_kernel(q[None, :], k[None, :])[0])
    qk = float(q @ k)
    qk_prime = k_prime @ q
    estimate = np.where(qk > qk_prime, sm, 0.0)
    return float(np.mean((estimate - sm) ** 2)), sm


def mse_performer_monte_carlo(
    q: np.ndarray,
    k: np.ndarray,
    num_features: int = 64,
    trials: int = 200,
    seed=0,
) -> Tuple[float, float]:
    """Monte-Carlo MSE of Performer's positive random-feature softmax estimator.

    Uses the FAVOR+ positive feature map
    ``phi(x) = exp(wᵀx/d^{1/4} - ||x||²/(2 sqrt(d))) / sqrt(m)`` with Gaussian
    features ``w``; the estimator is ``phi(q)ᵀ phi(k)``.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    d = q.shape[-1]
    rng = new_rng(seed)
    sm = float(softmax_kernel(q[None, :], k[None, :])[0])
    errors = np.empty(trials)
    scale = d**0.25
    for t in range(trials):
        w = rng.normal(size=(num_features, d))
        phi_q = np.exp(w @ q / scale - (q @ q) / (2.0 * np.sqrt(d))) / np.sqrt(num_features)
        phi_k = np.exp(w @ k / scale - (k @ k) / (2.0 * np.sqrt(d))) / np.sqrt(num_features)
        errors[t] = (float(phi_q @ phi_k) - sm) ** 2
    return float(errors.mean()), sm


def mse_comparison_curve(
    d: int = 64,
    num_features: int = 266,
    kernel_values: np.ndarray = None,
    q_norm: float = None,
) -> dict:
    """Theory curves of Eq. 30 / Eq. 31 over a range of kernel values.

    Returns a dict with keys ``sm``, ``dfss``, ``performer_bound`` suitable for
    the Appendix-A.5 comparison: both MSEs vanish as ``SM -> 0`` while for
    large ``SM`` the Performer bound blows up and the DFSS error shrinks.
    """
    if kernel_values is None:
        kernel_values = np.logspace(-2, 1.0, 25)
    if q_norm is None:
        q_norm = float(np.sqrt(d))  # E||q||_2 for q ~ N(0, I_d)
    dfss = np.array([mse_dfss_theory(s, q_norm, d) for s in kernel_values])
    perf = np.array(
        [mse_performer_bound(s, q_norm, q_norm, d, num_features) for s in kernel_values]
    )
    return {"sm": np.asarray(kernel_values), "dfss": dfss, "performer_bound": perf}
