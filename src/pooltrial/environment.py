"""Reward generation with delayed dosage effects and serially correlated errors.

Rewards follow R_t = kappa0 + kappa1 * (D_t / c_gamma) + kappa2 * A_t + eps_t,
where D_t is the gamma-discounted count of past treatments (c_gamma is the
geometric normaliser 1 / (1 - gamma), so D_t / c_gamma stays in [0, 1]) and
the per-user error rows have standard normal marginals with
Corr(eps_t, eps_s) = corr_base ** (|t - s| / 2).
"""

from __future__ import annotations

import numpy as np

from .core import EnvConfig


def generate_errors(
    stream: np.random.Generator, n: int, T: int, corr_base: float
) -> np.ndarray:
    """Draw an (n, T) error array, rows independent across users."""
    return correlate_errors(stream.standard_normal((n, T)), corr_base)


def correlate_errors(innov: np.ndarray, corr_base: float) -> np.ndarray:
    """Turn i.i.d. N(0,1) innovations (..., T) into error rows, in place.

    Uses the AR(1) recursion eps_1 = nu_1,
    eps_t = a * eps_{t-1} + sqrt(1 - a^2) * nu_t with a = sqrt(corr_base),
    which reproduces Corr(eps_t, eps_s) = a^|t-s| = corr_base^{|t-s|/2}
    exactly in O(T) per user (no T x T Cholesky factor).  corr_base = 0 is
    the i.i.d. limit (a = 0).
    """
    a = np.sqrt(corr_base)
    if a == 0.0:
        return innov
    scale = np.sqrt(1.0 - a * a)
    for t in range(1, innov.shape[-1]):
        innov[..., t] = a * innov[..., t - 1] + scale * innov[..., t]
    return innov


def dosage_normalizer(gamma: float) -> float:
    """c_gamma = 1 / (1 - gamma)."""
    return 1.0 / (1.0 - gamma)


def reward(env: EnvConfig, dosage_norm, action, eps):
    """Exact affine reward formula; no randomness inside (eps supplied).
    The kappas are Python floats, so int8 actions promote to float64."""
    return env.kappa0 + env.kappa1 * dosage_norm + env.kappa2 * action + eps
