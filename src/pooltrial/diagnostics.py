"""Desk-scale empirical validation of the limit-theorem machinery.

Three suites:

* ``bernstein`` -- tail probabilities of the inverse-propensity weighted
  empirical process against the exponential bound
  2 exp(-(pi_min^{T-1}/4) x^2 / (v + x ||f||_inf / sqrt(n))).
* ``clt`` -- Kolmogorov-Smirnov normality of the adaptively-standardised
  treatment-effect estimates.
* ``invariance`` -- per-time Frobenius norms of the V_hat sensitivity blocks
  across policy steepness settings (zero for parameter-free policies).

``run_suite`` runs one of them on its fixed design and gives its verdict.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np
from scipy.stats import kstest

from .core import EnvConfig, SeedPlan, TrialConfig
from .errors import ConfigError
from .estimators import fit_theta
from .montecarlo import ORACLE_REP_BASE, averaged_theta_star, rep_batches, replicate
from .policies import PolicySpec
from .simulator import run_trial, run_trials
from .variance import invariance_norms

SUITES = ("bernstein", "clt", "invariance")

# KS critical value c(alpha) with D_n <= c / sqrt(reps), alpha = 0.01
KS_CRIT_1PCT = 1.63

# The Bernstein functional is the final reward clipped into [-REWARD_CLIP,
# REWARD_CLIP]; REWARD_CLIP is its sup norm in the bound
REWARD_CLIP = 3.0


def inverse_prob_products(trajset) -> np.ndarray:
    """Per-user rho_{2:T} = 1 / prod_{t>=2} P(realised action at t), (..., n)."""
    return 1.0 / np.prod(trajset.action_probs[..., 1:], axis=-1)


def _target_policy_oracle(config: TrialConfig, oracle_n: int):
    """An n = oracle_n run under the target policies: its policies are frozen
    at the fits of an adaptive n = oracle_n run (its ``beta_hats``)."""
    oracle_config = config.replace(n_users=oracle_n)
    beta_star = run_trial(
        oracle_config, SeedPlan(config.master_seed, ORACLE_REP_BASE)
    ).beta_hats
    return run_trial(
        oracle_config,
        SeedPlan(config.master_seed, ORACLE_REP_BASE + 1),
        frozen_betas=beta_star,
    )


def bernstein_check(config: TrialConfig, reps: int, oracle_n: int = 100_000) -> dict:
    """Compare weighted-process tail frequencies of the clipped final reward
    to the exponential bound; returns the suite's ``check.json`` entry.

    The centering constant E[rho_hat f] and the variance proxy
    E*[rho* f^2] are estimated from a large-n run under the target policies
    (the adaptive oracle run supplies the frozen policy parameters).  The
    tail is read at sqrt(variance proxy) times 0.25, 0.5, 1, 2, 4, 8, 16, 64,
    and a grid point violates the bound when its tail frequency exceeds it
    by more than 4 Monte Carlo standard errors.
    """
    frozen = _target_policy_oracle(config, oracle_n)
    rho_star = inverse_prob_products(frozen)
    f_star = np.clip(frozen.rewards[:, -1], -REWARD_CLIP, REWARD_CLIP)
    centering = float(np.mean(rho_star * f_star))
    variance_proxy = float(np.mean(rho_star * f_star**2))

    n = config.n_users
    stats = np.empty(reps)
    for reps_batch in rep_batches(n, reps):
        plans = [SeedPlan(config.master_seed, r) for r in reps_batch]
        batch, errors = run_trials(config, plans)
        if any(errors):  # the earliest aborting replication's error
            raise next(filter(None, errors))
        rho_hat = inverse_prob_products(batch)
        f_vals = np.clip(batch.rewards[..., -1], -REWARD_CLIP, REWARD_CLIP)
        stats[reps_batch] = np.sqrt(n) * (np.mean(rho_hat * f_vals, axis=-1) - centering)

    base = np.sqrt(max(variance_proxy, 1e-12))
    x_grid = base * np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0])

    emp = np.array([np.mean(np.abs(stats) >= x) for x in x_grid])
    rate = config.policy.pi_min ** (config.horizon_T - 1) / 4.0
    denom = variance_proxy + x_grid * REWARD_CLIP / np.sqrt(n)
    bound = 2.0 * np.exp(-rate * x_grid**2 / denom)
    mc_se = np.sqrt(emp * (1 - emp) / reps)
    violations = emp > bound + 4.0 * mc_se
    return {
        "x_grid": x_grid.tolist(),
        "empirical_tail": emp.tolist(),
        "bound": bound.tolist(),
        "violations": int(violations.sum()),
    }


def clt_check(config: TrialConfig, reps: int, theta_star) -> dict:
    """Standardise theta_hat_1 by its adaptive SE across replications and
    test the empirical distribution against standard normal (KS, 1% level).

    Returns the suite's ``check.json`` entry; its statistics are None when
    fewer than two replications completed, and it then does not pass.
    """
    theta_star_1 = float(np.asarray(theta_star)[-1])
    coord = config.theta_dim - 1
    report, _ = replicate(config, reps)
    zs = (report.theta_hat[:, coord] - theta_star_1) / report.se_adaptive[:, coord]
    if zs.size < 2:
        stats = ("z_mean", "z_variance", "ks_stat", "ks_threshold")
        return {"reps": int(zs.size), **dict.fromkeys(stats), "passed": False}
    ks = kstest(zs, "norm").statistic
    threshold = KS_CRIT_1PCT / np.sqrt(zs.size)
    return {
        "reps": int(zs.size),
        "z_mean": float(zs.mean()),
        "z_variance": float(zs.var()),
        "ks_stat": float(ks),
        "ks_threshold": float(threshold),
        "passed": bool(ks <= threshold),
    }


def invariance_scan(
    labeled_configs: Sequence[tuple[str, TrialConfig]], reps: int
) -> dict[str, np.ndarray]:
    """Mean per-time ||V_hat_{T,t}||_F profile for each labeled configuration
    over its replications 0..reps-1 that simulated, fitted in one batch with no
    variance estimated; a degenerate inference design raises."""
    out = {}
    for label, config in labeled_configs:
        plans = [SeedPlan(config.master_seed, r) for r in range(reps)]
        batch, _ = run_trials(config, plans)
        norms = invariance_norms(batch, fit_theta(batch))
        # summed row by row, in replication order
        out[label] = norms.sum(axis=0) / max(len(norms), 1)
    return out


def run_suite(name: str, seed: int, reps: int, oracle_n: int) -> tuple[dict, bool]:
    """Run one of ``SUITES`` on its fixed design: (its ``check.json`` entry,
    whether it passed).  ``oracle_n`` sizes every large-n oracle run."""
    base = TrialConfig(
        n_users=100,
        horizon_T=5,
        policy=PolicySpec(kind="boltzmann", rho=1.0, pi_min=0.1),
        env=EnvConfig(kappa1=1.0),
        master_seed=seed,
    )
    if name == "bernstein":
        entry = bernstein_check(base, reps, oracle_n=oracle_n)
        return entry, entry["violations"] == 0
    if name == "clt":
        config = base.replace(n_users=500, horizon_T=50)
        entry = clt_check(config, reps, averaged_theta_star(config, oracle_n, 4))
        return entry, entry["passed"]
    if name == "invariance":
        # the sensitivity norms grow with the softmax steepness and vanish
        # for a policy with no parameters
        design = base.replace(horizon_T=10)
        variants = {
            "rho=5": {"rho": 5.0},
            "rho=0.5": {"rho": 0.5},
            "constant_uniform": {"kind": "constant_uniform"},
        }
        labeled = [
            (label, design.replace(policy=dataclasses.replace(design.policy, **change)))
            for label, change in variants.items()
        ]
        profiles = invariance_scan(labeled, reps=min(reps, 200))
        dominated = bool(np.all(profiles["rho=5"] > profiles["rho=0.5"]))
        flat_zero = bool(np.all(profiles["constant_uniform"] == 0.0))
        entry = {label: profile.tolist() for label, profile in profiles.items()}
        entry.update(rho5_dominates=dominated, constant_uniform_zero=flat_zero)
        return entry, dominated and flat_zero
    raise ConfigError(f"unknown suite {name!r}; expected one of {SUITES}")
