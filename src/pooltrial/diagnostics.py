"""Desk-scale empirical validation of the limit-theorem machinery.

Two suites:

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
from .montecarlo import averaged_theta_star, replicate
from .policies import PolicySpec
from .simulator import run_trials
from .variance import invariance_norms

SUITES = ("clt", "invariance")

# KS critical value c(alpha) with D_n <= c / sqrt(reps), alpha = 0.01
KS_CRIT_1PCT = 1.63


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
        horizon_T=10,
        policy=PolicySpec(kind="boltzmann", rho=1.0, pi_min=0.1),
        env=EnvConfig(kappa1=1.0),
        master_seed=seed,
    )
    if name == "clt":
        config = base.replace(n_users=500, horizon_T=50)
        entry = clt_check(config, reps, averaged_theta_star(config, oracle_n, 4))
        return entry, entry["passed"]
    if name == "invariance":
        # the sensitivity norms grow with the softmax steepness and vanish
        # for a policy with no parameters
        variants = {
            "rho=5": {"rho": 5.0},
            "rho=0.5": {"rho": 0.5},
            "constant_uniform": {"kind": "constant_uniform"},
        }
        labeled = [
            (label, base.replace(policy=dataclasses.replace(base.policy, **change)))
            for label, change in variants.items()
        ]
        profiles = invariance_scan(labeled, reps=min(reps, 200))
        dominated = bool(np.all(profiles["rho=5"] > profiles["rho=0.5"]))
        flat_zero = bool(np.all(profiles["constant_uniform"] == 0.0))
        entry = {label: profile.tolist() for label, profile in profiles.items()}
        entry.update(rho5_dominates=dominated, constant_uniform_zero=flat_zero)
        return entry, dominated and flat_zero
    raise ConfigError(f"unknown suite {name!r}; expected one of {SUITES}")
