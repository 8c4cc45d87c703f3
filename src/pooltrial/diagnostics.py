"""Desk-scale empirical validation of the limit-theorem machinery.

One suite:

* ``clt`` -- Kolmogorov-Smirnov normality of the adaptively-standardised
  treatment-effect estimates.

``run_suite`` runs one of ``SUITES`` on its fixed design and gives its verdict.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import kstest

from .core import EnvConfig, TrialConfig
from .errors import ConfigError
from .montecarlo import averaged_theta_star, replicate
from .policies import PolicySpec

SUITES = ("clt",)

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


def run_suite(name: str, seed: int, reps: int, oracle_n: int) -> tuple[dict, bool]:
    """Run one of ``SUITES`` on its fixed design: (its ``check.json`` entry,
    whether it passed).  ``oracle_n`` sizes every large-n oracle run."""
    config = TrialConfig(
        n_users=500,
        horizon_T=50,
        policy=PolicySpec(kind="boltzmann", rho=1.0, pi_min=0.1),
        env=EnvConfig(kappa1=1.0),
        master_seed=seed,
    )
    if name == "clt":
        entry = clt_check(config, reps, averaged_theta_star(config, oracle_n, 4))
        return entry, entry["passed"]
    raise ConfigError(f"unknown suite {name!r}; expected one of {SUITES}")
