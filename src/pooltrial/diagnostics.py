"""Desk-scale empirical validation of the limit-theorem machinery.

Three suites:

* ``bernstein`` -- tail probabilities of the inverse-propensity weighted
  empirical process against the exponential bound
  2 exp(-(pi_min^{T-1}/4) x^2 / (v + x ||f||_inf / sqrt(n))).
* ``clt`` -- Kolmogorov-Smirnov normality of the adaptively-standardised
  treatment-effect estimates.
* ``invariance`` -- per-time Frobenius norms of the V_hat sensitivity blocks
  across policy steepness settings (zero for parameter-free policies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import kstest

from .core import SeedPlan, TrialConfig
from .errors import ConfigError, NumericalError
from .montecarlo import ORACLE_REP_BASE, rep_batches, replicate
from .simulator import run_trial, run_trials

# KS critical value c(alpha) with D_n <= c / sqrt(reps), alpha = 0.01
KS_CRIT_1PCT = 1.63


@dataclass(frozen=True)
class BoundedFunctional:
    """Descriptor for a bounded function of one user trajectory.

    Kinds: ``zero``, ``one``, and ``clipped_reward`` (the final reward
    clipped into [lo, hi]).  ``raw_reward`` is recognised but rejected --
    it has no finite sup norm certificate.
    """

    kind: str = "clipped_reward"
    lo: float = -3.0
    hi: float = 3.0

    def __post_init__(self):
        if self.kind == "raw_reward":
            raise ConfigError("raw_reward is unbounded; clip it first")
        if self.kind not in ("zero", "one", "clipped_reward"):
            raise ConfigError(f"unknown functional kind {self.kind!r}")
        if self.kind == "clipped_reward" and not self.lo < self.hi:
            raise ConfigError("clip bounds must satisfy lo < hi")

    @property
    def sup_norm(self) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "one":
            return 1.0
        return max(abs(self.lo), abs(self.hi))

    def evaluate(self, trajset) -> np.ndarray:
        n = trajset.n_users
        if self.kind == "zero":
            return np.zeros(n)
        if self.kind == "one":
            return np.ones(n)
        return np.clip(trajset.rewards[:, -1], self.lo, self.hi)


def inverse_prob_products(trajset) -> np.ndarray:
    """Per-user rho_{2:T} = 1 / prod_{t>=2} P(realised action at t)."""
    return 1.0 / np.prod(trajset.action_probs[:, 1:], axis=1)


def _target_policy_oracle(config: TrialConfig, oracle_n: int):
    """(beta_star, frozen): the policy fits of an adaptive n = oracle_n run,
    and a second run with its policies frozen at them (the target policies)."""
    oracle_config = config.replace(n_users=oracle_n)
    beta_star = run_trial(
        oracle_config, SeedPlan(config.master_seed, ORACLE_REP_BASE)
    ).beta_hats
    frozen = run_trial(
        oracle_config,
        SeedPlan(config.master_seed, ORACLE_REP_BASE + 1),
        frozen_betas=beta_star,
    )
    return beta_star, frozen


@dataclass
class BernsteinReport:
    x_grid: np.ndarray
    empirical_tail: np.ndarray
    bound: np.ndarray
    mc_se: np.ndarray
    violations: np.ndarray
    reps: int
    centering: float
    variance_proxy: float
    sup_norm: float

    @property
    def n_violations(self) -> int:
        return int(self.violations.sum())


def bernstein_check(
    config: TrialConfig,
    f_spec: BoundedFunctional,
    reps: int,
    x_grid: Optional[Sequence[float]] = None,
    oracle_n: int = 100_000,
) -> BernsteinReport:
    """Compare weighted-process tail frequencies to the exponential bound.

    The centering constant E[rho_hat f] and the variance proxy
    E*[rho* f^2] are estimated from a large-n run under the target policies
    (the adaptive oracle run supplies the frozen policy parameters).
    """
    pi_min = config.policy.pi_min
    T = config.horizon_T
    sup = f_spec.sup_norm

    _, frozen = _target_policy_oracle(config, oracle_n)
    rho_star = inverse_prob_products(frozen)
    f_star = f_spec.evaluate(frozen)
    centering = float(np.mean(rho_star * f_star))
    variance_proxy = float(np.mean(rho_star * f_star**2))

    n = config.n_users
    stats = np.empty(reps)
    for batch in rep_batches(n, reps):
        plans = [SeedPlan(config.master_seed, r) for r in batch]
        for r, ts in zip(batch, run_trials(config, plans)):
            if isinstance(ts, NumericalError):
                raise ts  # the earliest aborting replication's error
            rho_hat = inverse_prob_products(ts)
            f_vals = f_spec.evaluate(ts)
            stats[r] = np.sqrt(n) * (np.mean(rho_hat * f_vals) - centering)

    if x_grid is None:
        base = np.sqrt(max(variance_proxy, 1e-12))
        x_grid = base * np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0])
    x_grid = np.asarray(x_grid, dtype=float)

    emp = np.array([np.mean(np.abs(stats) >= x) for x in x_grid])
    rate = pi_min ** (T - 1) / 4.0
    denom = variance_proxy + x_grid * sup / np.sqrt(n)
    with np.errstate(divide="ignore"):
        # zero denominator only for the identically-zero functional, whose
        # tail is exactly zero; the bound degenerates to 0 there
        bound = np.where(
            denom > 0, 2.0 * np.exp(-rate * x_grid**2 / np.where(denom > 0, denom, 1.0)), 0.0
        )
    mc_se = np.sqrt(emp * (1 - emp) / reps)
    violations = emp > bound + 4.0 * mc_se
    return BernsteinReport(
        x_grid=x_grid,
        empirical_tail=emp,
        bound=bound,
        mc_se=mc_se,
        violations=violations,
        reps=reps,
        centering=centering,
        variance_proxy=variance_proxy,
        sup_norm=sup,
    )


def averaged_theta_star(
    config: TrialConfig, oracle_n: int, n_oracles: int
) -> np.ndarray:
    """Average several independent large-n oracle estimates of theta*.

    A single oracle run at n = oracle_n leaves theta*_1 noise of roughly
    sqrt(n_cell / oracle_n) standard errors, which is enough to shift every
    standardised replication coherently; averaging independent runs shrinks
    that common shift by 1/sqrt(n_oracles).
    """
    from .montecarlo import estimate_theta_star

    estimates = [
        estimate_theta_star(
            config, oracle_n, SeedPlan(config.master_seed, ORACLE_REP_BASE + k)
        )
        for k in range(n_oracles)
    ]
    return np.mean(estimates, axis=0)


@dataclass
class CltReport:
    reps: int
    z_mean: float
    z_variance: float
    ks_stat: float
    ks_threshold: float
    passed: bool
    insufficient_sample: bool
    z_values: np.ndarray


def clt_check(
    config: TrialConfig, reps: int, theta_star, alpha: float = 0.05
) -> CltReport:
    """Standardise theta_hat_1 by its adaptive SE across replications and
    test the empirical distribution against standard normal (KS, 1% level)."""
    theta_star_1 = float(np.asarray(theta_star)[-1])
    coord = config.theta_dim - 1
    zs = np.asarray([
        (rep.theta_hat[coord] - theta_star_1) / rep.se_adaptive[coord]
        for rep in replicate(config, reps, alpha)
        if rep is not None
    ])
    if zs.size < 2:
        return CltReport(
            reps=int(zs.size),
            z_mean=float("nan"),
            z_variance=float("nan"),
            ks_stat=float("nan"),
            ks_threshold=float("nan"),
            passed=False,
            insufficient_sample=True,
            z_values=zs,
        )
    ks = kstest(zs, "norm").statistic
    threshold = KS_CRIT_1PCT / np.sqrt(zs.size)
    return CltReport(
        reps=int(zs.size),
        z_mean=float(zs.mean()),
        z_variance=float(zs.var()),
        ks_stat=float(ks),
        ks_threshold=float(threshold),
        passed=bool(ks <= threshold),
        insufficient_sample=False,
        z_values=zs,
    )


def invariance_scan(
    labeled_configs: Sequence[tuple[str, TrialConfig]], reps: int
) -> dict[str, np.ndarray]:
    """Mean per-time ||V_hat_{T,t}||_F profile for each labeled configuration."""
    out = {}
    for label, config in labeled_configs:
        total = np.zeros(config.horizon_T - 1)
        count = 0
        for rep in replicate(config, reps):
            if rep is not None:
                total += rep.policy_invariance_norms
                count += 1
        out[label] = total / max(count, 1)
    return out
