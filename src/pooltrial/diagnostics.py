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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import kstest

from .core import EnvConfig, SeedPlan, TrialConfig
from .errors import ConfigError, NumericalError
from .montecarlo import ORACLE_REP_BASE, estimate_theta_star, rep_batches, replicate
from .policies import PolicySpec
from .simulator import run_trial, run_trials

SUITES = ("bernstein", "clt", "invariance")

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
    oracle_n: int = 100_000,
) -> BernsteinReport:
    """Compare weighted-process tail frequencies to the exponential bound.

    The centering constant E[rho_hat f] and the variance proxy
    E*[rho* f^2] are estimated from a large-n run under the target policies
    (the adaptive oracle run supplies the frozen policy parameters).  The
    tail is read at sqrt(variance proxy) times 0.25, 0.5, 1, 2, 4, 8, 16, 64.
    """
    pi_min = config.policy.pi_min
    T = config.horizon_T
    sup = f_spec.sup_norm

    frozen = _target_policy_oracle(config, oracle_n)
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

    base = np.sqrt(max(variance_proxy, 1e-12))
    x_grid = base * np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0])

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
    estimates = [
        estimate_theta_star(
            config, oracle_n, SeedPlan(config.master_seed, ORACLE_REP_BASE + k)
        )
        for k in range(n_oracles)
    ]
    return np.mean(estimates, axis=0)


@dataclass
class CltReport:
    """The statistics are None when fewer than two replications completed."""

    reps: int
    z_mean: Optional[float]
    z_variance: Optional[float]
    ks_stat: Optional[float]
    ks_threshold: Optional[float]
    passed: bool
    insufficient_sample: bool
    z_values: np.ndarray


def clt_check(config: TrialConfig, reps: int, theta_star) -> CltReport:
    """Standardise theta_hat_1 by its adaptive SE across replications and
    test the empirical distribution against standard normal (KS, 1% level)."""
    theta_star_1 = float(np.asarray(theta_star)[-1])
    coord = config.theta_dim - 1
    zs = np.asarray([
        (rep.theta_hat[coord] - theta_star_1) / rep.se_adaptive[coord]
        for rep in replicate(config, reps)
        if rep is not None
    ])
    if zs.size < 2:
        return CltReport(
            reps=int(zs.size),
            z_mean=None,
            z_variance=None,
            ks_stat=None,
            ks_threshold=None,
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
        report = bernstein_check(
            base, BoundedFunctional("clipped_reward", -3.0, 3.0), reps, oracle_n=oracle_n
        )
        entry = {
            "x_grid": report.x_grid.tolist(),
            "empirical_tail": report.empirical_tail.tolist(),
            "bound": report.bound.tolist(),
            "violations": int(report.n_violations),
        }
        return entry, report.n_violations == 0
    if name == "clt":
        config = base.replace(n_users=500, horizon_T=50)
        report = clt_check(config, reps, averaged_theta_star(config, oracle_n, 4))
        keys = ("reps", "z_mean", "z_variance", "ks_stat", "ks_threshold", "passed")
        return {key: getattr(report, key) for key in keys}, report.passed
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
