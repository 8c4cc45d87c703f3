"""Replication engine for the confidence-interval coverage experiments.

A cell is one (kappa1, rho, n) configuration.  Per replication the engine
simulates a trial, fits theta-hat, computes both variance estimators, and
records whether each method's interval for the treatment-effect coordinate
covers the ground-truth projection theta*_1.  theta* itself comes from a
large-n oracle run (cached per cell family), since the projection under
misspecification has no closed form.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
import numpy as np

from .core import SeedPlan, TrialConfig
from .errors import NumericalError
from .estimators import fit_theta
from .simulator import run_trial
from .variance import VarianceReport, variance_report

# Oracle runs live in a disjoint rep-index range so their draws never overlap
# with coverage replications (which use rep_index 0..reps-1).
ORACLE_REP_BASE = 1_000_000

_theta_star_cache: dict = {}


def run_replication(
    config: TrialConfig, plan: SeedPlan, alpha: float = 0.05
) -> VarianceReport:
    """Simulate -> estimate -> both variances for one replication."""
    trajset = run_trial(config, plan)
    est = fit_theta(trajset)
    return variance_report(trajset, est, alpha=alpha, which="both")


def _replicate(args):
    config, rep, alpha = args
    try:
        return run_replication(config, SeedPlan(config.master_seed, rep), alpha)
    except NumericalError:
        return None


def replicate(
    config: TrialConfig, reps: int, alpha: float = 0.05, jobs: int = 1
) -> list:
    """Reports of replications 0..reps-1 in order, None for each that aborted.

    An aborted replication is one that raised ``NumericalError`` (degenerate
    design, singular bread).  ``jobs`` > 1 spreads the replications over a
    process pool, 0 over every CPU; the results do not depend on it.
    """
    tasks = [(config, rep, alpha) for rep in range(reps)]
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            return pool.map(_replicate, tasks, chunksize=8)
    return [_replicate(t) for t in tasks]


def _theta_star_key(config: TrialConfig, oracle_n: int, plan: SeedPlan):
    return (
        config.env,
        config.policy,
        config.horizon_T,
        config.state_dim,
        oracle_n,
        plan.master_seed,
        plan.rep_index,
    )


def estimate_theta_star(
    config: TrialConfig, oracle_n: int, plan: SeedPlan
) -> np.ndarray:
    """Ground-truth projection via one large-n trial; cached per cell family.

    Consistency of theta-hat makes the n = oracle_n fit a Monte Carlo stand-in
    for theta*; two oracle runs with different plans agreeing within combined
    standard errors is the guard against oracle noise.
    """
    key = _theta_star_key(config, oracle_n, plan)
    if key not in _theta_star_cache:
        oracle_config = config.replace(n_users=oracle_n)
        trajset = run_trial(oracle_config, plan)
        _theta_star_cache[key] = fit_theta(trajset).theta_hat
    return _theta_star_cache[key]


@dataclass(frozen=True)
class CoverageCell:
    """Aggregated coverage results for one (kappa1, rho, n) cell."""

    kappa1: float
    rho: float
    n: int
    reps_requested: int
    reps_completed: int
    reps_aborted: int
    coverage_sandwich: float
    coverage_adaptive: float
    mc_se_sandwich: float
    mc_se_adaptive: float
    theta_star_1: float
    unhealthy: bool = False
    # discordant pairs: replications covered by exactly one of the two
    # intervals, the counts an exact paired (McNemar) comparison needs
    reps_only_sandwich: int = 0
    reps_only_adaptive: int = 0

    def to_dict(self) -> dict:
        return {
            "kappa1": self.kappa1,
            "rho": self.rho,
            "n": self.n,
            "reps_requested": self.reps_requested,
            "reps_completed": self.reps_completed,
            "reps_aborted": self.reps_aborted,
            "coverage_sandwich": self.coverage_sandwich,
            "coverage_adaptive": self.coverage_adaptive,
            "mc_se_sandwich": self.mc_se_sandwich,
            "mc_se_adaptive": self.mc_se_adaptive,
            "theta_star_1": self.theta_star_1,
            "unhealthy": self.unhealthy,
            "reps_only_sandwich": self.reps_only_sandwich,
            "reps_only_adaptive": self.reps_only_adaptive,
        }


def run_cell(
    config: TrialConfig,
    reps: int,
    theta_star: np.ndarray,
    alpha: float = 0.05,
    jobs: int = 1,
) -> CoverageCell:
    """Coverage of both methods' CIs for theta*_1 over ``reps`` replications.

    Aborted replications (degenerate designs, singular bread) are excluded
    from the coverage denominator and counted; an abort fraction above 1%
    marks the cell unhealthy.  Both intervals share the centre theta-hat,
    so the pairs are also counted: replications covered by the sandwich
    interval only, and by the adaptive interval only.
    """
    theta_star_1 = float(np.asarray(theta_star)[-1])

    def covers(ci):
        lo, hi = ci[-1]  # the treatment-effect coordinate
        return lo <= theta_star_1 <= hi

    completed = [
        (covers(rep.ci_sandwich), covers(rep.ci_adaptive))
        for rep in replicate(config, reps, alpha, jobs)
        if rep is not None
    ]
    aborted = reps - len(completed)
    m = max(len(completed), 1)
    cover_s = sum(o[0] for o in completed) / m
    cover_a = sum(o[1] for o in completed) / m
    only_s = sum(s and not a for s, a in completed)
    only_a = sum(a and not s for s, a in completed)
    rho = config.policy.rho if config.policy.kind == "boltzmann" else 0.0
    return CoverageCell(
        kappa1=config.env.kappa1,
        rho=rho,
        n=config.n_users,
        reps_requested=reps,
        reps_completed=len(completed),
        reps_aborted=aborted,
        coverage_sandwich=cover_s,
        coverage_adaptive=cover_a,
        mc_se_sandwich=float(np.sqrt(cover_s * (1 - cover_s) / m)),
        mc_se_adaptive=float(np.sqrt(cover_a * (1 - cover_a) / m)),
        theta_star_1=theta_star_1,
        unhealthy=aborted > 0.01 * reps,
        reps_only_sandwich=int(only_s),
        reps_only_adaptive=int(only_a),
    )


def run_grid(
    base_config: TrialConfig,
    kappa1s,
    rhos,
    ns,
    reps: int,
    oracle_n: int,
    alpha: float = 0.05,
    jobs: int = 1,
    progress=None,
) -> list[CoverageCell]:
    """Run every (kappa1, rho, n) cell of the grid; oracle runs are shared
    across sample sizes within a (kappa1, rho) family."""
    import dataclasses

    cells = []
    for kappa1 in kappa1s:
        for rho in rhos:
            family = base_config.replace(
                env=dataclasses.replace(base_config.env, kappa1=float(kappa1)),
                policy=dataclasses.replace(base_config.policy, rho=float(rho)),
            )
            oracle_plan = SeedPlan(base_config.master_seed, ORACLE_REP_BASE)
            theta_star = estimate_theta_star(family, oracle_n, oracle_plan)
            for n in ns:
                cell_config = family.replace(n_users=int(n))
                cell = run_cell(cell_config, reps, theta_star, alpha, jobs)
                cells.append(cell)
                if progress is not None:
                    progress(cell)
    return cells


def emit_table(cells, out_dir) -> None:
    """Write CSV and JSON coverage tables with deterministic row order."""
    import json

    os.makedirs(out_dir, exist_ok=True)
    ordered = sorted(cells, key=lambda c: (c.kappa1, c.rho, c.n))
    with open(os.path.join(out_dir, "table.csv"), "w") as f:
        f.write(
            "kappa1,rho,n,sandwich_cov,sandwich_se,"
            "adaptive_cov,adaptive_se,reps,aborted\n"
        )
        for c in ordered:
            f.write(
                f"{repr(c.kappa1)},{repr(c.rho)},{c.n},"
                f"{repr(c.coverage_sandwich)},{repr(c.mc_se_sandwich)},"
                f"{repr(c.coverage_adaptive)},{repr(c.mc_se_adaptive)},"
                f"{c.reps_completed},{c.reps_aborted}\n"
            )
    with open(os.path.join(out_dir, "table.json"), "w") as f:
        json.dump([c.to_dict() for c in ordered], f, indent=2, sort_keys=True)
        f.write("\n")
