"""Replication engine for the confidence-interval coverage experiments.

A cell is one (kappa1, rho, n) configuration.  The engine simulates its
replications in batches, fits theta-hat and both variance estimators of a
batch along the same replication axis, and records whether each method's
interval for the treatment effect covers the ground-truth projection
theta*_1.  theta* comes from a large-n oracle run (cached per cell family),
since the projection under misspecification has no closed form.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
from dataclasses import dataclass
import numpy as np

from .core import SeedPlan, TrialConfig
from .errors import ConfigError, NumericalError
from .estimators import fit_theta
from .simulator import run_trial, run_trials
from .variance import VarianceReport, variance_report

# Oracle runs live in a disjoint rep-index range so their draws never overlap
# with coverage replications (which use rep_index 0..reps-1).
ORACLE_REP_BASE = 1_000_000

# Users simulated side by side in one step loop (see rep_batches); results do
# not depend on it.
BATCH_USERS = 1_000

_theta_star_cache: dict = {}


def run_replication(
    config: TrialConfig, plan: SeedPlan, alpha: float = 0.05
) -> VarianceReport:
    """Simulate -> estimate -> both variances for one replication."""
    ts = run_trial(config, plan)
    return variance_report(ts, fit_theta(ts), alpha=alpha)


def rep_batches(n_users: int, reps: int, jobs: int = 1) -> list[range]:
    """Replications 0..reps-1 in runs of BATCH_USERS // n_users (at least
    one), shorter where that leaves each of ``jobs`` workers at least one."""
    size = max(1, min(BATCH_USERS // n_users, -(-reps // jobs)))
    return [range(start, min(start + size, reps)) for start in range(0, reps, size)]


def _replicate(args):
    """One batch of replications, simulated and estimated side by side: its
    reports and each replication's error or None.  If an estimation check
    fails, each is estimated alone, as a 1-row batch, for its own error."""
    config, reps, alpha = args
    batch, errors = run_trials(config, [SeedPlan(config.master_seed, r) for r in reps])
    try:
        return [variance_report(batch, fit_theta(batch), alpha)], errors
    except NumericalError:
        reports = []
    for i, r in enumerate([r for r, err in enumerate(errors) if err is None]):
        one = batch[i : i + 1]
        try:
            reports.append(variance_report(one, fit_theta(one), alpha))
        except NumericalError as err:
            errors[r] = err.with_traceback(None)
    return reports or [variance_report(batch[:0], fit_theta(batch[:0]), alpha)], errors


def replicate(
    config: TrialConfig, reps: int, alpha: float = 0.05, jobs: int = 1
) -> tuple[VarianceReport, list]:
    """Replications 0..reps-1 as ``(report, errors)``: one report over the
    completed ones, in order, and each one's ``NumericalError`` (degenerate
    design, singular bread; with ``t`` and ``cond``, without the traceback) or
    None.  The trials are simulated and estimated in batches (``rep_batches``);
    ``jobs`` > 1 spreads the batches over a process pool of at most one worker
    per batch, 0 over every CPU.  The results depend on neither.
    """
    if reps < 1 or jobs < 0:
        raise ConfigError(f"replicate needs reps >= 1 and jobs >= 0, got {reps}, {jobs}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    tasks = [(config, batch, alpha) for batch in rep_batches(config.n_users, reps, jobs)]
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_replicate, tasks, chunksize=1)
    else:
        results = list(map(_replicate, tasks))
    reports, errors = (list(itertools.chain(*part)) for part in zip(*results))
    arrays = {  # the scalar fields are the same in every report
        f.name: np.concatenate([getattr(rep, f.name) for rep in reports])
        for f in dataclasses.fields(VarianceReport)
        if isinstance(getattr(reports[0], f.name), np.ndarray)
    }
    return dataclasses.replace(reports[0], **arrays), errors


def estimate_theta_star(
    config: TrialConfig, oracle_n: int, plan: SeedPlan
) -> np.ndarray:
    """theta-hat of one n = oracle_n trial on ``plan``: a Monte Carlo stand-in
    for the ground-truth projection theta*, by consistency.  Cached on the
    config at n = oracle_n and the plan, so a family's cell sizes share it."""
    oracle_config = config.replace(n_users=oracle_n)
    key = (oracle_config, plan)
    if key not in _theta_star_cache:
        _theta_star_cache[key] = fit_theta(run_trial(oracle_config, plan)).theta_hat
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
    report, _ = replicate(config, reps, alpha, jobs)
    # whether each completed replication's treatment-effect interval covers
    s, a = (
        (ci[:, -1, 0] <= theta_star_1) & (theta_star_1 <= ci[:, -1, 1])
        for ci in (report.ci_sandwich, report.ci_adaptive)
    )
    completed = len(s)
    m = max(completed, 1)
    cover_s, cover_a = int(s.sum()) / m, int(a.sum()) / m
    rho = config.policy.rho if config.policy.kind == "boltzmann" else 0.0
    return CoverageCell(
        kappa1=config.env.kappa1,
        rho=rho,
        n=config.n_users,
        reps_requested=reps,
        reps_completed=completed,
        reps_aborted=reps - completed,
        coverage_sandwich=cover_s,
        coverage_adaptive=cover_a,
        mc_se_sandwich=float(np.sqrt(cover_s * (1 - cover_s) / m)),
        mc_se_adaptive=float(np.sqrt(cover_a * (1 - cover_a) / m)),
        theta_star_1=theta_star_1,
        unhealthy=reps - completed > 0.01 * reps,
        reps_only_sandwich=int((s & ~a).sum()),
        reps_only_adaptive=int((a & ~s).sum()),
    )


def run_grid(
    base_config: TrialConfig,
    grid: dict,
    reps: int,
    oracle_n: int,
    alpha: float = 0.05,
    jobs: int = 1,
    progress=None,
) -> list[CoverageCell]:
    """Run every (kappa1, rho, n) cell of ``grid`` (lists under "kappa1",
    "rho" and "n_users"), n varying fastest, after validating all of them;
    a (kappa1, rho) family shares one cached oracle run across its sizes."""
    axes = (grid["kappa1"], grid["rho"], grid["n_users"])
    configs = [
        base_config.replace(
            n_users=n,
            env=dataclasses.replace(base_config.env, kappa1=kappa1),
            policy=dataclasses.replace(base_config.policy, rho=rho),
        )
        for kappa1, rho, n in itertools.product(*axes)
    ]
    oracle_plan = SeedPlan(base_config.master_seed, ORACLE_REP_BASE)
    cells = []
    for config in configs:
        theta_star = estimate_theta_star(config, oracle_n, oracle_plan)
        cells.append(run_cell(config, reps, theta_star, alpha, jobs))
        if progress is not None:
            progress(cells[-1])
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
        json.dump([dataclasses.asdict(c) for c in ordered], f, indent=2, sort_keys=True)
        f.write("\n")
