"""Command-line entry point: simulate / estimate / mc / check.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure
(degenerate design, singular bread), 3 diagnostic-suite failure.  Every
subcommand writes a manifest.json into its output directory with the resolved
configuration and master seed, sufficient to re-run the job byte-identically.
"""

from __future__ import annotations

import argparse
import logging
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__
from .config import config_to_raw, load_config, manifest_config
from .core import SeedPlan, TrajectorySet, check_out_dir, write_json
from .errors import DiagnosticFailure, PoolTrialError
from .estimators import fit_theta
from .montecarlo import ORACLE_REP_BASE, emit_table, run_grid
from .simulator import run_trial
from .variance import alpha_ok, variance_report

log = logging.getLogger("pooltrial")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise PoolTrialError(message)


def _checked(cast, ok, rule):
    """argparse type: ``cast(text)``, a usage error unless ``ok`` holds."""
    def parse(text):
        if not ok(value := cast(text)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = cast.__name__  # names the type in argparse's messages
    return parse


_REPS = _checked(int, lambda v: 1 <= v <= ORACLE_REP_BASE, f"in [1, {ORACLE_REP_BASE}]")
_ORACLE_N = _checked(int, lambda v: v >= 2, ">= 2")
_JOBS = _checked(int, lambda v: v >= 0, ">= 0 (0 = every CPU)")
_ALPHA = _checked(float, alpha_ok, "in (2**-53, 1)")


def _write_manifest(out_dir: str, command: str, config=None, **fields) -> None:
    """Write out_dir/manifest.json: the versions, the command and its flags
    (``fields``), and the resolved config with its master seed if it read one."""
    if config is not None:
        fields.update(config=config_to_raw(config), master_seed=config.master_seed)
    # outputs are bit-identical under the same python, numpy and scipy
    versions = {f"{m.__name__}_version": m.__version__ for m in (np, scipy)}
    payload = {"package_version": __version__, **versions, "command": command,
               "python_version": platform.python_version(), **fields}
    log.info("manifest written to %s", write_json(out_dir, "manifest.json", payload))


def _resolved_config(args):
    """(config, grid) of ``--config`` with ``--seed`` applied."""
    config, grid, _ = load_config(args.config)
    if args.seed is not None:
        config = config.replace(master_seed=args.seed)
    return config, grid


def cmd_simulate(args) -> int:
    config, _ = _resolved_config(args)
    plan = SeedPlan(config.master_seed, args.rep)
    trajset = run_trial(config, plan)
    trajset.save(args.out)
    _write_manifest(args.out, "simulate", config, rep_index=args.rep)
    log.info("trajectories written to %s", args.out)
    return 0


def cmd_estimate(args) -> int:
    if args.config is not None:
        config, _, _ = load_config(args.config)
    else:
        config = manifest_config(args.input)
    trajset = TrajectorySet.load(args.input, config)
    est = fit_theta(trajset)
    report = variance_report(trajset, est, alpha=args.alpha, which=args.variance)
    out = {
        "psi_residual_norm": est.psi_residual_norm,
        "beta_hats": np.asarray(trajset.beta_hats).tolist(),
        **report.to_dict(),
    }
    write_json(args.out, "estimate.json", out)
    _write_manifest(args.out, "estimate", config, alpha=args.alpha,
                    variance=args.variance, input=os.path.abspath(args.input))
    log.info("estimate written to %s", args.out)
    return 0


def cmd_mc(args) -> int:
    config, grid = _resolved_config(args)
    cells = run_grid(config, grid, reps=args.reps, oracle_n=args.oracle_n,
                     alpha=args.alpha, jobs=args.jobs)
    emit_table(cells, args.out)
    _write_manifest(args.out, "mc", config, grid=grid, reps=args.reps,
                    oracle_n=args.oracle_n, alpha=args.alpha)
    log.info("coverage table written to %s", args.out)
    if any(c.unhealthy for c in cells):
        log.warning("one or more cells exceeded the 1%% abort budget")
    return 0


def cmd_check(args) -> int:
    # imported here: diagnostics loads scipy.stats, which the other
    # subcommands do not need
    from .diagnostics import SUITES, run_suite

    failures = []
    results = {}
    for name in SUITES if args.suite == "all" else [args.suite]:
        results[name], passed = run_suite(name, args.seed, args.reps, args.oracle_n)
        log.info("%s: %s %s", name, "pass" if passed else "FAIL", results[name])
        if not passed:
            failures.append(name)

    if args.out:
        write_json(args.out, "check.json", results)
        _write_manifest(args.out, "check", suite=args.suite, reps=args.reps,
                        oracle_n=args.oracle_n, master_seed=args.seed)
    if failures:
        raise DiagnosticFailure(f"diagnostic suite(s) failed: {failures}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pooltrial", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one trial and write trajectories")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--rep", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="fit theta and variance estimators")
    p_est.add_argument("--in", dest="input", required=True)
    p_est.add_argument("--config", default=None)
    p_est.add_argument("--out", required=True)
    p_est.add_argument("--alpha", type=_ALPHA, default=0.05)
    p_est.add_argument(
        "--variance",
        choices=["sandwich", "both"],
        default="both",
    )
    p_est.set_defaults(func=cmd_estimate)

    p_mc = sub.add_parser("mc", help="coverage table over a (kappa1, rho, n) grid")
    p_mc.add_argument("--config", required=True)
    p_mc.add_argument("--reps", type=_REPS, default=500)
    p_mc.add_argument("--oracle-n", type=_ORACLE_N, default=100_000)
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.add_argument("--out", required=True)
    p_mc.add_argument("--jobs", type=_JOBS, default=1)
    p_mc.add_argument("--alpha", type=_ALPHA, default=0.05)
    p_mc.set_defaults(func=cmd_mc)

    p_chk = sub.add_parser("check", help="run diagnostic suites")
    p_chk.add_argument("--suite", choices=["clt", "all"], default="all")
    p_chk.add_argument("--reps", type=_REPS, default=2000)
    p_chk.add_argument("--oracle-n", type=_ORACLE_N, default=100_000)
    p_chk.add_argument("--seed", type=int, default=20240601)
    p_chk.add_argument("--out", default=None)
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out is not None:  # before any work, so a bad path loses no run
            check_out_dir(args.out)
        return args.func(args)
    except PoolTrialError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
