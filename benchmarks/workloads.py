"""Workloads, output checks and the span tracer of the pooltrial benchmark.

Importing this module imports numpy and the package; ``run.py`` times the
package import on its own before it imports this module.  Every call into the
package goes through its public functions, in one process, with ``jobs=1``;
only the oracle-cache guard reads ``montecarlo._theta_star_cache``.

Each workload has an untraced operation (what the end-to-end metrics time) and
a traced round.  A traced round times the untraced calls once more (the base
of the tracing overhead: ``run_replication`` on the cells, the operation
itself elsewhere) and then calls the package's public functions one by one, in
the order ``montecarlo.run_replication`` calls them, with a span around each
call.  ``weight_products``, ``replay_action_probs``, ``generate_errors``
and, where the operation does not write CSV, ``save``/``load`` are called again
in their own spans under a separate ``probe`` root, outside the summed
sequence, because the sequence already calls them internally.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from calibration import ArrayKernel, DenseKernel, InterpreterKernel
from pooltrial import montecarlo
from pooltrial.config import load_config
from pooltrial.core import SeedPlan, TrajectorySet, derive_stream
from pooltrial.environment import generate_errors
from pooltrial.errors import (
    DegenerateDesignError,
    NumericalError,
    SingularBreadError,
    SingularPolicyBreadError,
)
from pooltrial.estimators import fit_theta
from pooltrial.montecarlo import (
    ORACLE_REP_BASE,
    estimate_theta_star,
    run_cell,
    run_replication,
)
from pooltrial.policies import PolicySpec
from pooltrial.simulator import replay_action_probs, run_trial
from pooltrial.variance import (
    adaptive_sandwich,
    check_equivalence,
    confidence_interval,
    sandwich,
    variance_report,
    weight_products,
)

REFERENCES = Path(__file__).resolve().parent / "references.json"
PRESET = "paper_table1"  # pi_min 0.1, kappa0 = kappa2 = 0, gamma 0.95, rho = kappa1 = 5
ALPHA = 0.05
REL_TOL = 1e-9
ORACLE_N = 100_000
# n = 100k oracles of one family scatter across plans by about 0.001 per
# coordinate (sd over the recorded plans).  theta* is one such draw, so an
# oracle's distance from it has sd sqrt(2) times that; a coordinate further
# away than this many of those sds is a wrong answer.
ORACLE_SDS = 5
# Distinct cells (cell workloads) or seed plans (pipeline) one run cycles through.
VARIANTS = 4
# The oracle never calls the variance, CSV or replication layers; its traced
# run measures them on one replication of the same family at this size.
COMPANION_N = 500
ABORT_CLASSES = (DegenerateDesignError, SingularBreadError, SingularPolicyBreadError)
TRAJ_FIELDS = ("states", "actions", "rewards", "action_probs", "beta_hats")
STAGES = (
    "simulator.run_trial",
    "simulator.replay",
    "environment.generate_errors",
    "estimators.fit_theta",
    "estimators.phi_sweep",
    "variance.weights",
    "variance.sandwich",
    "variance.adaptive",
    "variance.equivalence",
    "core.save",
    "core.load",
)


class Tracer:
    """Spans kept in memory: name, start, end, parent index, operation id."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def root_name(self, index: int) -> str:
        while self.spans[index][3] is not None:
            index = self.spans[index][3]
        return self.spans[index][0]

    def self_times_ms(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [(end - start) * 1e3 for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= (end - start) * 1e3
        return own

    def stage_ms(self, roots) -> dict[str, list[float]]:
        """Per-operation self time of every span name under the given roots."""
        per_op: dict[str, dict[int, float]] = {}
        for index, own in enumerate(self.self_times_ms()):
            name, _, _, _, op = self.spans[index]
            if self.root_name(index) in roots:
                by_op = per_op.setdefault(name, {})
                by_op[op] = by_op.get(op, 0.0) + own
        return {name: list(by_op.values()) for name, by_op in per_op.items()}

    def to_json(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


def _close(got, expected) -> bool:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if got.shape != expected.shape or not np.isfinite(got).all():
        return False
    return bool(np.abs(got - expected).max() <= REL_TOL * np.abs(expected).max())


def _trajset_bytes(ts: TrajectorySet) -> int:
    return sum(getattr(ts, f).nbytes for f in TRAJ_FIELDS)


def _median(values):
    return statistics.median(values) if values else float("nan")


class Workload:
    """One workload: its inputs, its timed operation, checks and traced round."""

    reps_per_op = 1

    def __init__(self, seed: int, workdir: Path, n_users: int, horizon_T: int,
                 policy: PolicySpec | None = None):
        self.seed = seed
        self.workdir = workdir
        started = time.perf_counter()
        base, _, _ = load_config(PRESET)
        self.config_load_ms = (time.perf_counter() - started) * 1e3
        self.config = base.replace(
            n_users=n_users,
            horizon_T=horizon_T,
            master_seed=seed,
            policy=policy or base.policy,
        )
        refs = json.loads(REFERENCES.read_text())
        self.theta_star = np.array(refs["theta_star"][str(horizon_T)])
        self.recorded = refs["runs"].get(type(self).name, {})
        # None on a seed without recorded references: the reference-free checks
        # still run.
        self.refs = self.recorded.get(str(seed))
        self.kernel = InterpreterKernel()
        self.failures: list[str] = []
        self.aborts: Counter = Counter()
        # traced-run state
        self.untraced_ms: list[float] = []
        self.replication_ms: list[float] = []
        self.cell_self_ms: list[float] = []
        self.reps_aborted = 0
        self.counts: dict[str, int] = {}

    # -- checks ------------------------------------------------------------

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
            print(f"check failed: {message}", file=sys.stderr)
        return ok

    def guarded(self, fn, *args):
        """Call fn; a NumericalError is an abort, anything else a wrong answer."""
        try:
            return fn(*args)
        except NumericalError as err:
            self.aborts[type(err).__name__] += 1
        except Exception:  # noqa: BLE001 - a crash is a failed operation, not a crashed benchmark
            traceback.print_exc()
            self.failures.append(f"{fn.__name__}({args}) raised")
        return None

    # -- measurement loops -------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Run untraced operations for ``seconds``; only the package calls are timed.

        Each operation is bracketed by the calibration kernel, and its time is
        scaled to the kernel's reference speed (see calibration.py).
        """
        scaled, raw, kernel_ms = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            before = self.kernel.time_ms()
            result = self.guarded(self.op, i)
            after = self.kernel.time_ms()
            attempted += self.reps_per_op
            if result is None:
                failed += self.reps_per_op
            else:
                elapsed, bad = result
                failed += bad
                kernel = (before + after) / 2
                raw.append(elapsed * 1e3 / self.reps_per_op)
                scaled.append(raw[-1] * self.kernel.reference_ms / kernel)
                kernel_ms.append(kernel)
            i += 1
        # reps_per_s counts completed and aborted replications alike, over the
        # operations that returned: reps / sum(R * ms per rep) = ops / sum(ms per rep)
        return {
            "attempted": attempted,
            "failed": failed,
            "reps_per_s": 1e3 * len(scaled) / sum(scaled) if scaled else 0.0,
            "trial_ms_p50": _median(scaled),
            "raw_reps_per_s": 1e3 * len(raw) / sum(raw) if raw else 0.0,
            "raw_trial_ms_p50": _median(raw),
            "kernel_ms_p50": _median(kernel_ms),
        }

    def trace(self, seconds: float, tracer: Tracer) -> dict:
        attempted = failed = 0
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            tracer.op = i
            result = self.guarded(self.traced_round, i, tracer)
            attempted += self.reps_per_op
            failed += self.reps_per_op if result is None else result
            i += 1
        return {"attempted": attempted, "failed": failed}

    # -- shared traced pieces ----------------------------------------------

    def timed_replication(self, config, plan):
        """Untraced ``run_replication`` in ms; None when it aborts."""
        started = time.perf_counter()
        try:
            run_replication(config, plan, alpha=ALPHA)
        except NumericalError as err:
            self.aborts[type(err).__name__] += 1
            return None
        ms = (time.perf_counter() - started) * 1e3
        self.replication_ms.append(ms)
        return ms

    def traced_estimate(self, tr: Tracer, ts: TrajectorySet):
        """fit_theta and variance_report(which="both"), one span per call."""
        with tr.span("estimators.fit_theta"):
            est = fit_theta(ts)
        with tr.span("variance.sandwich"):
            sand_cov = sandwich(ts, est)
        with tr.span("estimators.phi_sweep"):
            est.blocks.phi_mats
            est.blocks.phi_dots
        with tr.span("variance.adaptive"):
            adaptive = adaptive_sandwich(ts, est)
        with tr.span("variance.equivalence"):
            check_equivalence(ts, est, adaptive=adaptive)
        with tr.span("variance.ci"):
            ses = []
            for cov in (sand_cov, adaptive.cov):
                se = np.sqrt(np.diag(cov) / ts.n_users)
                for j in range(len(se)):
                    confidence_interval(est.theta_hat[j], se[j], ALPHA)
                ses.append(se)
        self.counts["variance.stacked_dim"] = adaptive.system.dim
        return est, ses[0], ses[1]

    def save_load(self, tr: Tracer, ts: TrajectorySet) -> TrajectorySet:
        out = self.workdir / "trial"
        with tr.span("core.save"):
            ts.save(out)
        with tr.span("core.load"):
            loaded = TrajectorySet.load(out, ts.config)
        self.counts["core.csv_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        return loaded

    def traced_trial(self, tr: Tracer, config, plan, csv_in_op=False, prefix=""):
        """One replication as a span sequence under root ``op``, plus the probe."""
        with tr.span(prefix + "op"):
            with tr.span("simulator.run_trial"):
                ts = run_trial(config, plan)
            loaded = self.save_load(tr, ts) if csv_in_op else ts
            est, se_s, se_a = self.traced_estimate(tr, loaded)
        with tr.span(prefix + "probe"):
            if not csv_in_op:
                self.save_load(tr, ts)
            with tr.span("simulator.replay"):
                replay_action_probs(ts)
            with tr.span("variance.weights"):
                weight_products(ts)
            with tr.span("environment.generate_errors"):
                generate_errors(derive_stream(plan, "errors"), config.n_users,
                                config.horizon_T + 1, config.env.error_corr_base)
        if not prefix:
            self.counts["core.trajset_bytes"] = _trajset_bytes(ts)
        return ts, loaded, est, se_s, se_a

    def montecarlo_round(self, i, config, plans, trace_one):
        """run_cell against the run_replication calls it makes, on the same plans.

        Each replication is also traced by ``trace_one(plan)``.  The order of
        the run_cell call and the replications alternates between rounds, so
        neither side always runs with the other's warm caches.
        """
        def timed_cell():
            started = time.perf_counter()
            cell = run_cell(config, len(plans), self.theta_star, ALPHA)
            self.reps_aborted += cell.reps_aborted
            return cell, (time.perf_counter() - started) * 1e3 / len(plans)

        if i % 2 == 0:
            cell, per_rep = timed_cell()
        replication_ms = []
        for plan in plans:
            ms = self.timed_replication(config, plan)
            if ms is not None:
                replication_ms.append(ms)
                trace_one(plan)
        if i % 2 == 1:
            cell, per_rep = timed_cell()
        if replication_ms:
            self.cell_self_ms.append(per_rep - statistics.fmean(replication_ms))
        return cell

    def layer_metrics(self, tr: Tracer, import_s: float) -> dict:
        primary = tr.stage_ms(("op", "probe"))
        companion = tr.stage_ms(("companion.op", "companion.probe"))
        metrics = {}
        for stage in STAGES:
            samples = primary.get(stage) or companion.get(stage) or []
            metrics[stage + "_ms"] = _median(samples)
        ops = [(end - start) * 1e3 for name, start, end, _, _ in tr.spans if name == "op"]
        metrics["trace.overhead_pct"] = 100.0 * (
            _median(ops) / _median(self.untraced_ms) - 1.0
        )
        metrics.update(self.counts)
        metrics["montecarlo.run_replication_ms"] = _median(self.replication_ms)
        metrics["montecarlo.self_ms_per_rep"] = _median(self.cell_self_ms)
        metrics["montecarlo.reps_aborted"] = self.reps_aborted
        for cls in ABORT_CLASSES:
            metrics[f"montecarlo.aborts.{cls.__name__}"] = self.aborts[cls.__name__]
        metrics["cli.import_s"] = import_s
        metrics["config.load_ms"] = self.config_load_ms
        return metrics


class CellWorkload(Workload):
    """Repeated ``run_cell`` calls; theta* is fixed, so no oracle runs."""

    def __init__(self, seed, workdir, horizon_T, reps_per_op):
        super().__init__(seed, workdir, n_users=50, horizon_T=horizon_T)
        self.reps_per_op = reps_per_op
        self.cells = [
            self.config.replace(master_seed=seed * VARIANTS + k) for k in range(VARIANTS)
        ]
        self.seen: dict[int, list] = {}

    def warm_up(self):
        run_cell(self.cells[0], 1, self.theta_star, ALPHA)

    def outcome(self, cell) -> list[int]:
        m = max(cell.reps_completed, 1)
        return [
            cell.reps_completed,
            cell.reps_aborted,
            round(cell.coverage_sandwich * m),
            round(cell.coverage_adaptive * m),
        ]

    def check_cell(self, k: int, cell) -> bool:
        got = self.outcome(cell)
        m = max(got[0], 1)
        consistent = (
            got[0] + got[1] == self.reps_per_op
            and all(0 <= c <= got[0] for c in got[2:])
            and cell.coverage_sandwich == got[2] / m
            and cell.coverage_adaptive == got[3] / m
        )
        expected = self.refs[k] if self.refs else self.seen.setdefault(k, got)
        return self.check(consistent and got == expected,
                          f"cell {k}: got {got}, expected {expected}")

    def op(self, i):
        k = i % VARIANTS
        started = time.perf_counter()
        cell = run_cell(self.cells[k], self.reps_per_op, self.theta_star, ALPHA)
        elapsed = time.perf_counter() - started
        ok = self.check_cell(k, cell)
        return elapsed, cell.reps_aborted if ok else self.reps_per_op

    def traced_round(self, i, tr):
        k = i % VARIANTS
        config = self.cells[k]

        def trace_one(plan):
            self.untraced_ms.append(self.replication_ms[-1])
            tr.op = (i, plan.rep_index)
            self.traced_trial(tr, config, plan)

        plans = [SeedPlan(config.master_seed, rep) for rep in range(self.reps_per_op)]
        cell = self.montecarlo_round(i, config, plans, trace_one)
        ok = self.check_cell(k, cell)
        return cell.reps_aborted if ok else self.reps_per_op


class PipelineWorkload(Workload):
    """run_trial -> save -> load -> fit_theta -> variance_report("both")."""

    name = "pipeline_mirror_n500"

    def __init__(self, seed, workdir):
        mirror = PolicySpec(kind="mirror_descent", eta=0.5, pi_min=0.1)
        super().__init__(seed, workdir, n_users=500, horizon_T=50, policy=mirror)

    def warm_up(self):
        self.trial_op(VARIANTS)  # a plan outside the timed set

    def check_trial(self, k, ts, loaded, theta, se_s, se_a) -> bool:
        same = all(
            getattr(ts, f).dtype == getattr(loaded, f).dtype
            and getattr(ts, f).shape == getattr(loaded, f).shape
            and getattr(ts, f).tobytes() == getattr(loaded, f).tobytes()
            for f in TRAJ_FIELDS
        )
        ok = self.check(same, f"plan {k}: load(save(ts)) is not bit-identical to ts")
        design = np.concatenate(
            [loaded.states, loaded.actions[..., None].astype(float)], axis=2
        )
        lstsq = np.linalg.lstsq(
            design.reshape(-1, design.shape[2]), loaded.rewards.reshape(-1), rcond=None
        )[0]
        ok &= self.check(_close(theta, lstsq),
                         f"plan {k}: theta_hat {theta} != least squares {lstsq}")
        if self.refs and k < len(self.refs):
            ref = self.refs[k]
            for label, got in (("theta_hat", theta), ("se_sandwich", se_s),
                               ("se_adaptive", se_a)):
                ok &= self.check(_close(got, ref[label]),
                                 f"plan {k}: {label} {got} != reference {ref[label]}")
        return ok

    def trial(self, k):
        """The README's simulate-then-estimate flow for seed plan k."""
        out = self.workdir / "trial"
        started = time.perf_counter()
        ts = run_trial(self.config, SeedPlan(self.seed, k))
        ts.save(out)
        loaded = TrajectorySet.load(out, self.config)
        est = fit_theta(loaded)
        report = variance_report(loaded, est, alpha=ALPHA, which="both")
        return time.perf_counter() - started, ts, loaded, est, report

    def trial_op(self, k):
        elapsed, ts, loaded, est, report = self.trial(k)
        ok = self.check_trial(k, ts, loaded, est.theta_hat,
                              report.se_sandwich, report.se_adaptive)
        return elapsed, 0 if ok else 1

    def op(self, i):
        return self.trial_op(i % VARIANTS)

    def traced_round(self, i, tr):
        k = i % VARIANTS
        elapsed, bad = self.op(i)
        self.untraced_ms.append(elapsed * 1e3)
        plan = SeedPlan(self.seed, k)
        ts, loaded, est, se_s, se_a = self.traced_trial(tr, self.config, plan, csv_in_op=True)
        ok = self.check_trial(k, ts, loaded, est.theta_hat, se_s, se_a)
        # the montecarlo layer: a one-replication cell against its replication
        rep0 = SeedPlan(self.config.master_seed, 0)
        self.montecarlo_round(i, self.config, [rep0], lambda plan: None)
        return bad + (0 if ok else 1)


class OracleWorkload(Workload):
    """Cold ``estimate_theta_star`` calls at n = 100,000, one fresh plan each."""

    name = "oracle_n100k"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, n_users=ORACLE_N, horizon_T=50)
        self.kernel = ArrayKernel()
        self.companion = self.config.replace(n_users=COMPANION_N)

    def warm_up(self):
        estimate_theta_star(self.config, 2_000, SeedPlan(self.seed, ORACLE_REP_BASE))

    def oracle_tolerance(self) -> np.ndarray:
        """Per-coordinate distance from theta* allowed to a correct oracle."""
        recorded = np.array([theta for plans in self.recorded.values() for theta in plans])
        if len(recorded) < 2:
            raise SystemExit("references.json records too few oracle runs; run --record")
        return ORACLE_SDS * np.sqrt(2) * recorded.std(axis=0, ddof=1)

    def check_oracle(self, k, theta) -> bool:
        tol = self.oracle_tolerance()
        ok = self.check(
            bool(np.isfinite(theta).all())
            and bool((np.abs(theta - self.theta_star) <= tol).all()),
            f"oracle {k}: theta_hat {theta} is not within {tol} of theta* {self.theta_star}",
        )
        if self.refs and k < len(self.refs):
            ok &= self.check(_close(theta, self.refs[k]),
                             f"oracle {k}: theta_hat {theta} != reference {self.refs[k]}")
        return ok

    def op(self, i):
        plan = SeedPlan(self.seed, ORACLE_REP_BASE + i)
        cache = montecarlo._theta_star_cache
        before = len(cache)
        started = time.perf_counter()
        theta = estimate_theta_star(self.config, ORACLE_N, plan)
        elapsed = time.perf_counter() - started
        # a cached plan would time a dict lookup
        ok = self.check(len(cache) == before + 1, f"oracle {i}: plan was already cached")
        ok &= self.check_oracle(i, theta)
        return elapsed, 0 if ok else 1

    def traced_round(self, i, tr):
        elapsed, bad = self.op(2 * i)
        self.untraced_ms.append(elapsed * 1e3)
        k = 2 * i + 1
        plan = SeedPlan(self.seed, ORACLE_REP_BASE + k)
        with tr.span("op"):
            with tr.span("simulator.run_trial"):
                ts = run_trial(self.config, plan)
            with tr.span("estimators.fit_theta"):
                theta = fit_theta(ts).theta_hat
        with tr.span("probe"):
            with tr.span("environment.generate_errors"):
                generate_errors(derive_stream(plan, "errors"), ORACLE_N,
                                self.config.horizon_T + 1, self.config.env.error_corr_base)
        self.counts["core.trajset_bytes"] = _trajset_bytes(ts)
        del ts
        ok = self.check_oracle(k, theta)
        companion = self.companion.replace(master_seed=self.seed + i)
        self.montecarlo_round(
            i, companion, [SeedPlan(companion.master_seed, 0)],
            lambda plan: self.traced_trial(tr, companion, plan, prefix="companion."),
        )
        return bad + (0 if ok else 1)


class CellT50(CellWorkload):
    name = "cell_n50_T50"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, horizon_T=50, reps_per_op=10)


class CellT200(CellWorkload):
    name = "cell_n50_T200"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, horizon_T=200, reps_per_op=2)
        self.kernel = DenseKernel()


WORKLOADS = {cls.name: cls for cls in (CellT50, CellT200, PipelineWorkload, OracleWorkload)}


def record_references(seeds, oracle_seeds, oracle_ops: int, workdir: Path) -> None:
    """Rewrite references.json from the current package.

    theta* is the n = 100k oracle ``run_grid`` would compute for the preset's
    family (master seed of the preset, plan ``ORACLE_REP_BASE``).  Only re-record
    when a change is meant to alter outputs, and say so with the change.
    """
    base, _, _ = load_config(PRESET)
    theta_star = {
        str(T): estimate_theta_star(
            base.replace(horizon_T=T), ORACLE_N, SeedPlan(base.master_seed, ORACLE_REP_BASE)
        ).tolist()
        for T in (50, 200)
    }
    REFERENCES.write_text(json.dumps({"theta_star": theta_star, "runs": {}}))
    runs: dict[str, dict] = {name: {} for name in WORKLOADS}
    for seed in seeds:
        for cls in (CellT50, CellT200):
            w = cls(seed, workdir)
            runs[cls.name][str(seed)] = [
                w.outcome(run_cell(c, w.reps_per_op, w.theta_star, ALPHA)) for c in w.cells
            ]
        w = PipelineWorkload(seed, workdir)
        runs[w.name][str(seed)] = []
        for k in range(VARIANTS):
            _, _, _, est, report = w.trial(k)
            runs[w.name][str(seed)].append({
                "theta_hat": est.theta_hat.tolist(),
                "se_sandwich": report.se_sandwich.tolist(),
                "se_adaptive": report.se_adaptive.tolist(),
            })
    for seed in oracle_seeds:
        w = OracleWorkload(seed, workdir)
        runs[w.name][str(seed)] = [
            estimate_theta_star(w.config, ORACLE_N, SeedPlan(seed, ORACLE_REP_BASE + k)).tolist()
            for k in range(oracle_ops)
        ]
    REFERENCES.write_text(
        json.dumps({"theta_star": theta_star, "runs": runs}, indent=1) + "\n"
    )
