import dataclasses
import pickle

import numpy as np
import pytest

from pooltrial import (
    EnvConfig,
    PolicySpec,
    SeedPlan,
    TrialConfig,
    estimate_theta_star,
    fit_theta,
    run_cell,
    run_trial,
    variance_report,
)
from pooltrial import montecarlo
from pooltrial.errors import (
    ConfigError,
    DegenerateDesignError,
    NumericalError,
    SingularBreadError,
    SingularPolicyBreadError,
)
from pooltrial.montecarlo import (
    ORACLE_REP_BASE,
    CoverageCell,
    emit_table,
    rep_batches,
    replicate,
    run_grid,
    run_replication,
)
from pooltrial.core import TrajectorySet
from pooltrial.variance import VarianceReport, sandwich


def per_replication(report, errors) -> list:
    """``replicate``'s ``(report, errors)`` as one entry per replication: its
    error, or its row of the report as a one-replication ``VarianceReport``."""
    arrays = [
        f.name for f in dataclasses.fields(report)
        if isinstance(getattr(report, f.name), np.ndarray)
    ]
    rows = iter(range(errors.count(None)))

    def row(r):
        return dataclasses.replace(
            report, **{name: getattr(report, name)[r] for name in arrays}
        )

    return [row(next(rows)) if err is None else err for err in errors]


def _paper_cell_config(kappa1, rho, n, seed=202):
    return TrialConfig(
        n_users=n,
        horizon_T=50,
        master_seed=seed,
        policy=PolicySpec(kind="boltzmann", rho=rho),
        env=EnvConfig(kappa1=kappa1),
    )


class TestThetaStar:
    def test_no_effect_gives_zero(self):
        config = TrialConfig(
            n_users=500,
            horizon_T=50,
            master_seed=71,
            policy=PolicySpec(kind="boltzmann", rho=1.0),
            env=EnvConfig(kappa0=0.0, kappa1=0.0, kappa2=0.0),
        )
        oracle_n = 100_000
        plan = SeedPlan(71, ORACLE_REP_BASE)
        theta_star = estimate_theta_star(config, oracle_n, plan)
        ts = run_trial(config.replace(n_users=oracle_n), plan)
        est = fit_theta(ts)
        rep = variance_report(ts, est, which="both")
        assert abs(theta_star[-1]) < 4 * rep.se_adaptive[-1]

    def test_correct_specification_recovers_effect(self):
        # with i.i.d. errors and kappa1 = 0 the analysis model is exactly
        # correct, so the projection equals the immediate effect kappa2
        c = 0.7
        config = TrialConfig(
            n_users=500,
            horizon_T=50,
            master_seed=72,
            policy=PolicySpec(kind="boltzmann", rho=1.0),
            env=EnvConfig(kappa0=0.0, kappa1=0.0, kappa2=c, error_corr_base=0.0),
        )
        oracle_n = 100_000
        plan = SeedPlan(72, ORACLE_REP_BASE)
        theta_star = estimate_theta_star(config, oracle_n, plan)
        ts = run_trial(config.replace(n_users=oracle_n), plan)
        est = fit_theta(ts)
        se = np.sqrt(sandwich(ts, est)[-1, -1] / oracle_n)
        assert abs(theta_star[-1] - c) < 4 * se

    def test_two_seed_self_consistency(self):
        config = _paper_cell_config(5.0, 5.0, 500, seed=73)
        oracle_n = 50_000
        estimates, ses = [], []
        for k in range(2):
            plan = SeedPlan(73, ORACLE_REP_BASE + k)
            theta_star = estimate_theta_star(config, oracle_n, plan)
            ts = run_trial(config.replace(n_users=oracle_n), plan)
            est = fit_theta(ts)
            estimates.append(theta_star[-1])
            ses.append(np.sqrt(sandwich(ts, est)[-1, -1] / oracle_n))
        combined = np.hypot(*ses)
        assert abs(estimates[0] - estimates[1]) < 4 * combined

    def test_cache_hit(self):
        config = _paper_cell_config(1.0, 1.0, 100, seed=74)
        plan = SeedPlan(74, ORACLE_REP_BASE)
        a = estimate_theta_star(config, 2_000, plan)
        b = estimate_theta_star(config, 2_000, plan)
        assert a is b


class TestRunCell:
    def test_small_cell_counts_and_se(self):
        config = TrialConfig(
            n_users=100,
            horizon_T=8,
            master_seed=81,
            policy=PolicySpec(kind="boltzmann", rho=1.0),
            env=EnvConfig(kappa1=1.0),
        )
        theta_star = estimate_theta_star(config, 20_000, SeedPlan(81, ORACLE_REP_BASE))
        cell = run_cell(config, reps=50, theta_star=theta_star)
        assert cell.reps_requested == 50
        assert cell.reps_completed + cell.reps_aborted == 50
        for cov, se in [
            (cell.coverage_sandwich, cell.mc_se_sandwich),
            (cell.coverage_adaptive, cell.mc_se_adaptive),
        ]:
            assert 0.0 <= cov <= 1.0
            expected = np.sqrt(cov * (1 - cov) / cell.reps_completed)
            assert se == pytest.approx(expected, abs=1e-12)
        assert cell.coverage_adaptive >= 0.8  # sane nominal-95 neighbourhood

    def test_all_reps_abort_flagged(self):
        # n=2 with the 2-dim state cannot identify the 4-parameter policy fit
        config = TrialConfig(
            n_users=2,
            horizon_T=4,
            master_seed=82,
            policy=PolicySpec(kind="boltzmann", rho=1.0),
        )
        cell = run_cell(config, reps=5, theta_star=np.zeros(3))
        assert cell.reps_completed == 0
        assert cell.reps_aborted == 5
        assert cell.unhealthy

    def test_split_half_consistency(self):
        config = TrialConfig(
            n_users=80,
            horizon_T=6,
            master_seed=85,
            policy=PolicySpec(kind="boltzmann", rho=1.0),
            env=EnvConfig(kappa1=1.0),
        )
        theta_star = estimate_theta_star(config, 20_000, SeedPlan(85, ORACLE_REP_BASE))
        outcomes = []
        for r in range(80):
            res = run_replication(config, SeedPlan(85, r))
            outcomes.append(
                res.ci_adaptive[-1][0] <= theta_star[-1] <= res.ci_adaptive[-1][1]
            )
        halves = np.array(outcomes).reshape(2, 40)
        p1, p2 = halves.mean(axis=1)
        se = np.sqrt(p1 * (1 - p1) / 40 + p2 * (1 - p2) / 40)
        assert abs(p1 - p2) <= max(4 * se, 1e-12)

    def test_worker_pool_matches_serial(self):
        config = TrialConfig(
            n_users=50,
            horizon_T=5,
            master_seed=84,
            policy=PolicySpec(kind="boltzmann", rho=1.0),
            env=EnvConfig(kappa1=1.0),
        )
        theta_star = np.zeros(3)
        serial = run_cell(config, reps=12, theta_star=theta_star, jobs=1)
        pooled = run_cell(config, reps=12, theta_star=theta_star, jobs=2)
        assert serial.coverage_sandwich == pooled.coverage_sandwich
        assert serial.coverage_adaptive == pooled.coverage_adaptive
        assert serial.reps_aborted == pooled.reps_aborted
        assert serial.reps_only_sandwich == pooled.reps_only_sandwich
        assert serial.reps_only_adaptive == pooled.reps_only_adaptive

    def test_reports_do_not_depend_on_batching(self, monkeypatch):
        # n = 5: replications 2 and 4 abort in the simulation, in the same
        # batch as replications that complete
        config = TrialConfig(
            n_users=5,
            horizon_T=6,
            master_seed=29,
            policy=PolicySpec(kind="boltzmann", rho=5.0),
            env=EnvConfig(kappa1=1.0),
        )

        def reports(batch_users, jobs=1):
            monkeypatch.setattr(montecarlo, "BATCH_USERS", batch_users)
            return [
                (type(rep), rep.t, rep.cond) if isinstance(rep, NumericalError)
                else rep.to_dict()
                for rep in per_replication(*replicate(config, 7, jobs=jobs))
            ]

        default = reports(montecarlo.BATCH_USERS)
        assert default[2][:2] == default[4][:2] == (DegenerateDesignError, 1)
        assert sum(isinstance(rep, dict) for rep in default) >= 3
        assert reports(5) == default  # one replication per batch
        assert reports(15) == default  # three
        assert reports(1_000, jobs=2) == default

    def test_batches_cover_reps_in_order(self):
        assert rep_batches(50, 45) == [range(0, 20), range(20, 40), range(40, 45)]
        assert rep_batches(5_000, 3) == [range(0, 1), range(1, 2), range(2, 3)]
        # enough batches to give each worker one
        assert rep_batches(50, 10, jobs=2) == [range(0, 5), range(5, 10)]

    def test_replicate_pool_matches_serial_bits(self):
        # n = 5: replications 2 and 4 abort; jobs = 2 runs two batches
        config = TrialConfig(
            n_users=5,
            horizon_T=6,
            master_seed=29,
            policy=PolicySpec(kind="boltzmann", rho=5.0),
            env=EnvConfig(kappa1=1.0),
        )
        serial, serial_errors = replicate(config, 7, jobs=1)
        pooled, pooled_errors = replicate(config, 7, jobs=2)
        for f in dataclasses.fields(VarianceReport):
            got, want = getattr(pooled, f.name), getattr(serial, f.name)
            assert np.asarray(got).shape == np.asarray(want).shape, f.name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name

        def outcomes(errors):
            return [err and (type(err), str(err), err.t, err.cond) for err in errors]

        assert outcomes(pooled_errors) == outcomes(serial_errors)
        assert [r for r, err in enumerate(serial_errors) if err] == [2, 4]

    @pytest.mark.parametrize("reps, jobs, size", [(3, 64, 3), (3, 2, 2), (1, 4, None)])
    def test_pool_is_capped_at_the_batches(self, monkeypatch, reps, jobs, size):
        # one replication per batch; size None: no pool
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks, chunksize=1):
                return [func(task) for task in tasks]

        monkeypatch.setattr(montecarlo.multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(montecarlo, "BATCH_USERS", 1)
        config = _paper_cell_config(1.0, 1.0, 50).replace(horizon_T=5)
        report, errors = replicate(config, reps, jobs=jobs)
        assert sizes == ([] if size is None else [size])
        assert len(report.theta_hat) == len(errors) == reps

    def test_every_estimation_abort_gives_an_empty_report(self, monkeypatch):
        config = TrialConfig(
            n_users=30,
            horizon_T=6,
            master_seed=44,
            policy=PolicySpec(kind="boltzmann", rho=5.0),
            env=EnvConfig(kappa1=2.0),
        )
        simulate = montecarlo.run_trials

        def untreated(config, plans):  # no replication identifies theta_1
            batch, errors = simulate(config, plans)
            batch = TrajectorySet(
                batch.states, np.zeros_like(batch.actions), batch.rewards,
                batch.action_probs, batch.beta_hats, config,
            )
            return batch, errors

        monkeypatch.setattr(montecarlo, "run_trials", untreated)
        report, errors = replicate(config, 3)
        assert [type(err) for err in errors] == [DegenerateDesignError] * 3
        assert report.theta_hat.shape == (0, 3)
        assert report.ci_sandwich.shape == report.ci_adaptive.shape == (0, 3, 2)
        cell = run_cell(config, 3, np.zeros(3))
        assert (cell.reps_completed, cell.reps_aborted) == (0, 3)

    @pytest.mark.parametrize(
        "reps, jobs", [(0, 1), (-5, 1), (3, -3), (ORACLE_REP_BASE + 1, 1)]
    )
    def test_replicate_rejects_bad_counts(self, reps, jobs):
        config = _paper_cell_config(1.0, 1.0, 50)
        with pytest.raises(ConfigError):
            replicate(config, reps, jobs=jobs)

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, 2.0**-53, 1e-20, float("nan")])
    def test_replicate_rejects_bad_alpha_before_any_run(self, alpha, monkeypatch):
        def no_run(*args):
            raise AssertionError("simulated before the alpha check")

        monkeypatch.setattr(montecarlo, "run_trials", no_run)
        with pytest.raises(ConfigError, match="alpha"):
            replicate(_paper_cell_config(1.0, 1.0, 50), 200, alpha=alpha)

    def test_discordant_counts_match_pairs(self):
        config = TrialConfig(
            n_users=50,
            horizon_T=5,
            master_seed=86,
            policy=PolicySpec(kind="boltzmann", rho=5.0),
            env=EnvConfig(kappa1=5.0),
        )
        # theta*_1 near the interval edges so both kinds of discordance occur
        reps = 30
        results = [run_replication(config, SeedPlan(86, r)) for r in range(reps)]
        theta_star = np.zeros(3)
        theta_star[-1] = np.median([res.ci_sandwich[-1][1] for res in results])
        pairs = [
            (
                res.ci_sandwich[-1][0] <= theta_star[-1] <= res.ci_sandwich[-1][1],
                res.ci_adaptive[-1][0] <= theta_star[-1] <= res.ci_adaptive[-1][1],
            )
            for res in results
        ]
        cell = run_cell(config, reps=reps, theta_star=theta_star)
        assert cell.reps_completed == reps
        covered_s = round(cell.coverage_sandwich * reps)
        covered_a = round(cell.coverage_adaptive * reps)
        assert covered_s == sum(s for s, _ in pairs)
        assert covered_a == sum(a for _, a in pairs)
        assert cell.reps_only_sandwich == sum(s and not a for s, a in pairs)
        assert cell.reps_only_adaptive == sum(a and not s for s, a in pairs)
        assert cell.reps_only_sandwich + cell.reps_only_adaptive > 0
        assert (
            covered_s - cell.reps_only_sandwich
            == covered_a - cell.reps_only_adaptive
        )
        assert type(cell.reps_only_sandwich) is int
        assert type(cell.reps_only_adaptive) is int

    def test_replication_determinism(self):
        config = TrialConfig(
            n_users=60,
            horizon_T=6,
            master_seed=83,
            policy=PolicySpec(kind="boltzmann", rho=2.0),
            env=EnvConfig(kappa1=2.0),
        )
        a = run_replication(config, SeedPlan(83, 4))
        b = run_replication(config, SeedPlan(83, 4))
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert np.array_equal(a.se_adaptive, b.se_adaptive)

    def test_cond_calls_do_not_grow_with_horizon(self, monkeypatch):
        # the policy refits are checked in one batch after the step loop, and
        # each check screens its matrices with one batched inverse
        calls = []
        for name in ("cond", "inv"):
            def counted(*args, _call=getattr(np.linalg, name), **kwargs):
                calls.append(1)
                return _call(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        counts = []
        for horizon in (5, 50):
            calls.clear()
            config = _paper_cell_config(5.0, 5.0, 50).replace(horizon_T=horizon)
            run_replication(config, SeedPlan(config.master_seed, 0))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("untreated_upto, error", [
        (6, DegenerateDesignError),       # fit_theta: the treatment column is zero
        (1, SingularPolicyBreadError),    # adaptive: the time-1 policy bread
    ])
    def test_estimation_abort_leaves_neighbours_unchanged(
        self, monkeypatch, untreated_upto, error
    ):
        config = TrialConfig(
            n_users=30,
            horizon_T=6,
            master_seed=44,
            policy=PolicySpec(kind="boltzmann", rho=5.0),
            env=EnvConfig(kappa1=2.0),
        )
        clean = per_replication(*replicate(config, 5))
        simulate = montecarlo.run_trials
        bad = {}

        def with_untreated_trial(config, plans):
            batch, errors = simulate(config, plans)
            actions = np.array(batch.actions)
            actions[2, :, :untreated_upto] = 0
            batch = TrajectorySet(
                batch.states, actions, batch.rewards, batch.action_probs,
                batch.beta_hats, config,
            )
            bad["ts"] = batch[2]
            return batch, errors

        monkeypatch.setattr(montecarlo, "run_trials", with_untreated_trial)
        got = per_replication(*replicate(config, 5))
        with pytest.raises(error) as alone:
            variance_report(bad["ts"], fit_theta(bad["ts"]))
        assert type(got[2]) is error
        assert (got[2].t, got[2].cond) == (alone.value.t, alone.value.cond)
        assert got[2].__traceback__ is None
        for r in (0, 1, 3, 4):
            assert got[r].to_dict() == clean[r].to_dict()
            assert got[r].sandwich_cov.tobytes() == clean[r].sandwich_cov.tobytes()
            assert got[r].adaptive_cov.tobytes() == clean[r].adaptive_cov.tobytes()

    def test_replicate_matches_run_replication(self):
        config = _paper_cell_config(5.0, 5.0, 50).replace(horizon_T=8)
        reports = per_replication(*replicate(config, 6))
        for r, rep in enumerate(reports):
            alone = run_replication(config, SeedPlan(config.master_seed, r))
            for name in rep.to_dict():
                got, want = getattr(rep, name), getattr(alone, name)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name

    @pytest.fixture()
    def checks(self, monkeypatch):
        """What each conditioning check made from now on checks, in order."""
        from pooltrial import estimators, simulator

        calls = []
        check = estimators.conditioning_errors

        def counted(*args, **kwargs):
            calls.append(args[2])
            return check(*args, **kwargs)

        for module in (estimators, simulator):
            monkeypatch.setattr(module, "conditioning_errors", counted)
        return calls

    @pytest.mark.parametrize("horizon", [5, 20])
    def test_checks_per_batch_do_not_grow_with_reps(self, checks, horizon):
        # one call per kind of matrix: the policy Grams, the inference Gram,
        # Psi_dot and the policy breads, whatever the batch size
        config = _paper_cell_config(5.0, 5.0, 50).replace(horizon_T=horizon)
        counts = []
        for size in (1, 3, 8):
            checks.clear()
            (report,), errors = montecarlo._replicate((config, range(size), 0.05))
            assert errors == [None] * size and len(report.theta_hat) == size
            counts.append(sorted(checks))
        assert counts[0] == counts[1] == counts[2]
        assert counts[0] == sorted(
            ["policy design", "inference design", "bread", "policy bread"]
        )

    def test_one_policy_design_check_for_an_aborting_batch(self, checks):
        # replications 2 and 4 have an exactly singular policy refit
        config = TrialConfig(
            n_users=5,
            horizon_T=6,
            master_seed=29,
            policy=PolicySpec(kind="boltzmann", rho=5.0),
            env=EnvConfig(kappa1=1.0),
        )
        (report,), errors = montecarlo._replicate((config, range(6), 0.05))
        got = per_replication(report, errors)
        assert checks.count("policy design") == 1
        for r, rep in enumerate(got):
            try:
                alone = run_replication(config, SeedPlan(29, r))
            except NumericalError as err:
                assert (type(rep), rep.t, rep.cond) == (type(err), err.t, err.cond)
            else:
                assert rep.to_dict() == alone.to_dict()
        assert [r for r, rep in enumerate(got) if isinstance(rep, NumericalError)] == [2, 4]

    def test_healthy_batch_takes_no_svd(self, monkeypatch):
        # the norm screen clears every checked matrix of a healthy batch: the
        # 49 policy Grams, the inference Gram, Psi_dot and the 49 policy
        # breads, 100 per replication when each took an SVD
        from oracles import svd_conditioning_errors

        seen = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            a = np.asarray(a)
            seen.append(a.size // (a.shape[-2] * a.shape[-1]))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        # np.linalg.cond reads svd from its own module
        monkeypatch.setitem(np.linalg.cond.__wrapped__.__globals__, "svd", counted)
        config = _paper_cell_config(5.0, 5.0, 50)
        (report,), errors = montecarlo._replicate((config, range(10), 0.05))
        assert errors == [None] * 10 and len(report.theta_hat) == 10
        assert sum(seen) == 0
        # the wrapper sees an SVD of every matrix the reference checks
        mats = np.tile(np.eye(4), (10, 49, 1, 1))
        assert svd_conditioning_errors(mats, DegenerateDesignError, "policy design") == [None] * 10
        assert sum(seen) == 490

    def test_nan_variance_aborts_the_replication(self):
        # with state_dim 1, replication 7 fits its intercept from one
        # untreated observation: its plug-in variance rounds to -5.6e-14
        config = TrialConfig(
            n_users=4,
            horizon_T=6,
            state_dim=1,
            master_seed=29,
            policy=PolicySpec(kind="boltzmann", rho=5.0),
        )
        with pytest.raises(DegenerateDesignError, match="plug-in variance") as alone:
            run_replication(config, SeedPlan(29, 7))
        assert (alone.value.t, alone.value.cond) == (None, None)
        got = per_replication(*replicate(config, 10))
        assert type(got[7]) is DegenerateDesignError
        assert (str(got[7]), got[7].t, got[7].cond) == (str(alone.value), None, None)
        for r, rep in enumerate(got):
            if r != 7 and isinstance(rep, VarianceReport):
                alone = run_replication(config, SeedPlan(29, r))
                for name in rep.to_dict():
                    want = np.asarray(getattr(alone, name)).tobytes()
                    assert np.asarray(getattr(rep, name)).tobytes() == want, name


class TestRunGrid:
    BASE = _paper_cell_config(1.0, 1.0, 40).replace(horizon_T=5)
    GRID = {"kappa1": [1.0, 5.0], "rho": [2.0], "n_users": [20, 30]}

    @pytest.fixture()
    def ran(self, monkeypatch):
        """The oracle trials and cells run_grid runs, in order, from an empty
        theta* cache."""
        monkeypatch.setattr(montecarlo, "_theta_star_cache", {})
        ran = []
        real_trial, real_cell = montecarlo.run_trial, montecarlo.run_cell

        def trial(config, plan):
            ran.append(("oracle", config.env.kappa1, config.policy.rho, config.n_users))
            return real_trial(config, plan)

        def cell(config, *args):
            ran.append(("cell", config.env.kappa1, config.policy.rho, config.n_users))
            return real_cell(config, *args)

        monkeypatch.setattr(montecarlo, "run_trial", trial)
        monkeypatch.setattr(montecarlo, "run_cell", cell)
        return ran

    def test_cells_in_order_one_oracle_per_family(self, ran):
        cells = run_grid(self.BASE, self.GRID, reps=4, oracle_n=2_000)
        assert [(c.kappa1, c.rho, c.n) for c in cells] == [
            (1.0, 2.0, 20), (1.0, 2.0, 30), (5.0, 2.0, 20), (5.0, 2.0, 30)
        ]
        assert ran == [
            ("oracle", 1.0, 2.0, 2_000), ("cell", 1.0, 2.0, 20), ("cell", 1.0, 2.0, 30),
            ("oracle", 5.0, 2.0, 2_000), ("cell", 5.0, 2.0, 20), ("cell", 5.0, 2.0, 30),
        ]

    def test_theta_star_is_one_oracle_plan_through_averaged_theta_star(
        self, ran, monkeypatch
    ):
        calls = []
        real = montecarlo.averaged_theta_star

        def recorded(config, oracle_n, n_oracles):
            calls.append((config, oracle_n, n_oracles, real(config, oracle_n, n_oracles)))
            return calls[-1][-1]

        monkeypatch.setattr(montecarlo, "averaged_theta_star", recorded)
        grid = {**self.GRID, "n_users": [20]}
        cells = run_grid(self.BASE, grid, reps=4, oracle_n=2_000)
        assert [(c.env.kappa1, c.n_users, k, n) for c, k, n, _ in calls] == [
            (1.0, 20, 2_000, 1), (5.0, 20, 2_000, 1)
        ]
        montecarlo._theta_star_cache.clear()  # the reference is a fresh run
        for cell, (config, _, _, theta_star) in zip(cells, calls):
            plan = SeedPlan(self.BASE.master_seed, ORACLE_REP_BASE)
            want = estimate_theta_star(config, 2_000, plan)
            assert theta_star.tobytes() == want.tobytes()
            assert cell.theta_star_1 == want[-1]

    def test_numpy_scalar_config_writes_the_same_tables(self, tmp_path):
        twin = TrialConfig(
            n_users=np.int64(40),
            horizon_T=np.int64(5),
            master_seed=np.int64(202),
            policy=PolicySpec(rho=np.float64(1.0), pi_min=np.float64(0.1)),
            env=EnvConfig(kappa1=np.float64(1.0)),
        )
        assert twin == self.BASE
        grids = [
            {"kappa1": [1.0, 5.0], "rho": [2.0], "n_users": [20]},
            {"kappa1": [np.float64(1.0), np.float64(5.0)], "rho": [np.float64(2.0)],
             "n_users": [np.int64(20)]},
        ]
        for name, base, grid in [("plain", self.BASE, grids[0]), ("numpy", twin, grids[1])]:
            emit_table(run_grid(base, grid, reps=3, oracle_n=500), tmp_path / name)
        for table in ("table.csv", "table.json"):
            plain = (tmp_path / "plain" / table).read_bytes()
            assert plain == (tmp_path / "numpy" / table).read_bytes(), table
        assert b"np." not in plain

    def test_bad_cell_fails_before_any_run(self, ran):
        grid = {**self.GRID, "n_users": [20, 1]}
        with pytest.raises(ConfigError, match="n_users must be >= 2"):
            run_grid(self.BASE, grid, reps=4, oracle_n=2_000)
        assert ran == []

    @pytest.mark.parametrize("reps, alpha", [(4, 1e-20), (4, 1.5), (0, 0.05)])
    def test_bad_run_arguments_fail_before_the_oracle(self, ran, monkeypatch, reps, alpha):
        def no_oracle(*args):
            raise AssertionError("ran an oracle before the argument check")

        monkeypatch.setattr(montecarlo, "estimate_theta_star", no_oracle)
        with pytest.raises(ConfigError):
            run_grid(self.BASE, self.GRID, reps=reps, oracle_n=100_000, alpha=alpha)
        assert ran == []


@pytest.mark.parametrize(
    "cls", [DegenerateDesignError, SingularBreadError, SingularPolicyBreadError]
)
def test_numerical_error_pickles_with_t_and_cond(cls):
    # a process-pool worker sends its errors back pickled
    err = pickle.loads(pickle.dumps(cls("singular", t=3, cond=1e13)))
    assert type(err) is cls
    assert (str(err), err.t, err.cond) == ("singular", 3, 1e13)


def _fake_cells():
    cells = []
    for k1 in (1.0, 5.0):
        for rho in (0.5, 1.0, 5.0):
            for n in (50, 100, 500):
                cells.append(
                    CoverageCell(
                        kappa1=k1,
                        rho=rho,
                        n=n,
                        reps_requested=10,
                        reps_completed=10,
                        reps_aborted=0,
                        coverage_sandwich=0.9,
                        coverage_adaptive=0.95,
                        mc_se_sandwich=0.01,
                        mc_se_adaptive=0.01,
                        theta_star_1=0.0,
                    )
                )
    return cells


class TestEmitTable:
    def test_empty_header_only(self, tmp_path):
        emit_table([], tmp_path)
        lines = (tmp_path / "table.csv").read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("kappa1,rho,n,")

    def test_single_cell_full_precision(self, tmp_path):
        cell = CoverageCell(
            kappa1=5.0,
            rho=0.5,
            n=100,
            reps_requested=500,
            reps_completed=499,
            reps_aborted=1,
            coverage_sandwich=0.8456913827655311,
            coverage_adaptive=0.9539078156312625,
            mc_se_sandwich=0.016172,
            mc_se_adaptive=0.0093811,
            theta_star_1=0.123,
        )
        emit_table([cell], tmp_path)
        lines = (tmp_path / "table.csv").read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert float(fields[3]) == cell.coverage_sandwich
        assert float(fields[5]) == cell.coverage_adaptive
        assert fields[7] == "499" and fields[8] == "1"

    def test_paper_grid_has_18_rows(self, tmp_path):
        emit_table(_fake_cells(), tmp_path)
        lines = (tmp_path / "table.csv").read_text().splitlines()
        assert len(lines) == 19

    def test_byte_identical_rewrite(self, tmp_path):
        cells = _fake_cells()
        emit_table(cells, tmp_path / "a")
        emit_table(list(reversed(cells)), tmp_path / "b")
        assert (tmp_path / "a" / "table.csv").read_bytes() == (
            tmp_path / "b" / "table.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "table.json").read_bytes() == (
            tmp_path / "b" / "table.json"
        ).read_bytes()

    def test_discordant_counts_in_json_not_csv(self, tmp_path):
        import dataclasses
        import json

        cells = _fake_cells()
        paired = [
            dataclasses.replace(c, reps_only_sandwich=1, reps_only_adaptive=6)
            for c in cells
        ]
        emit_table(cells, tmp_path / "a")
        emit_table(paired, tmp_path / "b")
        csv_a = (tmp_path / "a" / "table.csv").read_bytes()
        assert csv_a == (tmp_path / "b" / "table.csv").read_bytes()
        assert csv_a.splitlines()[0] == (
            b"kappa1,rho,n,sandwich_cov,sandwich_se,"
            b"adaptive_cov,adaptive_se,reps,aborted"
        )
        rows = json.loads((tmp_path / "b" / "table.json").read_text())
        assert all(
            r["reps_only_sandwich"] == 1 and r["reps_only_adaptive"] == 6
            for r in rows
        )
