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
from pooltrial.montecarlo import (
    ORACLE_REP_BASE,
    CoverageCell,
    emit_table,
    run_replication,
)
from pooltrial.variance import sandwich


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
        rep = variance_report(ts, est, which="adaptive")
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
