import dataclasses

import numpy as np
import pytest

from pooltrial import EnvConfig, PolicySpec, SeedPlan, TrialConfig, estimate_theta_star
from pooltrial import diagnostics
from pooltrial.diagnostics import clt_check, invariance_scan, run_suite
from pooltrial.cli import main
from pooltrial.core import TrajectorySet
from pooltrial.errors import ConfigError, DegenerateDesignError
from pooltrial.estimators import fit_theta
from pooltrial.montecarlo import ORACLE_REP_BASE
from pooltrial.simulator import run_trials
from pooltrial.variance import invariance_norms


@pytest.fixture(scope="module")
def tiny_config():
    return TrialConfig(
        n_users=50,
        horizon_T=4,
        master_seed=92,
        policy=PolicySpec(kind="boltzmann", rho=1.0),
        env=EnvConfig(kappa1=1.0),
    )


class TestClt:
    def test_insufficient_sample_flag(self, tiny_config):
        entry = clt_check(tiny_config, reps=1, theta_star=np.zeros(3))
        assert entry == {
            "reps": 1, "z_mean": None, "z_variance": None, "ks_stat": None,
            "ks_threshold": None, "passed": False,
        }

    def test_smoke_normality_small(self):
        config = TrialConfig(
            n_users=300,
            horizon_T=8,
            master_seed=93,
            policy=PolicySpec(kind="boltzmann", rho=1.0),
            env=EnvConfig(kappa1=1.0),
        )
        theta_star = estimate_theta_star(
            config, 50_000, SeedPlan(93, ORACLE_REP_BASE)
        )
        entry = clt_check(config, reps=60, theta_star=theta_star)
        assert entry["ks_stat"] is not None
        assert entry["ks_threshold"] == pytest.approx(1.63 / np.sqrt(entry["reps"]))
        assert entry["passed"]
        assert abs(entry["z_variance"] - 1.0) < 0.6


class TestInvarianceScan:
    def test_constant_uniform_identically_zero(self, tiny_config):
        flat = tiny_config.replace(
            policy=dataclasses.replace(tiny_config.policy, kind="constant_uniform")
        )
        profiles = invariance_scan([("flat", flat)], reps=20)
        assert np.all(profiles["flat"] == 0.0)

    def test_steepness_dominance(self):
        base = TrialConfig(
            n_users=100,
            horizon_T=8,
            master_seed=91,
            policy=PolicySpec(kind="boltzmann", rho=5.0),
            env=EnvConfig(kappa1=2.0),
        )
        shallow = base.replace(
            policy=dataclasses.replace(base.policy, rho=0.5)
        )
        profiles = invariance_scan([("rho5", base), ("rho05", shallow)], reps=60)
        assert np.all(profiles["rho5"] > profiles["rho05"])

    def test_averages_only_the_simulated_replications(self, tiny_config, monkeypatch):
        def drop_odd(config, plans):  # the odd replications abort in simulation
            batch, _ = run_trials(config, plans[::2])
            errors = [DegenerateDesignError("policy design") for _ in plans]
            errors[::2] = [None] * len(batch.actions)
            return batch, errors

        monkeypatch.setattr(diagnostics, "run_trials", drop_odd)
        profile = invariance_scan([("kept", tiny_config)], reps=6)["kept"]
        kept, _ = run_trials(tiny_config, [SeedPlan(92, r) for r in (0, 2, 4)])
        norms = invariance_norms(kept, fit_theta(kept))
        want = (norms[0] + norms[1] + norms[2]) / 3
        assert profile.tobytes() == want.tobytes()

    @pytest.fixture
    def untreated(self, monkeypatch):
        """Simulate as usual, then record no user as treated: no replication
        identifies theta_1, so every inference design is singular."""

        def simulate(config, plans):
            batch, errors = run_trials(config, plans)
            batch = TrajectorySet(
                batch.states, np.zeros_like(batch.actions), batch.rewards,
                batch.action_probs, batch.beta_hats, config,
            )
            return batch, errors

        monkeypatch.setattr(diagnostics, "run_trials", simulate)

    def test_degenerate_inference_design_raises(self, tiny_config, untreated):
        with pytest.raises(DegenerateDesignError, match="inference design"):
            invariance_scan([("untreated", tiny_config)], reps=3)

    def test_degenerate_inference_design_exits_2(self, untreated, capsys):
        assert main(["check", "--suite", "invariance", "--reps", "3"]) == 2
        assert "inference design" in capsys.readouterr().err


class TestRunSuite:
    """Each suite's check.json entry and verdict, its statistics faked."""

    @pytest.mark.parametrize("ok", [True, False])
    def test_clt(self, ok, monkeypatch):
        seen = []

        def fake_oracle(config, oracle_n, n_oracles):
            seen.append((config.n_users, config.horizon_T, oracle_n, n_oracles))
            return np.full(3, 0.25)

        def fake_check(config, reps, theta_star):
            seen.append((config.n_users, config.horizon_T, reps, theta_star.tolist()))
            return {
                "reps": reps - 1, "z_mean": 0.1, "z_variance": 1.2, "ks_stat": 0.02,
                "ks_threshold": 0.03, "passed": ok,
            }

        monkeypatch.setattr(diagnostics, "averaged_theta_star", fake_oracle)
        monkeypatch.setattr(diagnostics, "clt_check", fake_check)
        entry, passed = run_suite("clt", 11, 40, 3_000)
        assert entry == {
            "reps": 39, "z_mean": 0.1, "z_variance": 1.2, "ks_stat": 0.02,
            "ks_threshold": 0.03, "passed": ok,
        }
        assert passed is ok
        assert seen == [(500, 50, 3_000, 4), (500, 50, 40, [0.25] * 3)]

    @pytest.mark.parametrize(
        "steep, flat, dominates, zero",
        [(2.0, 0.0, True, True), (1.0, 0.0, False, True), (2.0, 0.5, True, False)],
    )
    def test_invariance(self, steep, flat, dominates, zero, monkeypatch):
        seen = []

        def fake_scan(labeled, reps):
            seen.append(([(label, c.horizon_T, c.policy) for label, c in labeled], reps))
            return {
                "rho=5": np.full(9, steep),
                "rho=0.5": np.ones(9),
                "constant_uniform": np.full(9, flat),
            }

        monkeypatch.setattr(diagnostics, "invariance_scan", fake_scan)
        entry, passed = run_suite("invariance", 11, 500, 3_000)
        assert entry == {
            "rho=5": [steep] * 9,
            "rho=0.5": [1.0] * 9,
            "constant_uniform": [flat] * 9,
            "rho5_dominates": dominates,
            "constant_uniform_zero": zero,
        }
        assert passed is (dominates and zero)
        designs = [
            ("rho=5", 10, PolicySpec(kind="boltzmann", rho=5.0, pi_min=0.1)),
            ("rho=0.5", 10, PolicySpec(kind="boltzmann", rho=0.5, pi_min=0.1)),
            ("constant_uniform", 10, PolicySpec(kind="constant_uniform", pi_min=0.1)),
        ]
        assert seen == [(designs, 200)]

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            run_suite("lipschitz", 11, 40, 3_000)
