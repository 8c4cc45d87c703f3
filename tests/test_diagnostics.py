import numpy as np
import pytest

from pooltrial import EnvConfig, PolicySpec, SeedPlan, TrialConfig, estimate_theta_star
from pooltrial import diagnostics, montecarlo
from pooltrial.cli import main
from pooltrial.core import TrajectorySet
from pooltrial.diagnostics import clt_check, run_suite
from pooltrial.errors import ConfigError
from pooltrial.montecarlo import ORACLE_REP_BASE
from pooltrial.simulator import run_trial


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


class TestRunSuite:
    """Each suite's check.json entry and verdict, its statistics faked, and
    the exit code of a numerical failure in its oracle run."""

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

    def test_degenerate_inference_design_exits_2(self, monkeypatch, capsys):
        """The oracle run records no user as treated: it cannot identify
        theta_1, so its inference design is singular and ``check`` exits 2."""

        def untreated(config, plan):
            ts = run_trial(config, plan)
            return TrajectorySet(
                ts.states, np.zeros_like(ts.actions), ts.rewards,
                ts.action_probs, ts.beta_hats, config,
            )

        monkeypatch.setattr(montecarlo, "run_trial", untreated)
        monkeypatch.setattr(montecarlo, "_theta_star_cache", {})
        code = main(["check", "--suite", "clt", "--reps", "3", "--oracle-n", "60"])
        assert code == 2
        assert "inference design" in capsys.readouterr().err

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            run_suite("lipschitz", 11, 40, 3_000)
