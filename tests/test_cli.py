import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml

from pooltrial import TrajectorySet, fit_theta
from pooltrial.cli import main
from pooltrial.config import load_config, parse_config

from oracles import dense_stacked_oracle

TINY_CONFIG = {
    "trial": {"n_users": 40, "horizon_T": 6, "state_dim": 2, "master_seed": 7},
    "policy": {"kind": "boltzmann", "rho": 2.0, "pi_min": 0.1},
    "env": {"kappa1": 2.0},
}


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(TINY_CONFIG))
    return str(path)


class TestSimulate:
    def test_happy_path(self, tiny_config_file, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--config", tiny_config_file, "--out", str(out), "--rep", "0"]
        )
        assert code == 0
        assert (out / "trajectories.csv").exists()
        assert (out / "beta_hats.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["master_seed"] == 7
        assert manifest["config"]["policy"]["kind"] == "boltzmann"
        # the bit-identity contract holds for these versions
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == scipy.__version__

    def test_deterministic_output_bytes(self, tiny_config_file, tmp_path):
        main(["simulate", "--config", tiny_config_file, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", tiny_config_file, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "trajectories.csv").read_bytes() == (
            tmp_path / "b" / "trajectories.csv"
        ).read_bytes()

    def test_seed_override(self, tiny_config_file, tmp_path):
        main(
            ["simulate", "--config", tiny_config_file, "--seed", "99",
             "--out", str(tmp_path / "a")]
        )
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["master_seed"] == 99

    def test_missing_config_exits_1(self, tmp_path):
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]
        )
        assert code == 1

    def test_invalid_pi_min_exits_1(self, tmp_path):
        bad = dict(TINY_CONFIG, policy={"kind": "boltzmann", "pi_min": 0.6})
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(bad))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_unknown_key_exits_1(self, tmp_path):
        bad = dict(TINY_CONFIG, policy={"kind": "boltzmann", "temperture": 2})
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(bad))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize(
        "text",
        [
            "trial: {n_users: abc}",
            "trial: {n_users: 20.7}",
            "env: {kappa1: abc}",
            "env: {kappa1: .inf}",
            "policy: {rho: .nan}",
            "policy: {kind: mirror_descent, eta: .nan}",
            "policy: {kind: mirror_descent, eta: abc}",
            "trial: {horizon_T: 6}\npolicy: {kind: mirror_descent, eta: [0.5, 0.5]}",
            "trial: 5",
            "grid: {n_users: [50, abc]}",
            "[]",
            "0",
            "trial: []",
            "policy: 0",
            'env: ""',
            "grid: {n_users: []}",
            "grid: {n_users: [50, 50]}",
            "grid: {rho: [1, 1.0]}",
            "policy: {kind: mirror_descent, eta: 0.5}\ngrid: {rho: [0.5, 1.0]}",
            "policy: {kind: constant_uniform}\ngrid: {rho: [0.5, 1.0]}",
        ],
    )
    def test_bad_config_value_exits_1(self, text, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(text + "\n")
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflow_exits_2_with_one_error_line(self, tmp_path, capsys):
        # the rewards overflow at t = 1, so the first policy fit sees a
        # non-finite design; numpy must not warn on the way there
        path = tmp_path / "huge.yaml"
        path.write_text("trial: {n_users: 20, horizon_T: 5}\nenv: {kappa1: 1.0e+308}\n")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: non-finite policy design\n"

    def test_usage_error_exits_1(self):
        assert main(["simulate"]) == 1

    def test_numerical_failure_exits_2(self, tmp_path):
        # two users cannot identify the 4-parameter policy fit at t = 1
        cfg = dict(TINY_CONFIG, trial={"n_users": 2, "horizon_T": 4, "master_seed": 1})
        path = tmp_path / "degenerate.yaml"
        path.write_text(yaml.safe_dump(cfg))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2


class TestEstimate:
    def test_roundtrip_from_manifest(self, tiny_config_file, tmp_path):
        sim_dir, est_dir = tmp_path / "sim", tmp_path / "est"
        main(["simulate", "--config", tiny_config_file, "--out", str(sim_dir)])
        code = main(["estimate", "--in", str(sim_dir), "--out", str(est_dir)])
        assert code == 0
        report = json.loads((est_dir / "estimate.json").read_text())
        for key in (
            "theta_hat",
            "psi_residual_norm",
            "sandwich_cov",
            "adaptive_cov",
            "se_sandwich",
            "se_adaptive",
            "ci_sandwich",
            "ci_adaptive",
            "policy_invariance_norms",
            "stacked_dim",
        ):
            assert key in report
        assert "equivalence_gap" not in report
        assert len(report["theta_hat"]) == 3
        assert report["stacked_dim"] == 5 * 4 + 3
        assert report["psi_residual_norm"] < 1e-8
        # the adaptive covariance agrees with the brute-force stacked build
        config, _, _ = load_config(tiny_config_file)
        ts = TrajectorySet.load(str(sim_dir), config)
        dense = dense_stacked_oracle(ts, fit_theta(ts)).cov
        assert np.abs(np.array(report["adaptive_cov"]) - dense).max() < 1e-10

    def test_seed_flag_rejected(self, tiny_config_file, tmp_path):
        # estimation draws no random numbers, so it takes no seed
        sim_dir, est_dir = tmp_path / "sim", tmp_path / "est"
        main(["simulate", "--config", tiny_config_file, "--out", str(sim_dir)])
        code = main(
            ["estimate", "--in", str(sim_dir), "--out", str(est_dir), "--seed", "3"]
        )
        assert code == 1
        assert not (est_dir / "estimate.json").exists()

    def test_estimate_matches_in_process(self, tiny_config_file, tmp_path):
        from pooltrial import SeedPlan, run_trial

        sim_dir, est_dir = tmp_path / "sim", tmp_path / "est"
        main(["simulate", "--config", tiny_config_file, "--out", str(sim_dir)])
        main(["estimate", "--in", str(sim_dir), "--out", str(est_dir)])
        report = json.loads((est_dir / "estimate.json").read_text())
        config, _, _ = load_config(tiny_config_file)
        est = fit_theta(run_trial(config, SeedPlan(7, 0)))
        assert np.allclose(report["theta_hat"], est.theta_hat, rtol=0, atol=0)

    def test_sandwich_only_variant(self, tiny_config_file, tmp_path):
        sim_dir, est_dir = tmp_path / "sim", tmp_path / "est"
        main(["simulate", "--config", tiny_config_file, "--out", str(sim_dir)])
        code = main(
            ["estimate", "--in", str(sim_dir), "--out", str(est_dir),
             "--variance", "sandwich", "--alpha", "0.1"]
        )
        assert code == 0
        report = json.loads((est_dir / "estimate.json").read_text())
        assert report["adaptive_cov"] is None
        assert "equivalence_gap" not in report
        assert report["alpha"] == 0.1

    def test_zero_variance_exits_2_without_output(self, tmp_path, capsys):
        # with state_dim 1 the intercept of replication 7 is fit from one
        # untreated observation: its plug-in variance rounds below zero
        cfg = {
            "trial": {"n_users": 4, "horizon_T": 6, "state_dim": 1, "master_seed": 29},
            "policy": {"kind": "boltzmann", "rho": 5.0},
        }
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        sim_dir, est_dir = tmp_path / "sim", tmp_path / "est"
        assert main(["simulate", "--config", str(path), "--out", str(sim_dir),
                     "--rep", "7"]) == 0
        capsys.readouterr()
        code = main(["estimate", "--in", str(sim_dir), "--out", str(est_dir)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: a plug-in variance is not finite and > 0\n"
        )
        assert not est_dir.exists()

    def test_missing_manifest_exits_1(self, tmp_path):
        code = main(["estimate", "--in", str(tmp_path), "--out", str(tmp_path / "e")])
        assert code == 1

    def test_adaptive_only_rejected(self, tiny_config_file, tmp_path, capsys):
        # the sandwich is always computed, so "both" is the adaptive choice
        sim_dir, est_dir = tmp_path / "sim", tmp_path / "est"
        main(["simulate", "--config", tiny_config_file, "--out", str(sim_dir)])
        code = main(
            ["estimate", "--in", str(sim_dir), "--out", str(est_dir),
             "--variance", "adaptive"]
        )
        assert code == 1
        assert "argument --variance: invalid choice" in capsys.readouterr().err
        assert not est_dir.exists()


class TestMc:
    def test_tiny_grid(self, tmp_path):
        cfg = dict(TINY_CONFIG)
        cfg["grid"] = {"kappa1": [1.0], "rho": [1.0], "n_users": [40]}
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "mc"
        code = main(
            ["mc", "--config", str(path), "--reps", "8", "--oracle-n", "2000",
             "--out", str(out)]
        )
        assert code == 0
        lines = (out / "table.csv").read_text().splitlines()
        assert len(lines) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["reps"] == 8
        assert manifest["grid"]["n_users"] == [40]

    def test_grid_defaults_to_the_config_point(self):
        raw = {"trial": {"n_users": 60}, "policy": {"rho": 2.0}, "env": {"kappa1": 3.0}}
        _, grid = parse_config(raw)
        assert grid == {"kappa1": [3.0], "rho": [2.0], "n_users": [60]}
        _, grid = parse_config({**raw, "grid": {"n_users": [50, 100]}})
        assert grid == {"kappa1": [3.0], "rho": [2.0], "n_users": [50, 100]}

    def test_preset_resolves(self):
        config, grid, _ = load_config("paper_table1")
        assert config.horizon_T == 50
        assert grid == {
            "kappa1": [1.0, 5.0],
            "rho": [0.5, 1.0, 5.0],
            "n_users": [50, 100, 500],
        }


class TestFlagsRejected:
    """Out-of-range counts and levels are usage errors before any work."""

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("mc", ["--reps", "-5"]),
            ("mc", ["--reps", "0"]),
            ("mc", ["--jobs", "-3"]),
            ("mc", ["--alpha", "2"]),
            ("mc", ["--alpha", "0"]),
            ("estimate", ["--alpha", "2"]),
            ("check", ["--reps", "-3"]),
            ("mc", ["--oracle-n", "1"]),
            ("check", ["--oracle-n", "-5"]),
        ],
    )
    def test_exits_1_without_output(self, command, flags, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        args = {
            "mc": ["--config", tiny_config_file],
            "estimate": ["--in", str(tmp_path), "--config", tiny_config_file],
            "check": ["--suite", "bernstein"],
        }[command]
        assert main([command, *args, *flags, "--out", str(out)]) == 1
        assert not out.exists()
        assert f"argument {flags[0]}: must be" in capsys.readouterr().err


class TestCheck:
    def test_invariance_suite_writes_report(self, tmp_path):
        out = tmp_path / "chk"
        code = main(
            ["check", "--suite", "invariance", "--reps", "40", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "check.json").read_text())
        assert report["invariance"]["rho5_dominates"] is True
        assert report["invariance"]["constant_uniform_zero"] is True

    def test_bernstein_suite_small(self, tmp_path):
        code = main(["check", "--suite", "bernstein", "--reps", "50"])
        assert code == 0

    def test_oracle_n_reaches_bernstein(self, monkeypatch, tmp_path):
        import pooltrial.diagnostics as diag

        seen = []

        def fake_check(config, reps, oracle_n=100_000):
            seen.append(oracle_n)
            zeros = [0.0]
            return {
                "x_grid": zeros, "empirical_tail": zeros, "bound": zeros, "violations": 0
            }

        monkeypatch.setattr(diag, "bernstein_check", fake_check)
        out = tmp_path / "chk"
        code = main(
            ["check", "--suite", "bernstein", "--oracle-n", "20000", "--out", str(out)]
        )
        assert code == 0
        assert seen == [20000]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["oracle_n"] == 20000

    def test_failure_exits_3(self, monkeypatch, tmp_path):
        import pooltrial.diagnostics as diag

        def fake_scan(labeled, reps):
            T = 10
            return {
                "rho=5": np.zeros(T - 1),
                "rho=0.5": np.ones(T - 1),
                "constant_uniform": np.zeros(T - 1),
            }

        monkeypatch.setattr(diag, "invariance_scan", fake_scan)
        code = main(["check", "--suite", "invariance", "--reps", "5"])
        assert code == 3

    def test_every_suite_is_a_choice(self, monkeypatch):
        import pooltrial.diagnostics as diag

        ran = []

        def fake_suite(name, seed, reps, oracle_n):
            ran.append(name)
            return {}, True

        monkeypatch.setattr(diag, "run_suite", fake_suite)
        assert main(["check"]) == 0
        for name in diag.SUITES:
            assert main(["check", "--suite", name]) == 0
        assert ran == [*diag.SUITES, *diag.SUITES]

    def test_insufficient_clt_sample_is_strict_json(self, tmp_path):
        # one replication leaves the normality statistics undefined
        out = tmp_path / "chk"
        code = main(
            ["check", "--suite", "clt", "--reps", "1", "--oracle-n", "2000",
             "--out", str(out)]
        )
        assert code == 3

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads((out / "check.json").read_text(), parse_constant=reject)
        assert report["clt"]["passed"] is False
        assert report["clt"]["ks_stat"] is None


def test_cli_import_leaves_out_diagnostics():
    # every CLI start pays for this import; scipy.stats alone would about
    # double its time and memory, so only `check` loads the suites
    code = (
        "import sys, pooltrial.cli; "
        "print([m for m in ('scipy.stats', 'pooltrial.diagnostics') if m in sys.modules])"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


class TestEstimateRejectsBadInput:
    @pytest.fixture()
    def sim_dir(self, tiny_config_file, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", tiny_config_file, "--out", str(out)]) == 0
        return out

    def test_truncated_csv_exits_1(self, sim_dir, tmp_path):
        path = sim_dir / "trajectories.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-3]))
        code = main(["estimate", "--in", str(sim_dir), "--out", str(tmp_path / "e")])
        assert code == 1
        assert not (tmp_path / "e" / "estimate.json").exists()

    @pytest.mark.parametrize(
        "manifest",
        ['{"config": ', json.dumps({"command": "check", "suite": "all", "reps": 40})],
        ids=["malformed", "no_config"],
    )
    def test_bad_manifest_exits_1(self, manifest, sim_dir, tmp_path, capsys):
        (sim_dir / "manifest.json").write_text(manifest)
        code = main(["estimate", "--in", str(sim_dir), "--out", str(tmp_path / "e")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not (tmp_path / "e" / "estimate.json").exists()

    def test_header_only_csv_exits_1(self, sim_dir, tmp_path, capsys):
        path = sim_dir / "trajectories.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        code = main(["estimate", "--in", str(sim_dir), "--out", str(tmp_path / "e")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not (tmp_path / "e" / "estimate.json").exists()

    def test_tampered_action_prob_exits_1(self, sim_dir, tmp_path):
        path = sim_dir / "trajectories.csv"
        header, *lines = path.read_text().splitlines()
        fields = lines[3].split(",")  # user 0, t = 4
        fields[-1] = "0.5" if fields[-1] != "0.5" else "0.55"
        lines[3] = ",".join(fields)
        path.write_text("\n".join([header] + lines) + "\n")
        code = main(["estimate", "--in", str(sim_dir), "--out", str(tmp_path / "e")])
        assert code == 1
        assert not (tmp_path / "e" / "estimate.json").exists()
