import argparse
import json
import logging
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
from pooltrial.cli import build_parser, main
from pooltrial.config import load_config, manifest_config, parse_config
from pooltrial.errors import PoolTrialError

from oracles import dense_stacked_oracle, realised_format
from test_golden import MC_CONFIG

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
            "trial: {horizon_T: 3}\npolicy: {kind: mirror_descent, eta: [0.5, 0.5, 0.5]}",
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
            "stacked_dim",
        ):
            assert key in report
        assert "equivalence_gap" not in report
        assert "policy_invariance_norms" not in report
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

    def test_logs_one_line_per_cell_in_run_order(self, tmp_path, caplog):
        config = tmp_path / "grid.yaml"
        config.write_text(yaml.safe_dump(MC_CONFIG))
        out = tmp_path / "mc"
        caplog.set_level(logging.INFO, logger="pooltrial")
        code = main(
            ["mc", "--config", str(config), "--reps", "10", "--oracle-n", "2000",
             "--out", str(out)]
        )
        assert code == 0
        got = [
            (r.name, r.levelno, r.getMessage())
            for r in caplog.records
            if r.getMessage().startswith("cell ")
        ]
        want = [  # table.json's rows, in the sorted order, which is the run order here
            ("pooltrial", logging.INFO,
             f"cell kappa1={c['kappa1']:g} rho={c['rho']:g} n={c['n']}: "
             f"sandwich {c['coverage_sandwich']:.4f} ({c['mc_se_sandwich']:.4f}) "
             f"adaptive {c['coverage_adaptive']:.4f} ({c['mc_se_adaptive']:.4f}) "
             f"aborted={c['reps_aborted']}")
            for c in json.loads((out / "table.json").read_text())
        ]
        assert got == want
        assert [m.split(":")[0] for _, _, m in got] == [
            f"cell kappa1=2 rho={rho} n={n}" for rho in (0.5, 5) for n in (40, 60)
        ]

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


# config_to_raw of TINY_CONFIG, every default filled in, at master seed 9
TINY_RAW = {
    "trial": {"n_users": 40, "horizon_T": 6, "state_dim": 2, "master_seed": 9},
    "policy": {"kind": "boltzmann", "rho": 2.0, "pi_min": 0.1, "eta": None},
    "env": {"kappa0": 0.0, "kappa1": 2.0, "kappa2": 0.0, "gamma": 0.95,
            "error_corr_base": 0.5},
}


class TestManifests:
    """Each command's manifest.json, without the python, numpy and scipy
    versions (and estimate's absolute input path), as recorded."""

    RECORDED = {
        "simulate": {"command": "simulate", "config": TINY_RAW, "master_seed": 9,
                     "rep_index": 2},
        "estimate": {"command": "estimate", "config": TINY_RAW, "master_seed": 9,
                     "alpha": 0.1, "variance": "sandwich"},
        "mc": {"command": "mc", "config": TINY_RAW, "master_seed": 9,
               "grid": {"kappa1": [2.0], "rho": [2.0], "n_users": [40]},
               "reps": 2, "oracle_n": 200, "alpha": 0.05},
        "check": {"command": "check", "suite": "clt", "reps": 5, "oracle_n": 300,
                  "master_seed": 11},
    }

    @pytest.mark.parametrize("command", sorted(RECORDED))
    def test_manifest_is_recorded(self, command, tiny_config_file, tmp_path, monkeypatch):
        import pooltrial.diagnostics as diag

        monkeypatch.setattr(diag, "run_suite", lambda *args: ({}, True))
        sim_dir = tmp_path / "simulate"
        args = {
            "simulate": ["--config", tiny_config_file, "--seed", "9", "--rep", "2"],
            "estimate": ["--in", str(sim_dir), "--alpha", "0.1", "--variance", "sandwich"],
            "mc": ["--config", tiny_config_file, "--seed", "9", "--reps", "2",
                   "--oracle-n", "200"],
            "check": ["--suite", "clt", "--reps", "5", "--oracle-n", "300", "--seed", "11"],
        }
        if command == "estimate":
            assert main(["simulate", *args["simulate"], "--out", str(sim_dir)]) == 0
        out = tmp_path / command
        assert main([command, *args[command], "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for key in ("python_version", "numpy_version", "scipy_version"):
            manifest.pop(key)
        if command == "estimate":
            assert manifest.pop("input") == os.path.abspath(sim_dir)
        assert manifest == {"package_version": "0.1.0", **self.RECORDED[command]}


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
            ("check", ["--reps", "1000001"]),
            # 1 - alpha/2 rounds to 1.0: an infinite normal quantile
            ("mc", ["--alpha", "1e-20"]),
            ("estimate", ["--alpha", "1e-20"]),
        ],
    )
    def test_exits_1_without_output(self, command, flags, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        args = {
            "mc": ["--config", tiny_config_file],
            "estimate": ["--in", str(tmp_path), "--config", tiny_config_file],
            "check": ["--suite", "clt"],
        }[command]
        assert main([command, *args, *flags, "--out", str(out)]) == 1
        assert not out.exists()
        assert f"argument {flags[0]}: must be" in capsys.readouterr().err

    def test_alpha_limit_is_where_the_quantile_turns_infinite(self):
        parse = build_parser().parse_args
        args = ["mc", "--config", "c", "--out", "o", "--alpha"]
        assert parse([*args, repr(2.0**-52)]).alpha == 2.0**-52
        with pytest.raises(PoolTrialError, match="2\\*\\*-53"):
            parse([*args, repr(2.0**-53)])

    def test_verbose_is_not_an_option(self, tiny_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--verbose", "mc", "--config", tiny_config_file, "--out", str(out)]) == 1
        assert not out.exists()
        assert "unrecognized arguments: --verbose" in capsys.readouterr().err


class TestBadPaths:
    """A config file or an output path the commands cannot use exits 1 with
    an error naming it, not a traceback, and writes nothing."""

    @pytest.mark.parametrize("command", ["simulate", "mc", "estimate"])
    def test_non_utf8_config_exits_1(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"trial: {n_users: 20}  # \xff\n")
        out = tmp_path / "o"
        args = ["--in", str(tmp_path)] if command == "estimate" else []
        code = main([command, *args, "--config", str(path), "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert lines[0].startswith(f"error: malformed config {path}: "), lines
        assert not out.exists()

    def test_unreadable_config_names_its_path_once(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.mkdir()  # exists, but cannot be read as a file
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read config {path}: Is a directory\n"
        assert not out.exists()

    def test_unreadable_manifest_names_its_path_once(self, tmp_path, capsys):
        missing = tmp_path / "no_such_dir"
        out = tmp_path / "o"
        assert main(["estimate", "--in", str(missing), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        path = missing / "manifest.json"
        assert err == f"error: cannot read manifest {path}: No such file or directory\n"
        assert not out.exists()

    @pytest.mark.parametrize("target", ["file", "under_file", "empty"])
    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "--config", "paper_table1"],
            ["check", "--suite", "clt", "--reps", "3"],
            ["mc", "--config", "paper_table1", "--reps", "3"],
            ["estimate", "--in", "missing"],
        ],
        ids=["simulate", "check", "mc", "estimate"],
    )
    def test_out_that_cannot_be_a_directory_exits_1(
        self, command, target, tmp_path, monkeypatch, capsys
    ):
        # checked before any work: the commands' work functions never run.
        # "" resolves to the working directory, but makedirs("") fails
        import pooltrial.cli as cli
        import pooltrial.diagnostics as diagnostics

        calls = []
        for module, name in [(cli, "run_trial"), (cli, "fit_theta"),
                             (cli, "run_grid"), (diagnostics, "run_suite")]:
            monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(args))
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        monkeypatch.chdir(tmp_path)
        out = {"file": blocker, "under_file": blocker / "out", "empty": ""}[target]
        assert main([*command, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {out}: "), err
        assert calls == []
        assert blocker.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_out_under_an_unwritable_directory_exits_1(
        self, tmp_path, monkeypatch, capsys
    ):
        # root passes every permission bit, so os.access stands in for a
        # directory the user cannot write
        import pooltrial.diagnostics as diagnostics

        calls = []
        monkeypatch.setattr(
            diagnostics, "run_suite", lambda *args, **kw: calls.append(args)
        )
        real_access = os.access
        monkeypatch.setattr(
            os, "access",
            lambda path, mode: path != str(tmp_path) and real_access(path, mode),
        )
        out = tmp_path / "new"
        command = ["check", "--suite", "clt", "--reps", "3", "--out", str(out)]
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {out}: "), err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_out_under_a_missing_directory_is_created(self, tmp_path):
        out = tmp_path / "a" / "b"
        assert main(["simulate", "--config", "paper_table1", "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()


class TestCheck:
    def test_oracle_n_reaches_clt(self, monkeypatch, tmp_path):
        import pooltrial.diagnostics as diag

        seen = []

        def fake_oracle(config, oracle_n, n_oracles):
            seen.append(oracle_n)
            return np.zeros(3)

        def fake_check(config, reps, theta_star):
            return {"reps": reps, "passed": True}

        monkeypatch.setattr(diag, "averaged_theta_star", fake_oracle)
        monkeypatch.setattr(diag, "clt_check", fake_check)
        out = tmp_path / "chk"
        code = main(
            ["check", "--suite", "clt", "--oracle-n", "20000", "--out", str(out)]
        )
        assert code == 0
        assert seen == [20000]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["oracle_n"] == 20000

    def test_removed_bernstein_suite_exits_1(self, tmp_path, capsys):
        # the tail-bound and V_hat sensitivity suites are both gone
        out = tmp_path / "chk"
        for suite in ("bernstein", "invariance"):
            assert main(["check", "--suite", suite, "--out", str(out)]) == 1
            assert not out.exists()
            err = capsys.readouterr().err
            assert f"argument --suite: invalid choice: '{suite}'" in err

    def test_suite_choices_are_the_diagnostics_suites(self):
        from pooltrial.diagnostics import SUITES

        commands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        suite = next(a for a in commands.choices["check"]._actions if a.dest == "suite")
        assert suite.choices == [*SUITES, "all"]

    def test_failure_exits_3(self, monkeypatch, tmp_path):
        import pooltrial.diagnostics as diag

        def fake_check(config, reps, theta_star):
            return {"reps": reps, "passed": False}

        monkeypatch.setattr(diag, "averaged_theta_star", lambda *args: np.zeros(3))
        monkeypatch.setattr(diag, "clt_check", fake_check)
        out = tmp_path / "chk"
        code = main(["check", "--suite", "clt", "--reps", "5", "--out", str(out)])
        assert code == 3
        report = json.loads((out / "check.json").read_text())
        assert report == {"clt": {"reps": 5, "passed": False}}

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
    # double its time and memory, so only `check` loads the suites; the
    # package's solves are numpy's, so nothing loads scipy.linalg; the
    # logistic is numpy's exp and the normal quantile the standard library's,
    # so nothing loads scipy.special, which costs more than numpy itself
    absent = ("scipy.stats", "scipy.linalg", "scipy.special", "pooltrial.diagnostics")
    code = f"import sys, pooltrial.cli; print([m for m in {absent} if m in sys.modules])"
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

    @pytest.mark.parametrize("edit", ["missing", "header_only"])
    def test_csv_error_names_the_file_once(self, edit, sim_dir, tmp_path, capsys):
        path = sim_dir / "trajectories.csv"
        if edit == "missing":
            path.unlink()
        else:
            path.write_text(path.read_text().splitlines()[0] + "\n")
        code = main(["estimate", "--in", str(sim_dir), "--out", str(tmp_path / "e")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), lines
        assert lines[0].count("trajectories.csv") == 1, lines

    @pytest.mark.parametrize(
        "edit",
        [lambda lines: lines[:1] + ["# edited by hand"] + lines[1:],
         lambda lines: lines[:-1] + [lines[-1] + "#junk"]],
        ids=["comment_line", "trailing_comment"],
    )
    def test_hash_in_csv_exits_1(self, edit, sim_dir, tmp_path, capsys):
        path = sim_dir / "trajectories.csv"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        code = main(["estimate", "--in", str(sim_dir), "--out", str(tmp_path / "e")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), lines
        assert not (tmp_path / "e" / "estimate.json").exists()

    def test_realised_action_probability_exits_1(self, sim_dir, tmp_path, capsys):
        # a file in the earlier format: action_prob held the realised
        # action's probability, which differs from p1 wherever an action is 0
        config = manifest_config(sim_dir)
        realised_format(TrajectorySet.load(sim_dir, config)).save(sim_dir)
        code = main(["estimate", "--in", str(sim_dir), "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: stored action_prob of user "), err
        assert "does not match its replay" in err
        assert not (tmp_path / "e").exists()

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
