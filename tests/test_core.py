import numpy as np
import pytest

from pooltrial import (
    EnvConfig,
    PolicySpec,
    SeedPlan,
    TrajectorySet,
    TrialConfig,
    derive_stream,
    run_trial,
)
from pooltrial.errors import ConfigError, DataIntegrityError
from pooltrial.simulator import replay_action_probs, run_trials

FIELDS = ("states", "actions", "rewards", "action_probs", "beta_hats")


class TestDeriveStream:
    def test_same_plan_same_label_identical(self):
        a = derive_stream(SeedPlan(1, 0), "errors").random(1000)
        b = derive_stream(SeedPlan(1, 0), "errors").random(1000)
        assert np.array_equal(a, b)

    def test_different_rep_differs(self):
        a = derive_stream(SeedPlan(1, 0), "errors").random(10_000)
        b = derive_stream(SeedPlan(1, 1), "errors").random(10_000)
        assert np.any(a != b)

    def test_label_separation(self):
        a = derive_stream(SeedPlan(1, 0), "errors").random(10_000)
        b = derive_stream(SeedPlan(1, 0), "actions").random(10_000)
        assert np.any(a != b)

    def test_unknown_label_rejected(self):
        for label in ("bootstrap", "init"):
            with pytest.raises(ConfigError):
                derive_stream(SeedPlan(1, 0), label)

    def test_master_seed_separation(self):
        a = derive_stream(SeedPlan(1, 0), "errors").random(100)
        b = derive_stream(SeedPlan(2, 0), "errors").random(100)
        assert np.any(a != b)


class TestConfigValidation:
    def test_pi_min_out_of_range(self):
        with pytest.raises(ConfigError):
            PolicySpec(kind="boltzmann", pi_min=0.6)

    def test_negative_rho(self):
        with pytest.raises(ConfigError):
            PolicySpec(kind="boltzmann", rho=-1.0)

    def test_small_n_users(self):
        with pytest.raises(ConfigError):
            TrialConfig(n_users=1, horizon_T=5, policy=PolicySpec())

    def test_short_horizon(self):
        with pytest.raises(ConfigError):
            TrialConfig(n_users=10, horizon_T=1, policy=PolicySpec())

    def test_gamma_bounds(self):
        with pytest.raises(ConfigError):
            EnvConfig(gamma=1.0)

    def test_corr_base_bounds(self):
        with pytest.raises(ConfigError):
            EnvConfig(error_corr_base=1.0)
        EnvConfig(error_corr_base=0.0)  # documented i.i.d. limit

    def test_mirror_descent_needs_eta(self):
        with pytest.raises(ConfigError):
            PolicySpec(kind="mirror_descent")

    def test_dims(self):
        cfg = TrialConfig(n_users=10, horizon_T=5, policy=PolicySpec())
        assert cfg.policy_dim == 4
        assert cfg.theta_dim == 3


class TestTrajectorySet:
    def test_action_prob_range_enforced(self, small_trajset):
        pmin = small_trajset.config.policy.pi_min
        assert small_trajset.action_probs.min() >= pmin
        assert small_trajset.action_probs.max() <= 1 - pmin

    def test_corrupt_probs_rejected(self, small_trajset):
        bad = np.array(small_trajset.action_probs)
        bad[0, 1] = 0.01
        with pytest.raises(DataIntegrityError):
            TrajectorySet(
                states=small_trajset.states,
                actions=small_trajset.actions,
                rewards=small_trajset.rewards,
                action_probs=bad,
                beta_hats=small_trajset.beta_hats,
                config=small_trajset.config,
            )

    def test_nan_prob_rejected(self, small_trajset):
        bad = np.array(small_trajset.action_probs)
        bad[3, 2] = np.nan
        with pytest.raises(DataIntegrityError):
            TrajectorySet(
                states=small_trajset.states,
                actions=small_trajset.actions,
                rewards=small_trajset.rewards,
                action_probs=bad,
                beta_hats=small_trajset.beta_hats,
                config=small_trajset.config,
            )

    @pytest.mark.parametrize("name", ["states", "rewards", "beta_hats"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, small_trajset, name, value):
        fields = {
            f: np.array(getattr(small_trajset, f))
            for f in ("states", "actions", "rewards", "action_probs", "beta_hats")
        }
        fields[name].flat[5] = value
        with pytest.raises(DataIntegrityError, match=name):
            TrajectorySet(**fields, config=small_trajset.config)

    @pytest.mark.parametrize("name", ["states", "rewards", "action_probs", "beta_hats"])
    def test_mismatched_leading_axes_rejected(self, small_config, name):
        batch, _ = run_trials(small_config, [SeedPlan(1, rep) for rep in range(3)])
        fields = {f: getattr(batch, f) for f in FIELDS}
        fields[name] = fields[name][:2]
        with pytest.raises(DataIntegrityError, match=name):
            TrajectorySet(**fields, config=small_config)

    @pytest.mark.parametrize("name", ["states", "rewards", "action_probs", "beta_hats"])
    def test_non_finite_in_one_replication_rejected(self, small_config, name):
        batch, _ = run_trials(small_config, [SeedPlan(1, rep) for rep in range(3)])
        fields = {f: np.array(getattr(batch, f)) for f in FIELDS}
        fields[name][2].flat[-1] = np.nan
        with pytest.raises(DataIntegrityError, match=name):
            TrajectorySet(**fields, config=small_config)

    def test_immutable(self, small_trajset):
        with pytest.raises(ValueError):
            small_trajset.rewards[0, 0] = 1.0

    def test_replay_bit_identical(self, small_trajset):
        replayed = replay_action_probs(small_trajset)
        assert np.array_equal(replayed, small_trajset.action_probs)

    def test_states_have_unit_intercept(self, small_trajset):
        assert np.all(small_trajset.states[:, :, 0] == 1.0)

    def test_serialization_roundtrip(self, small_trajset, tmp_path):
        small_trajset.save(tmp_path)
        loaded = TrajectorySet.load(tmp_path, small_trajset.config)
        assert np.array_equal(loaded.states, small_trajset.states)
        assert np.array_equal(loaded.actions, small_trajset.actions)
        assert np.array_equal(loaded.rewards, small_trajset.rewards)
        assert np.array_equal(loaded.action_probs, small_trajset.action_probs)
        assert np.array_equal(loaded.beta_hats, small_trajset.beta_hats)
        # replay through the policy map still reproduces probs exactly
        assert np.array_equal(
            replay_action_probs(loaded), small_trajset.action_probs
        )

    def test_seed_plan_validation(self):
        with pytest.raises(ConfigError):
            SeedPlan(-1, 0)
        with pytest.raises(ConfigError):
            SeedPlan(1, -3)


def _edit_csv(directory, edit):
    """Rewrite trajectories.csv as ``edit(header, rows)`` (rows as field lists)."""
    path = directory / "trajectories.csv"
    header, *lines = path.read_text().splitlines()
    rows = edit(header, [line.split(",") for line in lines])
    path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")


class TestLoadIntegrity:
    """Bad trajectory files fail at the load boundary with DataIntegrityError."""

    @pytest.fixture()
    def saved(self, small_trajset, tmp_path):
        small_trajset.save(tmp_path)
        return tmp_path

    def load(self, directory, small_trajset):
        return TrajectorySet.load(directory, small_trajset.config)

    def test_missing_rows(self, saved, small_trajset):
        _edit_csv(saved, lambda h, rows: rows[:-3])
        with pytest.raises(DataIntegrityError, match="exactly once"):
            self.load(saved, small_trajset)

    def test_missing_whole_user(self, saved, small_trajset):
        T = small_trajset.horizon_T
        _edit_csv(saved, lambda h, rows: rows[:-T])
        with pytest.raises(DataIntegrityError, match="exactly once"):
            self.load(saved, small_trajset)

    def test_duplicated_row(self, saved, small_trajset):
        _edit_csv(saved, lambda h, rows: rows[:-1] + [rows[0]])
        with pytest.raises(DataIntegrityError, match="exactly once"):
            self.load(saved, small_trajset)

    def test_truncated_last_line(self, saved, small_trajset):
        _edit_csv(saved, lambda h, rows: rows[:-1] + [rows[-1][:3]])
        with pytest.raises(DataIntegrityError):
            self.load(saved, small_trajset)

    @pytest.mark.parametrize("name", ["trajectories.csv", "beta_hats.csv"])
    def test_header_only_file(self, saved, small_trajset, name):
        path = saved / name
        path.write_text(path.read_text().splitlines()[0] + "\n")
        with pytest.raises(DataIntegrityError, match=f"{name}: .*no data"):
            self.load(saved, small_trajset)

    def test_missing_sidecar(self, saved, small_trajset):
        (saved / "beta_hats.csv").unlink()
        with pytest.raises(DataIntegrityError, match="beta_hats.csv"):
            self.load(saved, small_trajset)

    def test_non_binary_action(self, saved, small_trajset):
        def edit(header, rows):
            rows[5][header.split(",").index("action")] = "2"
            return rows

        _edit_csv(saved, edit)
        with pytest.raises(DataIntegrityError, match="actions"):
            self.load(saved, small_trajset)

    def test_tampered_action_prob(self, saved, small_trajset):
        # an in-range edit at t = 4 that only the policy replay can detect
        stored = small_trajset.action_probs[0, 3]
        tampered = 0.5 if abs(stored - 0.5) > 0.05 else stored + 0.05

        def edit(header, rows):
            rows[3][header.split(",").index("action_prob")] = repr(tampered)
            return rows

        _edit_csv(saved, edit)
        with pytest.raises(DataIntegrityError, match="user 0 at t=4"):
            self.load(saved, small_trajset)

    def test_order_of_rows_is_free(self, saved, small_trajset):
        _edit_csv(saved, lambda h, rows: rows[::-1])
        loaded = self.load(saved, small_trajset)
        assert np.array_equal(loaded.action_probs, small_trajset.action_probs)
