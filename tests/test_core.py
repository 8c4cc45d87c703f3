import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import realised_format, repr_csv_oracle

from pooltrial import (
    EnvConfig,
    PolicySpec,
    SeedPlan,
    TrajectorySet,
    TrialConfig,
    derive_stream,
    fit_theta,
    run_trial,
    variance_report,
    weight_products,
)
from pooltrial import core
from pooltrial.core import write_csv
from pooltrial.errors import ConfigError, DataIntegrityError
from pooltrial.policies import policy_path
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

    def test_numpy_scalars_stored_as_python_scalars(self):
        cfg = TrialConfig(
            n_users=np.int64(10),
            horizon_T=np.int32(5),
            master_seed=np.uint64(7),
            policy=PolicySpec(rho=np.float64(2.0), pi_min=np.float32(0.25)),
            env=EnvConfig(kappa0=np.int64(1), kappa1=np.float64(2.0)),
        )
        assert [type(cfg.n_users), type(cfg.horizon_T), type(cfg.master_seed)] == [int] * 3
        assert [type(cfg.policy.rho), type(cfg.policy.pi_min)] == [float] * 2
        assert {type(getattr(cfg.env, f)) for f in ("kappa0", "kappa1", "gamma")} == {float}
        assert (cfg.policy.pi_min, cfg.env.kappa0) == (0.25, 1.0)


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

    @pytest.mark.parametrize("value", [2, -1, 0.5, np.nan])
    def test_non_binary_action_rejected(self, small_trajset, value):
        fields = {f: np.array(getattr(small_trajset, f)) for f in FIELDS}
        fields["actions"] = fields["actions"].astype(float)
        fields["actions"].flat[5] = value
        with pytest.raises(DataIntegrityError, match="actions must be 0 or 1"):
            TrajectorySet(**fields, config=small_trajset.config)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_float_or_bool_actions_estimate_as_int8(self, small_config, dtype):
        batch, _ = run_trials(small_config, [SeedPlan(1, rep) for rep in range(3)])
        fields = {f: getattr(batch, f) for f in FIELDS}
        fields["actions"] = fields["actions"].astype(dtype)
        ts = TrajectorySet(**fields, config=small_config)
        assert ts.actions.dtype == np.int8
        assert ts.actions.tobytes() == batch.actions.tobytes()
        got, want = (variance_report(t, fit_theta(t), 0.05) for t in (ts, batch))
        for name, value in vars(want).items():
            if isinstance(value, np.ndarray):
                assert getattr(got, name).tobytes() == value.tobytes(), name

    def test_rows_are_read_only_views_of_the_batch(self, small_config):
        batch, _ = run_trials(small_config, [SeedPlan(1, rep) for rep in range(3)])
        for r in range(3):
            row = batch[r]
            for f in FIELDS:
                arr, whole = getattr(row, f), getattr(batch, f)
                assert arr.shape == whole.shape[1:]
                assert arr.tobytes() == whole[r].tobytes()
                assert arr.flags.c_contiguous and not arr.flags.writeable
            assert row.config is batch.config

    def test_trajectory_without_replication_axis_has_no_rows(self, small_trajset):
        with pytest.raises(DataIntegrityError, match="replication axis"):
            small_trajset[0]

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

    def test_batch_save_rejected_before_writing(self, small_config, tmp_path):
        batch, _ = run_trials(small_config, [SeedPlan(1, rep) for rep in range(2)])
        out = tmp_path / "out"
        with pytest.raises(DataIntegrityError, match="batch"):
            batch.save(out)
        assert not out.exists()
        batch[1].save(out)  # one replication of it saves
        assert TrajectorySet.load(out, small_config).rewards.tobytes() == (
            batch.rewards[1].tobytes()
        )

    def test_edge_values_round_trip_bit_for_bit(self, tmp_path):
        # constant_uniform replays 0.5 whatever the states and fits, so the
        # load's replay check holds for hand-picked rewards
        n, T = 2, 3
        config = TrialConfig(
            n_users=n, horizon_T=T, policy=PolicySpec(kind="constant_uniform")
        )
        rewards = np.array([[-0.0, 5e-324, 1e-05], [1e16, 0.0, -5e-324]])
        states = np.ones((n, T, 2))
        states[:, 1:, 1] = rewards[:, :-1]
        ts = TrajectorySet(
            states=states, actions=np.array([[0, 1, 1], [1, 0, 0]], dtype=np.int8),
            rewards=rewards, action_probs=np.full((n, T), 0.5),
            beta_hats=np.array([[-0.0, 1e16, 5e-324, 1e-05]] * (T - 1)), config=config,
        )
        ts.save(tmp_path)
        loaded = TrajectorySet.load(tmp_path, config)
        for f in FIELDS:
            assert getattr(loaded, f).tobytes() == getattr(ts, f).tobytes(), f

    def test_save_peak_memory(self, tmp_path):
        # save formats CSV_BLOCK_ROWS rows at a time, so its traced peak is
        # the ~12 (n T) float buffers of its columns and one block's strings
        # (n T = 25,000 rows here); formatting the whole file at once takes
        # ~50, and a list of every value, as the per-value writer made, ~23
        n, T = 500, 50
        config = TrialConfig(
            n_users=n, horizon_T=T, master_seed=1,
            policy=PolicySpec(kind="boltzmann", rho=5.0), env=EnvConfig(kappa1=5.0),
        )
        ts = run_trial(config, SeedPlan(1, 0))
        tracemalloc.start()
        try:
            ts.save(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * T * 8

    def test_seed_plan_validation(self):
        # out of range, or not an integer (a bool or float is not one)
        bad = [(-1, 0), (1, -3), (2**64, 0), (0, 1.5), (0, True), (0.9, 1),
               (0, 1.0), (False, 1), ("3", 1), (0, None)]
        for seed, rep in bad:
            with pytest.raises(ConfigError, match="must be"):
                SeedPlan(seed, rep)
        plan = SeedPlan(np.int64(3), np.int64(1))
        assert type(plan.master_seed) is int and type(plan.rep_index) is int
        assert plan == SeedPlan(3, 1)
        for label in core.STREAM_LABELS:
            want = derive_stream(SeedPlan(3, 1), label).random(4)
            assert derive_stream(plan, label).random(4).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "name, column",
        [("trajectories.csv", c) for c in
         ("user", "t", "state_0", "state_1", "action", "reward", "action_prob")]
        + [("beta_hats.csv", c) for c in ("t", "b_0", "b_1", "b_2", "b_3")],
    )
    def test_non_finite_field_rejected(self, saved, small_trajset, name, column, value):
        path = saved / name
        header, *lines = path.read_text().splitlines()
        row = lines[1].split(",")
        row[header.split(",").index(column)] = value
        lines[1] = ",".join(row)
        path.write_text("\n".join([header, *lines]) + "\n")
        with pytest.raises(DataIntegrityError, match=f"{name}: non-finite"):
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

    def test_realised_action_probability_rejected(self, small_trajset, tmp_path):
        # the earlier column, the realised action's probability, differs from
        # p1 at the first row whose action is 0 and whose p1 is not 0.5
        old = realised_format(small_trajset)
        i, t = np.argwhere(old.action_probs != small_trajset.action_probs)[0]
        old.save(tmp_path)
        with pytest.raises(DataIntegrityError, match=f"user {i} at t={t + 1} "):
            self.load(tmp_path, small_trajset)

    def test_order_of_rows_is_free(self, saved, small_trajset):
        _edit_csv(saved, lambda h, rows: rows[::-1])
        loaded = self.load(saved, small_trajset)
        assert np.array_equal(loaded.action_probs, small_trajset.action_probs)

    def test_comment_line_rejected(self, saved, small_trajset):
        _edit_csv(saved, lambda h, rows: [["# edited by hand"]] + rows)
        with pytest.raises(DataIntegrityError, match="trajectories.csv"):
            self.load(saved, small_trajset)

    def test_trailing_comment_rejected(self, saved, small_trajset):
        def edit(header, rows):
            rows[-1][-1] += "#junk"
            return rows

        _edit_csv(saved, edit)
        with pytest.raises(DataIntegrityError, match="trajectories.csv"):
            self.load(saved, small_trajset)


MIRROR = TrialConfig(
    n_users=40, horizon_T=6, master_seed=7, env=EnvConfig(kappa1=2.0),
    policy=PolicySpec(kind="mirror_descent", eta=0.5, pi_min=0.1),
)
KINDS = {
    "boltzmann": PolicySpec(kind="boltzmann", rho=5.0),
    "mirror_descent": MIRROR.policy,
    "constant_uniform": PolicySpec(kind="constant_uniform"),
}


class TestOnePolicySweep:
    """A trajectory's policy is swept once after the simulation, by the load's
    replay check; the weight gradients read the stored action-1 probability
    and sweep nothing."""

    @pytest.fixture()
    def sweeps(self, monkeypatch):
        """The policy_path calls through any module, as their column counts."""
        calls = []

        def spy(spec, states, beta_hats):
            calls.append(np.shape(states)[-2])
            return policy_path(spec, states, beta_hats)

        for name, module in list(sys.modules.items()):
            if name.startswith("pooltrial") and hasattr(module, "policy_path"):
                monkeypatch.setattr(module, "policy_path", spy)
        return calls

    def test_load_and_estimate_sweep_once(self, tmp_path, sweeps):
        ts = run_trial(MIRROR, SeedPlan(7, 0))
        assert sweeps == [1] * MIRROR.horizon_T  # the step loop's columns
        ts.save(tmp_path)
        sweeps.clear()
        loaded = TrajectorySet.load(tmp_path, MIRROR)
        est = fit_theta(loaded)
        variance_report(loaded, est, which="both")
        assert sweeps == [MIRROR.horizon_T]

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_simulated_batch_estimates_without_a_sweep(self, kind, sweeps):
        config = MIRROR.replace(policy=KINDS[kind])
        batch, errors = run_trials(config, [SeedPlan(7, rep) for rep in range(3)])
        assert errors == [None] * 3
        sweeps.clear()
        est = fit_theta(batch)
        variance_report(batch, est, which="both")
        assert sweeps == []

    def test_loaded_weight_products_bit_identical(self, tmp_path):
        ts = run_trial(MIRROR, SeedPlan(7, 1))
        ts.save(tmp_path)
        loaded = TrajectorySet.load(tmp_path, MIRROR)
        assert weight_products(loaded).tobytes() == weight_products(ts).tobytes()

    def test_sweep_peak_memory(self):
        # the load check's replay of a Boltzmann batch of the cell_n50_T50
        # shape: its traced peak is ~2.56 (R n T) float buffers (beta1' s with
        # one term's product, then the logistic's output and the time-1
        # concatenate); the logistic and the clip run in place; a clip into
        # a new array makes it ~3.56
        R, n, T = 10, 50, 50
        config = TrialConfig(
            n_users=n, horizon_T=T, master_seed=3,
            policy=PolicySpec(kind="boltzmann", rho=5.0), env=EnvConfig(kappa1=5.0),
        )
        batch, errors = run_trials(config, [SeedPlan(3, rep) for rep in range(R)])
        assert errors == [None] * R
        tracemalloc.start()
        try:
            replay_action_probs(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * R * n * T * 8

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_batch_rows_sweep_to_their_own_path(self, kind):
        config = MIRROR.replace(policy=KINDS[kind])
        batch, _ = run_trials(config, [SeedPlan(7, rep) for rep in range(3)])
        replayed = replay_action_probs(batch)
        for r in range(3):
            row = batch[r]
            want = replay_action_probs(row)
            assert replayed[r].tobytes() == want.tobytes()
            assert row.action_probs.tobytes() == want.tobytes()


def _csv_pair(tmp_path, header, columns):
    """Bytes of ``write_csv`` and of the per-value oracle on ``columns``
    (numpy columns go to the oracle as their lists, as save once passed them)."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(got, header, columns)
    repr_csv_oracle(
        want, header, [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    )
    return got.read_bytes(), want.read_bytes()


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


class TestWriteCsv:
    """write_csv writes the bytes of one repr per value, the oracle's form."""

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0, 1.0, -0.0, 0.0],
            [np.nan, np.inf, -np.inf, -np.nan, _nan(0x7FF8000000000001), 2.0],
            [5e-324, 1.7976931348623157e308, -5e-324, -1.7976931348623157e308],
            [1e-05, 0.0001, 1e16, 9999999999999998.0, 1e-05, 1e16],
        ],
        ids=["signed_zeros", "nan_inf", "extremes", "repr_switch_points"],
    )
    def test_float_column(self, tmp_path, values):
        col = np.array(values)
        got, want = _csv_pair(tmp_path, ["x", "y"], [col, col[::-1].copy()])
        assert got == want

    def test_signed_zeros_stay_apart(self, tmp_path):
        got, _ = _csv_pair(tmp_path, ["x"], [np.array([0.0, -0.0, 0.0])])
        assert got == b"x\n0.0\n-0.0\n0.0\n"

    def test_value_shared_by_two_float_columns(self, tmp_path):
        a, b = np.array([0.1, 2.5, 0.1]), np.array([2.5, 0.1, -0.1])
        got, want = _csv_pair(tmp_path, ["a", "b"], [a, b])
        assert got == want == b"a,b\n0.1,2.5\n2.5,0.1\n0.1,-0.1\n"

    def test_integer_and_bool_columns(self, tmp_path):
        columns = [
            np.array([1, 0, -128, 127, 1], dtype=np.int8),
            np.array([2**63 - 1, -(2**63), 0, 7, 7], dtype=np.int64),
            np.array([True, False, False, True, True]),
            np.array([0.5, -0.0, 1.0, 0.5, 3.0]),
        ]
        got, want = _csv_pair(tmp_path, ["i8", "i64", "b", "f"], columns)
        assert got == want

    def test_zero_rows(self, tmp_path):
        got, want = _csv_pair(tmp_path, ["x", "y"], [np.empty(0), np.empty(0, np.int64)])
        assert got == want == b"x,y\n"

    def test_block_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "CSV_BLOCK_ROWS", 3)
        rewards = np.array([0.25, -0.0, 0.0, 1e16, 0.25, 0.25, -0.0, 1e-05, 0.0, 7.5])
        columns = [np.arange(10), np.ones(10), np.roll(rewards, 1), rewards, np.full(10, 0.5)]
        got, want = _csv_pair(tmp_path, ["t", "s0", "s1", "r", "p"], columns)
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(
        bits=st.lists(st.integers(0, 2**64 - 1), max_size=40),
        block_rows=st.integers(1, 8),
    )
    def test_random_bit_patterns(self, tmp_path_factory, bits, block_rows):
        col = np.array(bits, dtype=np.uint64).view(np.float64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "CSV_BLOCK_ROWS", block_rows)
            got, want = _csv_pair(
                tmp_path_factory.mktemp("csv"), ["x", "y"], [col, col[::-1].copy()]
            )
        assert got == want

    @pytest.mark.parametrize(
        "header, columns",
        [
            (["x", "y"], [np.zeros(3), np.zeros(2)]),
            (["x", "y"], [[1.0, 2.0], [1.0]]),
            (["x"], [np.zeros(3), np.zeros(3)]),
            (["x", "y", "z"], [np.zeros(3), np.zeros(3)]),
        ],
        ids=["unequal_arrays", "unequal_lists", "too_few_names", "too_many_names"],
    )
    def test_misaligned_input_rejected_before_writing(self, tmp_path, header, columns):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="header names"):
            write_csv(path, header, columns)
        assert not path.exists()
