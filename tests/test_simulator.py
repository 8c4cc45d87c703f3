import numpy as np
import pytest

from pooltrial import EnvConfig, PolicySpec, SeedPlan, TrialConfig, run_trial
from pooltrial.errors import ConfigError, DegenerateDesignError
from pooltrial.simulator import replay_action_probs

from oracles import fit_policy_params


class TestRunTrial:
    def test_constant_uniform_probs(self):
        config = TrialConfig(
            n_users=20, horizon_T=6, policy=PolicySpec(kind="constant_uniform")
        )
        ts = run_trial(config, SeedPlan(4, 0))
        assert np.all(ts.action_probs == 0.5)

    def test_rho_zero_boltzmann_collapses(self):
        config = TrialConfig(
            n_users=20, horizon_T=6, policy=PolicySpec(kind="boltzmann", rho=0.0)
        )
        ts = run_trial(config, SeedPlan(4, 0))
        assert np.all(ts.action_probs == 0.5)

    def test_minimal_run_bit_reproducible(self):
        config = TrialConfig(
            n_users=2,
            horizon_T=2,
            state_dim=1,
            master_seed=0,
            policy=PolicySpec(kind="boltzmann", rho=1.0),
        )
        a = run_trial(config, SeedPlan(0, 0))
        b = run_trial(config, SeedPlan(0, 0))
        for field in ("states", "actions", "rewards", "action_probs", "beta_hats"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_reproducible_at_scale(self, small_config):
        a = run_trial(small_config, SeedPlan(small_config.master_seed, 2))
        b = run_trial(small_config, SeedPlan(small_config.master_seed, 2))
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.beta_hats, b.beta_hats)

    def test_zero_effect_policy_params_shrink(self):
        config = TrialConfig(
            n_users=10_000,
            horizon_T=50,
            master_seed=13,
            policy=PolicySpec(kind="boltzmann", rho=1.0),
            env=EnvConfig(kappa0=0.0, kappa1=0.0, kappa2=0.0),
        )
        ts = run_trial(config, SeedPlan(13, 0))
        beta_last = ts.beta_hats[-1]
        assert np.linalg.norm(beta_last[2:]) < 0.1

    def test_exploration_floor_held(self):
        config = TrialConfig(
            n_users=200,
            horizon_T=20,
            master_seed=6,
            policy=PolicySpec(kind="boltzmann", rho=20.0, pi_min=0.1),
            env=EnvConfig(kappa1=5.0, kappa2=1.0),
        )
        ts = run_trial(config, SeedPlan(6, 0))
        assert ts.action_probs.min() >= 0.1
        assert ts.action_probs.max() <= 0.9

    def test_states_follow_previous_reward(self, small_trajset):
        assert np.array_equal(
            small_trajset.states[:, 1:, 1], small_trajset.rewards[:, :-1]
        )

    def test_frozen_betas_path(self, small_trajset, small_config):
        frozen = np.asarray(small_trajset.beta_hats)
        ts = run_trial(small_config, SeedPlan(99, 0), frozen_betas=frozen)
        assert np.array_equal(ts.beta_hats, frozen)
        assert np.array_equal(replay_action_probs(ts), ts.action_probs)

    @pytest.mark.parametrize("bad", ["short", "nan", "inf"])
    def test_frozen_betas_validated(self, small_trajset, small_config, bad):
        frozen = np.array(small_trajset.beta_hats)
        if bad == "short":
            frozen = frozen[:-1]
        else:
            frozen[2, 3] = float(bad)
        with pytest.raises(ConfigError):
            run_trial(small_config, SeedPlan(99, 0), frozen_betas=frozen)

    def test_overflowing_rewards_abort_as_degenerate(self):
        # rewards near 1e306 overflow the pooled Gram of the policy refit
        config = TrialConfig(
            n_users=20, horizon_T=5, policy=PolicySpec(), env=EnvConfig(kappa1=1e308)
        )
        with pytest.raises(DegenerateDesignError):
            run_trial(config, SeedPlan(0, 0))

    def test_mirror_descent_end_to_end(self):
        config = TrialConfig(
            n_users=50,
            horizon_T=6,
            master_seed=8,
            policy=PolicySpec(kind="mirror_descent", pi_min=0.1, eta=0.5),
            env=EnvConfig(kappa1=1.0),
        )
        ts = run_trial(config, SeedPlan(8, 0))
        assert ts.action_probs.min() >= 0.1
        assert ts.action_probs.max() <= 0.9
        assert np.array_equal(replay_action_probs(ts), ts.action_probs)

    def test_pooled_refit_matches_batch_op(self, small_trajset):
        # beta_hat_t is the root of the pooled criterion on history through t
        for t in (1, 3, small_trajset.horizon_T - 1):
            refit = fit_policy_params(
                small_trajset.states[:, :t],
                small_trajset.actions[:, :t],
                small_trajset.rewards[:, :t],
            )
            assert np.allclose(refit, small_trajset.beta_hats[t - 1], rtol=1e-9)


class TestFitPolicyParams:
    """The batch fit that the simulator's running refits are checked against."""

    def test_interpolating_recovery(self, rng):
        n, t = 6, 3
        states = np.stack(
            [np.column_stack([np.ones(t), rng.normal(size=t)]) for _ in range(n)]
        )
        actions = rng.integers(0, 2, size=(n, t)).astype(float)
        beta_true = np.array([1.0, -0.5, 0.8, 0.3])
        x = np.concatenate([states, actions[..., None] * states], axis=2)
        rewards = x @ beta_true
        coef = fit_policy_params(states, actions, rewards)
        assert np.allclose(coef, beta_true, rtol=1e-10)

    def test_all_actions_zero_degenerate(self, rng):
        states = np.stack(
            [np.column_stack([np.ones(4), rng.normal(size=4)]) for _ in range(5)]
        )
        with pytest.raises(DegenerateDesignError):
            fit_policy_params(states, np.zeros((5, 4)), rng.normal(size=(5, 4)))

    def test_overdetermined_vs_dense_oracle(self, rng):
        n, t = 20, 10
        states = np.stack(
            [np.column_stack([np.ones(t), rng.normal(size=t)]) for _ in range(n)]
        )
        actions = rng.integers(0, 2, size=(n, t)).astype(float)
        rewards = rng.normal(size=(n, t))
        coef = fit_policy_params(states, actions, rewards)
        x = np.concatenate([states, actions[..., None] * states], axis=2).reshape(
            -1, 4
        )
        y = rewards.reshape(-1)
        brute = np.linalg.inv(x.T @ x) @ (x.T @ y)
        assert np.allclose(coef, brute, rtol=1e-10)

    def test_root_residual(self, rng):
        n, t = 15, 6
        states = np.stack(
            [np.column_stack([np.ones(t), rng.normal(size=t)]) for _ in range(n)]
        )
        actions = rng.integers(0, 2, size=(n, t)).astype(float)
        rewards = rng.normal(size=(n, t))
        coef = fit_policy_params(states, actions, rewards)
        x = np.concatenate([states, actions[..., None] * states], axis=2)
        resid = rewards - x @ coef
        criterion = np.einsum("nt,ntk->k", resid, x)
        scale = max(1.0, np.abs(np.einsum("nt,ntk->k", rewards, x)).max())
        assert np.abs(criterion).max() < 1e-8 * scale


class TestWeightedWlln:
    def test_weighted_mean_matches_target_policy(self):
        from pooltrial.diagnostics import weighted_wlln_gap

        config = TrialConfig(
            n_users=10_000,
            horizon_T=8,
            master_seed=41,
            policy=PolicySpec(kind="boltzmann", rho=1.0),
            env=EnvConfig(kappa1=1.0),
        )
        report = weighted_wlln_gap(config, n_check=10_000, oracle_n=100_000)
        assert report["within_band"], report
