import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pooltrial import (
    EnvConfig,
    PolicySpec,
    SeedPlan,
    TrialConfig,
    derive_stream,
    run_trial,
    simulator,
)
from pooltrial.environment import generate_errors
from pooltrial.errors import ConfigError, DegenerateDesignError, NumericalError
from pooltrial.estimators import conditioning_errors, psi_matrix
from pooltrial.policies import clip_prob, policy_path, realized_from_p1
from pooltrial.simulator import replay_action_probs, run_trials

from oracles import (
    fit_policy_params,
    refit_grams,
    sample_action,
    target_policy_oracle,
    weight_product_at,
)

FIELDS = ("states", "actions", "rewards", "action_probs", "beta_hats")
KINDS = {
    "boltzmann": dict(kind="boltzmann", rho=5.0),
    "mirror_descent": dict(kind="mirror_descent", eta=0.5),
    "constant_uniform": dict(kind="constant_uniform"),
}


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


def _outcome(trial):
    """Digests of a trajectory's fields, or (class, t, cond) of its error."""
    if isinstance(trial, NumericalError):
        return type(trial), trial.t, trial.cond
    return tuple(
        hashlib.sha256(getattr(trial, f).tobytes()).hexdigest() for f in FIELDS
    )


def _unbatched(batch, errors):
    """``run_trials``' result in plan order: each trajectory, or its error."""
    kept = (batch[i] for i in range(errors.count(None)))
    return [next(kept) if err is None else err for err in errors]


class TestRunTrials:
    """A batch of replications equals the same replications run one by one."""

    # n = 2 and 3 abort every replication; n = 5 aborts reps 2 and 4 (an
    # exactly singular refit) among healthy ones; kappa1 = 1e308 overflows;
    # n = 50 and 20 at kappa1 = 5 abort none
    @pytest.mark.parametrize(
        "n, kappa1, state_dim",
        [(2, 1.0, 2), (3, 5.0, 2), (5, 1.0, 2), (5, 1e308, 2), (50, 5.0, 2),
         (50, 1e308, 2), (20, 5.0, 1)],
    )
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_batch_matches_single_trials(self, kind, n, kappa1, state_dim):
        config = TrialConfig(
            n_users=n,
            horizon_T=6,
            state_dim=state_dim,
            master_seed=29,
            policy=PolicySpec(**KINDS[kind]),
            env=EnvConfig(kappa1=kappa1),
        )
        plans = [SeedPlan(29, rep) for rep in range(6)]
        single = []
        for plan in plans:
            try:
                single.append(_outcome(run_trial(config, plan)))
            except DegenerateDesignError as err:
                single.append(_outcome(err))
        batch = _unbatched(*run_trials(config, plans))
        assert [_outcome(t) for t in batch] == single

    def test_frozen_batch_matches_single_trials(self, small_trajset, small_config):
        frozen = np.asarray(small_trajset.beta_hats)
        plans = [SeedPlan(99, rep) for rep in range(3)]
        batch = _unbatched(*run_trials(small_config, plans, frozen_betas=frozen))
        single = [run_trial(small_config, p, frozen_betas=frozen) for p in plans]
        assert [_outcome(t) for t in batch] == [_outcome(t) for t in single]

    def test_trials_are_read_only_views(self, small_config):
        plans = [SeedPlan(1, rep) for rep in range(3)]
        batch, errors = run_trials(small_config, plans)
        assert errors == [None] * 3
        for r, plan in enumerate(plans):
            assert _outcome(batch[r]) == _outcome(run_trial(small_config, plan))
            for field in FIELDS:
                row, whole = getattr(batch[r], field), getattr(batch, field)
                assert not row.flags.writeable and not whole.flags.writeable
                assert row.base is whole

    def test_aborted_replications_leave_the_batch(self):
        # reps 2 and 4 of this design have an exactly singular refit
        config = TrialConfig(
            n_users=5, horizon_T=6, master_seed=29,
            policy=PolicySpec(kind="boltzmann", rho=5.0), env=EnvConfig(kappa1=1.0),
        )
        plans = [SeedPlan(29, rep) for rep in range(6)]
        batch, errors = run_trials(config, plans)
        assert [r for r, err in enumerate(errors) if err is not None] == [2, 4]
        assert batch.actions.shape == (4, 5, 6)
        for i, r in enumerate((0, 1, 3, 5)):
            assert _outcome(batch[i]) == _outcome(run_trial(config, plans[r]))

    @pytest.mark.parametrize("state_dim", [1, 2])
    def test_arrays_are_assembled_from_the_loop_values(self, state_dim):
        # the step loop runs on (T, R, n) buffers; the user-major arrays, and
        # the states a block of users at a time, are built after it
        config = TrialConfig(
            n_users=30, horizon_T=7, state_dim=state_dim, master_seed=13,
            policy=PolicySpec(kind="boltzmann", rho=5.0),
            env=EnvConfig(kappa0=0.25, kappa1=5.0),
        )
        plans = [SeedPlan(13, rep) for rep in range(3)]
        batch, errors = run_trials(config, plans)
        assert errors == [None] * 3
        for field in FIELDS:
            arr = getattr(batch, field)
            assert arr.flags.c_contiguous and not arr.flags.writeable
        states = batch.states
        assert np.all(states[..., 0] == 1.0)
        if state_dim == 1:
            return
        assert np.array_equal(states[..., 1:, 1], batch.rewards[..., :-1])
        for r, plan in enumerate(plans):
            # S_1 = [1, kappa0 + eps_0]; the AR recursion leaves column 0 as drawn
            eps_0 = derive_stream(plan, "errors").standard_normal((30, 8))[:, 0]
            assert np.array_equal(states[r, :, 0, 1], 0.25 + eps_0)

    @pytest.mark.parametrize("state_dim", [1, 2])
    @pytest.mark.parametrize(
        "n",
        [
            simulator.DRAW_USERS - 1,
            simulator.DRAW_USERS,
            simulator.DRAW_USERS + 1,
            2 * simulator.DRAW_USERS + 3,
        ],
    )
    def test_block_error_draw_matches_one_draw(self, n, state_dim):
        # the errors are drawn DRAW_USERS users at a time; with the kappas at
        # zero each reward is its error, which must be one (n, T + 1) draw's
        T, corr = 4, 0.5
        config = TrialConfig(
            n_users=n, horizon_T=T, state_dim=state_dim, master_seed=17,
            policy=PolicySpec(kind="boltzmann", rho=1.0),
            env=EnvConfig(kappa0=0.0, kappa1=0.0, kappa2=0.0, error_corr_base=corr),
        )
        plans = [SeedPlan(17, rep) for rep in range(2)]
        batch, errors = run_trials(config, plans)
        assert errors == [None, None]
        for r, plan in enumerate(plans):
            eps = generate_errors(derive_stream(plan, "errors"), n, T + 1, corr)
            for t in range(T):
                assert batch.rewards[r, :, t].tobytes() == eps[:, t + 1].tobytes()
            if state_dim == 2:
                assert batch.states[r, :, 0, 1].tobytes() == eps[:, 0].tobytes()

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_actions_follow_per_step_sampler(self, kind):
        # the batch draws each replication's uniforms for all decision times
        # at once; that equals one per-step draw of n from the action stream
        config = TrialConfig(
            n_users=30,
            horizon_T=8,
            master_seed=5,
            policy=PolicySpec(**KINDS[kind]),
            env=EnvConfig(kappa1=2.0),
        )
        plans = [SeedPlan(5, rep) for rep in range(3)]
        batch, errors = run_trials(config, plans)
        assert errors == [None] * len(plans)
        for plan, ts in zip(plans, [batch[r] for r in range(len(plans))]):
            pre = policy_path(config.policy, ts.states, ts.beta_hats)
            p1 = clip_prob(pre, config.policy.pi_min)
            stream = derive_stream(plan, "actions")
            steps = [sample_action(stream, p1[:, t]) for t in range(ts.horizon_T)]
            assert np.array_equal(np.stack(steps, axis=1), ts.actions)


class TestRefitGrams:
    """The step loop's BLAS refit products against the row-major einsum."""

    @pytest.mark.parametrize("reps", [1, 3])
    @pytest.mark.parametrize("state_dim", [1, 2])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_matches_row_major_einsum(self, kind, state_dim, reps, monkeypatch):
        seen = []  # the refit Grams run_trials hands to its one check

        def spy(grams, *args, **kwargs):
            seen.append(np.array(grams))
            return conditioning_errors(grams, *args, **kwargs)

        monkeypatch.setattr(simulator, "conditioning_errors", spy)
        config = TrialConfig(
            n_users=37, horizon_T=7, state_dim=state_dim, master_seed=23,
            policy=PolicySpec(**KINDS[kind]), env=EnvConfig(kappa1=2.0),
        )
        plans = [SeedPlan(23, rep) for rep in range(reps)]
        batch, errors = run_trials(config, plans)
        assert errors == [None] * reps
        grams = seen[0]
        want, rhs = refit_grams(batch)
        scale = np.abs(want).max()
        assert np.abs(grams - want).max() <= 1e-12 * scale
        # each beta_hat_t solves the einsum's normal equations to rounding
        beta = batch.beta_hats
        resid = rhs - (want @ beta[..., None])[..., 0]
        assert np.abs(resid).max() <= 1e-12 * scale * max(1.0, np.abs(beta).max())
        assert np.array_equal(grams, grams.swapaxes(-1, -2))
        for r, plan in enumerate(plans):
            run_trials(config, [plan])
            assert np.array_equal(seen[-1][0], grams[r])


class TestStepLoopCalls:
    """What the step loop calls: the policy once per step, clipped straight
    into the stored action_probs, which are the batch's one realisation of
    its probabilities; no pass after the loop rewrites them."""

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_one_realisation_per_batch(self, kind, frozen, monkeypatch):
        import pooltrial.policies as policies

        calls = {"policy_path": 0, "realized_from_p1": 0}

        def counted(module, name):
            real = getattr(module, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)

        counted(simulator, "policy_path")
        counted(policies, "realized_from_p1")
        assert not hasattr(simulator, "realized_from_p1")
        T = 7
        config = TrialConfig(
            n_users=37, horizon_T=T, master_seed=29,
            policy=PolicySpec(**KINDS[kind]), env=EnvConfig(kappa1=2.0),
        )
        betas = np.full((T - 1, 4), 0.2) if frozen else None
        batch, errors = run_trials(
            config, [SeedPlan(29, rep) for rep in range(3)], frozen_betas=betas
        )
        assert errors == [None] * 3
        assert calls == {"policy_path": T, "realized_from_p1": 0}
        # the stored probabilities are the ones a replay recomputes
        assert np.array_equal(replay_action_probs(batch), batch.action_probs)


def test_run_trial_peak_memory():
    # the returned arrays hold 4.125 (T, n) float buffers (two state columns,
    # rewards, action_probs, and the int8 actions at 1/8); the traced peak,
    # 4.42 at n = 20,000, is the step loop's errors and uniforms beside its
    # time-major actions, rewards and action_probs; each of those is freed
    # once its user-major copy is made, while a view of one left over from
    # the loop makes the peak 5.38
    n, T = 20_000, 50
    config = TrialConfig(
        n_users=n, horizon_T=T, master_seed=1,
        policy=PolicySpec(kind="boltzmann", rho=5.0), env=EnvConfig(kappa1=5.0),
    )
    tracemalloc.start()
    try:
        run_trial(config, SeedPlan(1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.75 * T * n * 8


# One batch of 2 replications of n T = 1M rows each, simulated and fitted, and
# the phi sweep and adaptive sandwich of the first: its (n d, d) = (80,000, 4)
# product per step is large enough that OpenBLAS splits it over threads.
# Prints the digests of the fields the BLAS products feed
BLAS_THREADS_SCRIPT = """
import hashlib, json
import numpy as np
from pooltrial import EnvConfig, PolicySpec, SeedPlan, TrialConfig, fit_theta
from pooltrial.simulator import run_trials
from pooltrial.variance import adaptive_sandwich
config = TrialConfig(
    n_users=20_000, horizon_T=50, master_seed=3,
    policy=PolicySpec(kind="boltzmann", rho=5.0), env=EnvConfig(kappa1=5.0),
)
batch, errors = run_trials(config, [SeedPlan(3, 0), SeedPlan(3, 1)])
assert errors == [None, None]
arrays = [batch.beta_hats, batch.action_probs, fit_theta(batch).theta_hat]
est = fit_theta(batch[0])
arrays += [np.stack(est.blocks.phi_mats), est.blocks.phi_dots]
arrays.append(adaptive_sandwich(batch[0], est).cov)
print(json.dumps([hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]))
"""


def test_outputs_do_not_depend_on_blas_thread_count():
    # large enough that OpenBLAS splits its products over threads when it can
    src = str(Path(simulator.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        digests.append(json.loads(out.stdout.splitlines()[-1]))
    assert digests[0] == digests[1]


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
    def test_constant_functional_reduces_to_weight_average(self):
        # E[1 / prod_{t>=2} P(realised action at t)] telescopes to 2^{T-1}
        # in the binary-action setting, under the frozen target policies
        config = TrialConfig(
            n_users=50,
            horizon_T=4,
            master_seed=92,
            policy=PolicySpec(kind="boltzmann", rho=1.0),
            env=EnvConfig(kappa1=1.0),
        )
        frozen = target_policy_oracle(config, 20_000)
        pi_min = config.policy.pi_min
        realised = realized_from_p1(frozen.action_probs, frozen.actions, pi_min)
        weights = 1.0 / np.prod(realised[:, 1:], axis=1)
        assert np.mean(weights) == pytest.approx(2 ** (config.horizon_T - 1), rel=0.02)

    def test_weighted_mean_matches_target_policy(self):
        # psi (at theta = 0) of an adaptive trial, reweighted by
        # W_{2:T}(beta*, beta_hat), has the mean of a run under the target
        # policies beta* (the fits of an n = 100k run), within 4 SE
        config = TrialConfig(
            n_users=10_000,
            horizon_T=8,
            master_seed=41,
            policy=PolicySpec(kind="boltzmann", rho=1.0),
            env=EnvConfig(kappa1=1.0),
        )
        theta_probe = np.zeros(config.theta_dim)
        frozen = target_policy_oracle(config, 100_000)
        beta_star = frozen.beta_hats
        target = psi_matrix(frozen, theta_probe)[:, 0]
        check = run_trial(config, SeedPlan(config.master_seed, 0))
        weighted = weight_product_at(check, beta_star) * psi_matrix(check, theta_probe)[:, 0]
        band = 4.0 * np.hypot(
            weighted.std() / np.sqrt(check.n_users),
            target.std() / np.sqrt(frozen.n_users),
        )
        assert abs(weighted.mean() - target.mean()) <= band
