"""Runs one full pooled adaptive trial.

At decision time 1 every user is randomised with the pre-specified
probability 0.5.  At each decision time t >= 2 the policy parameter
beta_hat_{t-1} is refit by pooled least squares on all users' history through
time t-1, the policy is evaluated at each user's current state, and actions
are sampled conditionally independently across users before rewards are
generated.
"""

from __future__ import annotations

import numpy as np

from .core import SeedPlan, TrajectorySet, TrialConfig, derive_stream
from .environment import dosage_normalizer, generate_errors, reward
from .errors import ConfigError, DegenerateDesignError
from .estimators import check_conditioned, solve_or_nan
from .policies import policy_path, realized_from_p1, sample_action


def run_trial(
    config: TrialConfig, plan: SeedPlan, frozen_betas=None
) -> TrajectorySet:
    """Simulate one replication; all randomness derives from ``plan``.

    With ``frozen_betas`` (a finite (T-1, 2 d_S) array of stacked parameter
    vectors) the per-time refits are skipped and the supplied parameters
    drive the policy instead -- this is how target-policy (i.i.d.) reference
    runs are produced.
    """
    n, T, d_S = config.n_users, config.horizon_T, config.state_dim
    env, policy = config.env, config.policy
    err_stream = derive_stream(plan, "errors")
    act_stream = derive_stream(plan, "actions")

    # One extra leading error column supplies the initial reward R_0 that
    # seeds S_1 = [1, R_0]; without it the time-1 policy fit would be
    # structurally rank deficient (the second state coordinate would be
    # constant across users).
    eps = generate_errors(err_stream, n, T + 1, env.error_corr_base)
    r_prev = env.kappa0 + eps[:, 0]

    states = np.ones((n, T, d_S))  # S_t = [1, R_{t-1}], or [1] when d_S = 1
    actions = np.empty((n, T), dtype=np.int8)
    rewards = np.empty((n, T))
    action_probs = np.empty((n, T))
    if frozen_betas is None:
        beta_hats = np.empty((T - 1, 2 * d_S))
    else:
        beta_hats = np.array(frozen_betas, dtype=float)
        if beta_hats.shape != (T - 1, 2 * d_S) or not np.isfinite(beta_hats).all():
            raise ConfigError(
                f"frozen_betas must be a finite ({T - 1}, {2 * d_S}) array"
            )

    c_gamma = dosage_normalizer(env.gamma)
    dosage = np.zeros(n)
    # pooled normal-equation accumulators for the policy refits, and the
    # Gram of each refit, checked once after the loop
    gram = np.zeros((2 * d_S, 2 * d_S))
    rhs = np.zeros(2 * d_S)
    grams = np.empty((T - 1, 2 * d_S, 2 * d_S))

    # overflowing data raises a typed error (a non-finite policy design, or
    # TrajectorySet's non-finite check), not numpy warnings; an ill-posed
    # refit leaves NaN parameters and the trial runs on to T
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            states[:, t - 1, 1:] = r_prev[:, None]
            if t == 1:
                p1 = np.full(n, 0.5)
            else:
                if frozen_betas is None:
                    x_prev = np.concatenate(
                        [states[:, t - 2], actions[:, t - 2, None] * states[:, t - 2]],
                        axis=1,
                    )
                    gram += np.einsum("nk,nl->kl", x_prev, x_prev)
                    rhs += rewards[:, t - 2] @ x_prev
                    grams[t - 2] = gram
                    beta_hats[t - 2] = solve_or_nan(gram, rhs)
                p1 = policy_path(policy, states[:, t - 1 : t], beta_hats[: t - 1])[0][:, 0]
                dosage = env.gamma * dosage + actions[:, t - 2]
            a_t = sample_action(act_stream, p1)
            actions[:, t - 1] = a_t
            action_probs[:, t - 1] = realized_from_p1(p1, a_t, policy.pi_min)
            rewards[:, t - 1] = reward(env, dosage / c_gamma, a_t, eps[:, t])
            r_prev = rewards[:, t - 1]
    if frozen_betas is None:
        check_conditioned(
            grams, DegenerateDesignError, "policy design", first_t=1,
            solutions=beta_hats,
        )

    return TrajectorySet(
        states=states,
        actions=actions,
        rewards=rewards,
        action_probs=action_probs,
        beta_hats=beta_hats,
        config=config,
    )


def replay_action_probs(trajset: TrajectorySet) -> np.ndarray:
    """Recompute action_probs from stored states/actions/beta_hats.

    Simulator output satisfies ``replay_action_probs(ts) == ts.action_probs``
    bit for bit; ``TrajectorySet.load`` checks stored files against it.
    """
    policy = trajset.config.policy
    p1, _ = policy_path(policy, trajset.states, trajset.beta_hats)
    return realized_from_p1(p1, trajset.actions, policy.pi_min)
