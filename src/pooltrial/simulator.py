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
from .estimators import solve_normal_equations
from .policies import (
    PolicyParams,
    mirror_prob_chain,
    prob_action1,
    realized_from_p1,
    sample_action,
)


def fit_policy_params(states, actions, rewards) -> PolicyParams:
    """Pooled least-squares root of the policy estimating equation.

    ``states``/``actions``/``rewards`` hold the history slice to fit on,
    shapes (n, t, d_S), (n, t), (n, t).  Returns the unique root of the
    normal equations for the working model R ~ beta0'S + A * beta1'S; a
    rank-deficient pooled design raises DegenerateDesignError.
    """
    states = np.asarray(states, dtype=float)
    actions = np.asarray(actions, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    x = np.concatenate([states, actions[..., None] * states], axis=2)
    gram = np.einsum("ntk,ntl->kl", x, x)
    rhs = np.einsum("ntk,nt->k", x, rewards)
    coef = solve_normal_equations(gram, rhs, "policy", t=states.shape[1])
    return PolicyParams.from_stacked(coef)


def _build_state(prev_reward: np.ndarray, d_S: int) -> np.ndarray:
    n = prev_reward.shape[0]
    if d_S == 1:
        return np.ones((n, 1))
    return np.stack([np.ones(n), prev_reward], axis=1)


def run_trial(
    config: TrialConfig, plan: SeedPlan, frozen_betas=None
) -> TrajectorySet:
    """Simulate one replication; all randomness derives from ``plan``.

    With ``frozen_betas`` (sequence of T-1 stacked parameter vectors) the
    per-time refits are skipped and the supplied parameters drive the policy
    instead -- this is how target-policy (i.i.d.) reference runs are produced.
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

    states = np.empty((n, T, d_S))
    actions = np.empty((n, T), dtype=np.int8)
    rewards = np.empty((n, T))
    action_probs = np.empty((n, T))
    beta_hats = np.empty((T - 1, 2 * d_S))

    c_gamma = dosage_normalizer(env.gamma)
    dosage = np.zeros(n)
    # pooled normal-equation accumulators for the policy refits
    gram = np.zeros((2 * d_S, 2 * d_S))
    rhs = np.zeros(2 * d_S)

    for t in range(1, T + 1):
        s_t = _build_state(r_prev, d_S)
        states[:, t - 1] = s_t
        if t == 1:
            p1 = np.full(n, 0.5)
        else:
            x_prev = np.concatenate(
                [states[:, t - 2], actions[:, t - 2, None] * states[:, t - 2]],
                axis=1,
            )
            gram += np.einsum("nk,nl->kl", x_prev, x_prev)
            rhs += rewards[:, t - 2] @ x_prev
            if frozen_betas is None:
                coef = solve_normal_equations(gram, rhs, "policy", t=t - 1)
                beta_hats[t - 2] = coef
                params = PolicyParams.from_stacked(coef)
            else:
                beta_hats[t - 2] = np.asarray(frozen_betas[t - 2], dtype=float)
                params = PolicyParams.from_stacked(beta_hats[t - 2])
            if policy.kind == "mirror_descent":
                prev = mirror_prob_chain(policy, beta_hats, s_t, t - 1)
                p1 = prob_action1(policy, params, s_t, prev_prob1=prev, t=t)
            else:
                p1 = prob_action1(policy, params, s_t)
            dosage = env.gamma * dosage + actions[:, t - 2]
        a_t = sample_action(act_stream, p1)
        actions[:, t - 1] = a_t
        action_probs[:, t - 1] = realized_from_p1(p1, a_t, policy.pi_min)
        rewards[:, t - 1] = reward(env, dosage / c_gamma, a_t, eps[:, t])
        r_prev = rewards[:, t - 1]

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
    n, T = trajset.n_users, trajset.horizon_T
    out = np.empty((n, T))
    out[:, 0] = 0.5
    for t in range(2, T + 1):
        s_t = trajset.states[:, t - 1]
        params = PolicyParams.from_stacked(trajset.beta_hats[t - 2])
        if policy.kind == "mirror_descent":
            prev = mirror_prob_chain(policy, trajset.beta_hats, s_t, t - 1)
            p1 = prob_action1(policy, params, s_t, prev_prob1=prev, t=t)
        else:
            p1 = prob_action1(policy, params, s_t)
        out[:, t - 1] = realized_from_p1(p1, trajset.actions[:, t - 1], policy.pi_min)
    return out
