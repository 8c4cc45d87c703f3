"""Runs full pooled adaptive trials, one or a batch of replications at once.

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
from .environment import correlate_errors, dosage_normalizer, reward
from .errors import ConfigError, DegenerateDesignError, NumericalError
from .estimators import check_conditioned, solve_or_nan
from .policies import policy_path, realized_from_p1


def run_trial(config: TrialConfig, plan: SeedPlan, frozen_betas=None) -> TrajectorySet:
    """Simulate one replication; all randomness derives from ``plan``.

    With ``frozen_betas`` (a finite (T-1, 2 d_S) array of stacked parameter
    vectors) the per-time refits are skipped and the supplied parameters
    drive the policy instead -- this is how target-policy (i.i.d.) reference
    runs are produced.  A degenerate policy refit raises its error after the
    trial has run to T.
    """
    (trial,) = run_trials(config, [plan], frozen_betas)
    if isinstance(trial, NumericalError):
        raise trial
    return trial


def run_trials(config: TrialConfig, plans, frozen_betas=None) -> list:
    """Simulate one replication per plan, in lockstep along a leading axis.

    The replications share nothing: each draws from its own plan, and its
    trajectory is bit-identical to a batch of one.  Returns, in plan order,
    each one's ``TrajectorySet`` (a view into the batch arrays) or the
    ``DegenerateDesignError`` of its policy refits.
    """
    R = len(plans)
    n, T, d_S = config.n_users, config.horizon_T, config.state_dim
    env, policy = config.env, config.policy

    # One extra leading error column supplies the initial reward R_0 that
    # seeds S_1 = [1, R_0]; without it the time-1 policy fit would be
    # structurally rank deficient (the second state coordinate would be
    # constant across users).  The action uniforms of a replication are
    # drawn at once, the same values as one draw of n per decision time.
    eps = np.empty((R, n, T + 1))
    uniforms = np.empty((R, T, n))
    for r, plan in enumerate(plans):
        derive_stream(plan, "errors").standard_normal(out=eps[r])
        derive_stream(plan, "actions").random(out=uniforms[r])
    correlate_errors(eps, env.error_corr_base)
    r_prev = env.kappa0 + eps[:, :, 0]

    states = np.ones((R, n, T, d_S))  # S_t = [1, R_{t-1}], or [1] when d_S = 1
    actions = np.empty((R, n, T), dtype=np.int8)
    rewards = np.empty((R, n, T))
    action_probs = np.empty((R, n, T))
    beta_hats = np.empty((R, T - 1, 2 * d_S))
    if frozen_betas is not None:
        frozen = np.array(frozen_betas, dtype=float)
        if frozen.shape != (T - 1, 2 * d_S) or not np.isfinite(frozen).all():
            raise ConfigError(
                f"frozen_betas must be a finite ({T - 1}, {2 * d_S}) array"
            )
        beta_hats[:] = frozen

    c_gamma = dosage_normalizer(env.gamma)
    dosage = np.zeros((R, n))
    # pooled normal-equation accumulators for the policy refits, and the
    # Gram of each refit, checked once after the loop
    gram = np.zeros((R, 2 * d_S, 2 * d_S))
    rhs = np.zeros((R, 2 * d_S))
    grams = np.empty((R, T - 1, 2 * d_S, 2 * d_S))

    # overflowing data raises a typed error (a non-finite policy design, or
    # TrajectorySet's non-finite check), not numpy warnings; an ill-posed
    # refit leaves NaN parameters and the trial runs on to T
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            states[:, :, t - 1, 1:] = r_prev[..., None]
            if t == 1:
                p1 = np.full((R, n), 0.5)
            else:
                if frozen_betas is None:
                    s_prev = states[:, :, t - 2]
                    x_prev = np.concatenate(
                        [s_prev, actions[:, :, t - 2, None] * s_prev], axis=2
                    )
                    gram += np.einsum("rnk,rnl->rkl", x_prev, x_prev)
                    # a batched matmul: einsum("rn,rnk->rk") sums in another order
                    rhs += (rewards[:, None, :, t - 2] @ x_prev)[:, 0]
                    grams[:, t - 2] = gram
                    beta_hats[:, t - 2] = solve_or_nan(gram, rhs)
                p1, _ = policy_path(policy, states[:, :, t - 1 : t], beta_hats[:, : t - 1])
                p1 = p1[..., 0]
                dosage = env.gamma * dosage + actions[:, :, t - 2]
            a_t = (uniforms[:, t - 1] < p1).astype(np.int8)
            actions[:, :, t - 1] = a_t
            action_probs[:, :, t - 1] = realized_from_p1(p1, a_t, policy.pi_min)
            rewards[:, :, t - 1] = reward(env, dosage / c_gamma, a_t, eps[:, :, t])
            r_prev = rewards[:, :, t - 1]

    one_by_one = False
    try:  # one call for the refit Grams of the whole batch
        if frozen_betas is None:
            check_conditioned(
                grams, DegenerateDesignError, "policy design", solutions=beta_hats
            )
    except DegenerateDesignError:
        one_by_one = True  # check each replication on its own, for its own error
    trials = []
    for r in range(R):
        try:
            if one_by_one:
                check_conditioned(
                    grams[r], DegenerateDesignError, "policy design", first_t=1,
                    solutions=beta_hats[r],
                )
            trials.append(TrajectorySet(
                states[r], actions[r], rewards[r], action_probs[r], beta_hats[r], config
            ))
        except DegenerateDesignError as err:
            # kept without its traceback, whose frames hold the batch arrays
            trials.append(err.with_traceback(None))
    return trials


def replay_action_probs(trajset: TrajectorySet) -> np.ndarray:
    """Recompute action_probs from stored states/actions/beta_hats.

    Simulator output satisfies ``replay_action_probs(ts) == ts.action_probs``
    bit for bit; ``TrajectorySet.load`` checks stored files against it.
    """
    policy = trajset.config.policy
    p1, _ = policy_path(policy, trajset.states, trajset.beta_hats)
    return realized_from_p1(p1, trajset.actions, policy.pi_min)
