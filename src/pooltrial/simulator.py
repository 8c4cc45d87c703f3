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
from .errors import ConfigError, DegenerateDesignError
from .estimators import conditioning_errors, solve_or_nan
from .policies import clip_prob, policy_path, realized_from_p1

# Values per call of the post-loop realisation of action_probs, in whole
# decision times: one call for a cell's batch, cache-sized calls at oracle n
REALIZE_BLOCK = 65_536


def run_trial(config: TrialConfig, plan: SeedPlan, frozen_betas=None) -> TrajectorySet:
    """Simulate one replication; all randomness derives from ``plan``.

    With ``frozen_betas`` (a finite (T-1, 2 d_S) array of stacked parameter
    vectors) the per-time refits are skipped and the supplied parameters
    drive the policy instead -- this is how target-policy (i.i.d.) reference
    runs are produced.  A degenerate policy refit raises its error after the
    trial has run to T.
    """
    batch, (error,) = run_trials(config, [plan], frozen_betas)
    if error is not None:
        raise error
    return batch[0]


def run_trials(config: TrialConfig, plans, frozen_betas=None) -> tuple:
    """Simulate one replication per plan, in lockstep along a leading axis.

    The replications share nothing: each draws from its own plan, and its
    trajectory is bit-identical to a batch of one.  Returns ``(batch,
    errors)``: ``batch`` is one ``TrajectorySet`` over the replications whose
    policy refits are well posed, in plan order (the simulator's own arrays
    when none failed), and ``errors`` holds, in plan order, each
    replication's ``DegenerateDesignError`` or None.
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
    # the loop works time-major, so that each step reads and writes
    # contiguous (R, n) slices; the user-major arrays are assembled after it
    eps = np.ascontiguousarray(eps.swapaxes(1, 2))
    correlate_errors(eps.swapaxes(1, 2), env.error_corr_base)
    r_prev = r_0 = env.kappa0 + eps[:, 0]

    actions = np.empty((R, T, n), dtype=np.int8)
    rewards = np.empty((R, T, n))
    action_probs = np.empty((R, T, n))
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
    # x_t = [s_t; a_t s_t] with S_t = [1, R_{t-1}] (or [1] when d_S = 1), held
    # feature-major: one contiguous row of n users per regressor
    x_t = np.ones((R, 2 * d_S, n))
    s_t = x_t[:, :d_S]
    states_t = s_t.swapaxes(1, 2)[:, :, None]  # the policy's (R, n, 1, d_S) view
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
            s_t[:, 1:] = r_prev[:, None]
            # p1 (0.5 at t = 1) is clipped into action_probs, realised after the loop
            p1 = policy_path(policy, states_t, beta_hats[:, : t - 1])[..., 0]
            p1 = clip_prob(p1, policy.pi_min, out=action_probs[:, t - 1])
            a_t = actions[:, t - 1]
            a_t[:] = uniforms[:, t - 1] < p1
            r_prev = rewards[:, t - 1]
            r_prev[:] = reward(env, dosage / c_gamma, a_t, eps[:, t])
            dosage = env.gamma * dosage + a_t
            if t < T and frozen_betas is None:  # the fit for time t + 1
                np.multiply(a_t[:, None], s_t, out=x_t[:, d_S:])
                # two BLAS products per replication: x x' (a syrk, so the Gram
                # is exactly symmetric) and x r_t; neither depends on the BLAS
                # thread count for its bits
                gram += x_t @ x_t.swapaxes(1, 2)
                rhs += (x_t @ r_prev[..., None])[..., 0]
                grams[:, t - 1] = gram
                beta_hats[:, t - 1] = solve_or_nan(gram, rhs)
    # free the loop's buffers before the copies (r_prev, a_t and p1 are views,
    # which would keep the time-major buffers alive)
    del eps, uniforms, r_prev, a_t, p1
    step = max(1, REALIZE_BLOCK // max(1, R * n))  # an empty batch has R = 0
    # in place and through no named view, which would outlive the loop and
    # keep the time-major buffer alive through its user-major copy below
    for lo in range(0, T, step):
        steps = slice(lo, lo + step)
        action_probs[:, steps] = realized_from_p1(
            action_probs[:, steps], actions[:, steps], policy.pi_min
        )

    errors = [None] * R
    if frozen_betas is None:  # one call for the refit Grams of the whole batch
        errors = conditioning_errors(
            grams, DegenerateDesignError, "policy design", first_t=1, solutions=beta_hats
        )
    actions = np.ascontiguousarray(actions.swapaxes(1, 2))
    rewards = np.ascontiguousarray(rewards.swapaxes(1, 2))
    action_probs = np.ascontiguousarray(action_probs.swapaxes(1, 2))
    # the states the loop used: S_1 = [1, R_0] and S_t = [1, R_{t-1}]
    states = np.ones((R, n, T, d_S))
    states[..., 0, 1:] = r_0[..., None]
    states[..., 1:, 1:] = rewards[..., :-1, None]
    arrays = [states, actions, rewards, action_probs, beta_hats]
    if any(errors):
        kept = [r for r, err in enumerate(errors) if err is None]
        arrays = [a[kept] for a in arrays]
    return TrajectorySet(*arrays, config), errors


def replay_action_probs(trajset: TrajectorySet) -> np.ndarray:
    """Recompute action_probs from stored states/actions/beta_hats.

    Simulator output satisfies ``replay_action_probs(ts) == ts.action_probs``
    bit for bit; ``TrajectorySet.load`` checks stored files against it.  It
    reads the trajectory's one policy sweep, ``ts.policy_pre``.
    """
    pi_min = trajset.config.policy.pi_min
    return realized_from_p1(clip_prob(trajset.policy_pre, pi_min), trajset.actions, pi_min)
