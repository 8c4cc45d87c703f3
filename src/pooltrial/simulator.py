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
from .policies import clip_prob, policy_path

# users per block of the error draw and of the states' assembly: at T = 50 a
# block's errors take 100 KB, so their transposed copy is read from cache
DRAW_USERS = 256


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
    # constant across users).  The loop's buffers are time-outermost, so each
    # step reads and writes one contiguous (R, n) block.  The errors are drawn
    # DRAW_USERS users at a time, the values of one (n, T + 1) draw, and each
    # block is copied in transposed while in cache; the uniforms stay
    # (R, T, n), as Generator.random(out=) takes no strided out.
    eps = np.empty((T + 1, R, n))
    uniforms = np.empty((R, T, n))
    block = np.empty((min(n, DRAW_USERS), T + 1))
    for r, plan in enumerate(plans):
        stream = derive_stream(plan, "errors")
        for u in range(0, n, DRAW_USERS):
            draw = stream.standard_normal(out=block[: min(DRAW_USERS, n - u)])
            eps[:, r, u : u + len(draw)] = draw.T
        derive_stream(plan, "actions").random(out=uniforms[r])
    correlate_errors(eps.transpose(1, 2, 0), env.error_corr_base)
    r_prev = r_0 = env.kappa0 + eps[0]

    actions = np.empty((T, R, n), dtype=np.int8)
    rewards = np.empty((T, R, n))
    action_probs = np.empty((T, R, n))
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
            # p1 (0.5 at t = 1) is clipped straight into its action_probs slot
            p1 = policy_path(policy, states_t, beta_hats[:, : t - 1])[..., 0]
            p1 = clip_prob(p1, policy.pi_min, out=action_probs[t - 1])
            a_t = actions[t - 1]
            a_t[:] = uniforms[:, t - 1] < p1
            r_prev = reward(env, dosage / c_gamma, a_t, eps[t], out=rewards[t - 1])
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
    # free the loop's buffers before the copies (r_prev, a_t, p1 and x_t's
    # views would keep the time-major buffers and x_t alive)
    del eps, uniforms, r_prev, a_t, p1, x_t, s_t, states_t, dosage

    errors = [None] * R
    if frozen_betas is None:  # one call for the refit Grams of the whole batch
        errors = conditioning_errors(
            grams, DegenerateDesignError, "policy design", first_t=1, solutions=beta_hats
        )
    # one time-major buffer at a time becomes user-major (R, n, T)
    actions = np.ascontiguousarray(actions.transpose(1, 2, 0))
    rewards = np.ascontiguousarray(rewards.transpose(1, 2, 0))
    action_probs = np.ascontiguousarray(action_probs.transpose(1, 2, 0))
    # the states the loop used, S_1 = [1, R_0] and S_t = [1, R_{t-1}], written
    # a block of users at a time, so each element is written once from cache
    states = np.empty((R, n, T, d_S))
    for u in range(0, n, DRAW_USERS):
        users = slice(u, u + DRAW_USERS)
        states[:, users, :, 0] = 1.0
        states[:, users, 0, 1:] = r_0[:, users, None]
        states[:, users, 1:, 1:] = rewards[:, users, :-1, None]
    arrays = [states, actions, rewards, action_probs, beta_hats]
    if any(errors):
        kept = [r for r, err in enumerate(errors) if err is None]
        arrays = [a[kept] for a in arrays]
    return TrajectorySet(*arrays, config), errors


def replay_action_probs(trajset: TrajectorySet) -> np.ndarray:
    """Recompute action_probs from stored states and beta_hats: one
    ``policy_path`` sweep of the whole trajectory, clipped in place.

    Simulator output satisfies ``replay_action_probs(ts) == ts.action_probs``
    bit for bit; ``TrajectorySet.load`` checks stored files against it.
    """
    policy = trajset.config.policy
    pre = policy_path(policy, trajset.states, trajset.beta_hats)
    return clip_prob(pre, policy.pi_min, out=pre)
