"""Reference implementations the tests compare the package against.

The package evaluates the policy map of a whole trial in one sweep
(``policies.policy_path``), the estimating functions of all users at once,
and the adaptive sandwich with a backward recursion on corrected scores.  The
forms here work one user, one state and one decision time at a time, fit by
explicit design matrices, and build and invert the full stacked system: slow
(O(D^3) for D = (T-1) d_t + d_theta), but independent of the package's
sweeps.  The exception is the policy map at alternative fits
(``policy_path_at``, ``weight_product_at``): it calls the package's sweep once
per decision time, with that time's stored fit replaced; ``lipschitz_scan``
holds the package's policy map to the paper's constant, ``lipschitz_bound``.
A large-n run under the target policies (``target_policy_oracle``) is the
package's simulator with its policies frozen at the fits of an adaptive
large-n run.
``full_width_adaptive`` is the package's earlier recursion, which stored
the zero beta0 half of each weight gradient and read it in every product:
the bit-for-bit reference of the recursion that carries only the beta1
half.  ``broadcast_phi_pieces`` is the package's earlier phi sweep, which
formed each per-user outer product by a broadcast multiply: the bit-for-bit
reference of the einsum sweep.
``repr_csv_oracle`` is the package's earlier CSV writer, which called
``repr`` on every value one by one: the byte-for-byte reference of the
writer that formats each distinct value of a row block once.
``realised_format`` rewrites a trajectory's probabilities in the earlier
stored format, the realised action's probability, which loads must reject.

Policy parameters are stacked vectors [beta0, beta1], each half of length d_S.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from pooltrial.core import SeedPlan, TrialConfig
from pooltrial.errors import (
    ConfigError,
    DegenerateDesignError,
    SingularBreadError,
    SingularPolicyBreadError,
)
from pooltrial.estimators import (
    COND_LIMIT,
    check_conditioned,
    inference_design,
    inverse_or_none,
    policy_design,
    psi_matrix,
)
from pooltrial.montecarlo import ORACLE_REP_BASE
from pooltrial.policies import clip_prob, policy_path, prob_slope, realized_from_p1
from pooltrial.simulator import run_trial
from pooltrial.variance import sandwich_covariance


def _beta1(beta, state):
    return np.asarray(beta, dtype=float)[np.shape(state)[-1]:]


def _pre_clip(spec, beta, state, prev_prob1, t):
    """Pre-clip probability of action 1 at one decision time."""
    lin = state @ _beta1(beta, state)
    if spec.kind == "boltzmann":
        return expit(spec.rho * lin)
    if prev_prob1 is None:
        raise ConfigError("mirror_descent requires prev_prob1")
    return np.asarray(prev_prob1, dtype=float) + 0.5 * spec.eta_at(t) * lin


def prob_action1(spec, beta, state, prev_prob1=None, t=None):
    """pi_t(1, s; beta) for state(s) s of shape (d_S,) or (m, d_S).

    ``prev_prob1`` is the previous mirror-descent policy's probability at the
    same state (required for mirror_descent, ignored otherwise).
    """
    state = np.asarray(state, dtype=float)
    if spec.kind == "constant_uniform":
        return np.full(state.shape[:-1], 0.5) if state.ndim > 1 else 0.5
    pre = _pre_clip(spec, beta, state, prev_prob1, t)
    return np.clip(pre, spec.pi_min, 1.0 - spec.pi_min)


def prob_realized(spec, beta, state, action, prev_prob1=None, t=None):
    """Probability of the realised action: p1 if action is 1 else 1 - p1."""
    p1 = prob_action1(spec, beta, state, prev_prob1=prev_prob1, t=t)
    out = np.where(np.asarray(action) == 1, p1, 1.0 - p1)
    return np.clip(out, spec.pi_min, 1.0 - spec.pi_min)


def prob_grad(spec, beta, state, action, prev_prob1=None, t=None):
    """Gradient of pi_t(action, s; beta) w.r.t. the stacked [beta0, beta1].

    The beta0 block is zero; the whole gradient is zero for constant_uniform
    and where the clip saturates (pre-clip value outside the open interval
    (pi_min, 1 - pi_min)).  Shape: state batch shape + (2 d_S,).
    """
    state = np.asarray(state, dtype=float)
    d_S = state.shape[-1]
    out = np.zeros(state.shape[:-1] + (2 * d_S,))
    if spec.kind == "constant_uniform":
        return out
    p = _pre_clip(spec, beta, state, prev_prob1, t)
    if spec.kind == "boltzmann":
        slope = spec.rho * p * (1.0 - p)
    else:
        slope = np.broadcast_to(0.5 * spec.eta_at(t), np.shape(p))
    live = np.asarray((p > spec.pi_min) & (p < 1.0 - spec.pi_min))
    sign = np.where(np.asarray(action) == 1, 1.0, -1.0)
    out[..., d_S:] = np.where(live[..., None], (sign * slope)[..., None] * state, 0.0)
    return out


def mirror_prob_chain(spec, beta_hats, state, upto_t):
    """pi_{upto_t}(1, s) of the mirror-descent recursion from pi_1 = 0.5.

    One clipped step per decision time 2..upto_t, the step at time u using
    beta_hats[u - 2].
    """
    state = np.asarray(state, dtype=float)
    p = np.full(state.shape[:-1], 0.5) if state.ndim > 1 else 0.5
    for u in range(2, upto_t + 1):
        p = prob_action1(spec, beta_hats[u - 2], state, prev_prob1=p, t=u)
    return p


def policy_path_at(spec, states, beta_hats, betas):
    """policy_path with each decision time's step taken at an alternative fit.

    One ``policy_path`` call per column: the column of decision time t sees
    the stored fits before t with the fit at t - 1 replaced by
    ``betas[t - 2]``, so a mirror-descent step at ``betas`` starts from the
    chain through the stored fits.  Returns the pre-clip values, like
    ``policy_path``.
    """
    k = len(beta_hats)
    n, m, _ = states.shape
    first = k - m + 2
    pre = np.full((n, m), 0.5)
    for j in range(max(2 - first, 0), m):
        t = first + j
        fits = np.array(beta_hats[: t - 1], dtype=float)
        fits[t - 2] = betas[t - 2]
        pre[:, j : j + 1] = policy_path(spec, states[:, j : j + 1], fits)
    return pre


def weight_product_at(trajset, betas):
    """Per-user product W_{2:T}(beta_{1:T-1}, beta_hat_{1:T-1}).

    ``betas`` is a (T-1, d_t) array (or sequence) of alternative policy
    parameters; the denominator is the realised action's probability under
    the stored action-1 probability, and a mirror-descent step stays anchored
    at the realised previous policy.
    """
    spec = trajset.config.policy
    pre = policy_path_at(spec, trajset.states, trajset.beta_hats, betas)
    actions = trajset.actions[:, 1:]
    num = realized_from_p1(clip_prob(pre[:, 1:], spec.pi_min), actions, spec.pi_min)
    den = realized_from_p1(trajset.action_probs[:, 1:], actions, spec.pi_min)
    return np.prod(num / den, axis=1)


def realised_format(trajset):
    """``trajset`` with ``action_probs`` holding the realised action's
    probability, the column that trajectory files once stored in place of
    the action-1 probability; they differ wherever an action is 0 and p1 is
    not 0.5."""
    pi_min = trajset.config.policy.pi_min
    realised = realized_from_p1(trajset.action_probs, trajset.actions, pi_min)
    return dataclasses.replace(trajset, action_probs=realised)


def target_policy_oracle(config: TrialConfig, oracle_n: int):
    """An n = oracle_n run under the target policies: its policies are frozen
    at the fits of an adaptive n = oracle_n run (its ``beta_hats``)."""
    oracle_config = config.replace(n_users=oracle_n)
    beta_star = run_trial(
        oracle_config, SeedPlan(config.master_seed, ORACLE_REP_BASE)
    ).beta_hats
    return run_trial(
        oracle_config,
        SeedPlan(config.master_seed, ORACLE_REP_BASE + 1),
        frozen_betas=beta_star,
    )


def path_oracle(spec, states, beta_hats, betas=None):
    """policy_path's pre-clip values column by column: chain, then one step."""
    betas = beta_hats if betas is None else betas
    n, m, _ = states.shape
    first = len(beta_hats) - m + 2
    pre = np.full((n, m), 0.5)
    for j in range(m):
        t = first + j
        if t == 1 or spec.kind == "constant_uniform":
            continue
        prev = None
        if spec.kind == "mirror_descent":
            prev = mirror_prob_chain(spec, beta_hats, states[:, j], t - 1)
        pre[:, j] = _pre_clip(spec, betas[t - 2], states[:, j], prev, t)
    return pre


def lipschitz_bound(spec, state, t=None):
    """Per-state Lipschitz constant of beta |-> pi(a, s; beta).

    0.25 * rho * ||s||_2 for boltzmann, 0.5 * eta_t * ||s||_2 for
    mirror descent, 0 for constant_uniform.
    """
    state = np.asarray(state, dtype=float)
    norm = np.linalg.norm(state, axis=-1)
    if spec.kind == "boltzmann":
        return 0.25 * spec.rho * norm
    if spec.kind == "mirror_descent":
        return 0.5 * spec.eta_at(t) * norm
    return np.zeros_like(norm)


def lipschitz_scan(spec, rng, draws, n=10, T=6):
    """The package's policy map, clip_prob(policy_path(...)), against
    ``lipschitz_bound``.

    Each draw takes random states and fits and moves the fit of one decision
    time u by a small step delta in beta1 (a far pair stays under the bound
    whatever the slope, as the clip caps the difference).  Column t may move
    by at most lipschitz_bound(s_t, u) ||delta||: not at all before u, and
    after u only through the mirror-descent chain, which carries the step at
    u to later times at the same state through 1-Lipschitz clips.  Returns
    (columns that moved too far, live ``prob_slope`` values whose product
    with ||s|| exceeds the bound, columns after u that moved).
    """
    too_far = too_steep = chained = 0
    times = range(2, T + 1)
    for _ in range(draws):
        states = rng.normal(size=(n, T, 2)) * rng.uniform(0.2, 3.0)
        beta_hats = rng.normal(size=(T - 1, 4)) * rng.uniform(0.02, 0.5)
        u = int(rng.integers(2, T + 1))
        moved = beta_hats.copy()
        delta = rng.normal(size=2) * 10.0 ** rng.uniform(-4, -2)
        moved[u - 2, 2:] += delta
        pre = policy_path(spec, states, beta_hats)
        diff = np.abs(
            clip_prob(policy_path(spec, states, moved), spec.pi_min)
            - clip_prob(pre, spec.pi_min)
        )
        bound = np.zeros((n, T))
        bound[:, u - 1 :] = lipschitz_bound(spec, states[:, u - 1 :], t=u)
        too_far += np.count_nonzero(diff > bound * np.linalg.norm(delta) + 1e-12)
        chained += np.count_nonzero(diff[:, u:])
        slope = prob_slope(spec, pre[:, 1:], times)
        for t in times:
            steep = slope[:, t - 2] * np.linalg.norm(states[:, t - 1], axis=-1)
            too_steep += np.count_nonzero(
                steep > lipschitz_bound(spec, states[:, t - 1], t=t) + 1e-12
            )
    return too_far, too_steep, chained


def psi(states, actions, rewards, theta, scale: float = 1.0) -> np.ndarray:
    """Estimating-function value for one user's trajectory.

    ``scale`` multiplies the sum (1.0 reproduces the unscaled criterion; 1/T
    gives the averaged variant -- either choice leaves theta-hat and both
    sandwich covariances unchanged).
    """
    states = np.asarray(states, dtype=float)
    actions = np.asarray(actions, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    theta = np.asarray(theta, dtype=float)
    z = np.concatenate([states, actions[:, None]], axis=1)
    resid = rewards - z @ theta
    return scale * (resid @ z)


def phi(states, actions, rewards, t: int, beta) -> np.ndarray:
    """Policy estimating-function value for one user, summed over times 1..t."""
    states = np.asarray(states, dtype=float)[:t]
    actions = np.asarray(actions, dtype=float)[:t]
    rewards = np.asarray(rewards, dtype=float)[:t]
    beta = np.asarray(beta, dtype=float)
    x = np.concatenate([states, actions[:, None] * states], axis=1)
    resid = rewards - x @ beta
    return resid @ x


def phi_matrix(trajset, t: int, beta) -> np.ndarray:
    """Per-user phi_t values at the given beta, shape (n, 2 * d_S)."""
    x = policy_design(trajset)[:, :t]
    resid = trajset.rewards[:, :t] - x @ np.asarray(beta, dtype=float)
    return np.einsum("nt,ntk->nk", resid, x)


def score_jacobian(design) -> np.ndarray:
    """-(1/n) sum_{i,t} z z' for a (n, T, d) regressor array.

    The parameter Jacobian of every linear estimating function here; symmetric
    negative semidefinite, negative definite iff the design has full rank.
    """
    z = np.asarray(design, dtype=float)
    gram = np.einsum("ntk,ntl->kl", z, z)
    return -gram / z.shape[0]


def jacobian_phi_beta(trajset, t: int) -> np.ndarray:
    """(1/n) sum_i d phi_{t,i} / d beta_t = -(1/n) sum_{t'<=t} [S;AS][S;AS]'."""
    return score_jacobian(policy_design(trajset)[:, :t])


def _cond(mat):
    """2-norm condition number of a finite matrix; inf when singular."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.linalg.cond(mat)
    return float(cond) if np.isfinite(cond) else float("inf")


def svd_conditioning_errors(mats, error, what: str, first_t=None, solutions=None) -> list:
    """``estimators.conditioning_errors`` with an SVD of every finite matrix.

    For each (k, d, d) stack of a (..., k, d, d) array, flattened over the
    leading axes: ``error`` for its earliest matrix that is non-finite, has a
    2-norm condition number above COND_LIMIT, or has a non-finite row of
    ``solutions``; or None.  The package screens with a norm bound first and
    must return the same list.
    """
    mats = np.asarray(mats, dtype=float)
    finite = np.isfinite(mats).all(axis=(-2, -1))
    conds = np.full(finite.shape, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        conds[finite] = np.linalg.cond(mats[finite])
    conds[np.isnan(conds)] = np.inf
    bad = ~finite | (conds > COND_LIMIT)
    if solutions is not None:
        bad |= ~np.isfinite(solutions).all(axis=-1)
    k = bad.shape[-1]
    bad, finite, conds = (a.reshape(-1, k) for a in (bad, finite, conds))
    errors = [None] * len(bad)
    for s in np.flatnonzero(bad.any(axis=1)):
        i = int(np.argmax(bad[s]))
        t = None if first_t is None else first_t + i
        at = "" if t is None else f" at t={t}"
        cond = float(conds[s, i])
        if not finite[s, i]:
            errors[s] = error(f"non-finite {what}", t=t)
        elif cond > COND_LIMIT:
            errors[s] = error(f"singular {what}{at} (cond={cond:.3e})", t=t, cond=cond)
        else:
            errors[s] = error(f"non-finite solution for the {what}{at}", t=t, cond=cond)
    return errors


def fit_policy_params(states, actions, rewards):
    """Pooled least-squares root of the policy estimating equation.

    Fits R ~ beta0'S + A * beta1'S on the history slice given ((n, t, d_S),
    (n, t), (n, t)) in one batch; returns the stacked coefficient vector.
    """
    states = np.asarray(states, dtype=float)
    actions = np.asarray(actions, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    x = np.concatenate([states, actions[..., None] * states], axis=2)
    gram = np.einsum("ntk,ntl->kl", x, x)
    rhs = np.einsum("ntk,nt->k", x, rewards)
    cond = _cond(gram)
    if cond > COND_LIMIT:
        raise DegenerateDesignError(
            f"rank-deficient policy design (cond={cond:.3e})", cond=cond
        )
    return np.linalg.solve(gram, rhs)


def inference_gram(trajset):
    """``fit_theta``'s Gram and right-hand side by the full design einsum.

    Sums z z' and R z, z = [S_t; A_t], row by row over the whole
    (..., n, T, d_S + 1) design; ``fit_theta`` sums the same products by BLAS
    over blocks of users.  Returns ((..., d, d), (..., d)).
    """
    z = inference_design(trajset)
    gram = np.einsum("...ntk,...ntl->...kl", z, z)
    rhs = np.einsum("...ntk,...nt->...k", z, trajset.rewards)
    return gram, rhs


def refit_grams(trajset):
    """The simulator's policy-refit Grams and right-hand sides, row-major.

    For each decision time t = 1..T-1, the pooled sums of x x' and R x over
    all users and the times through t, x = [S; A S], accumulated one time at
    a time by the user-major einsum the step loop once ran.  Returns
    ((..., T-1, 2 d_S, 2 d_S), (..., T-1, 2 d_S)).
    """
    x = policy_design(trajset)
    gram = rhs = 0.0
    grams, rhss = [], []
    for t in range(trajset.horizon_T - 1):
        xt = x[..., t, :]
        gram = gram + np.einsum("...nk,...nl->...kl", xt, xt)
        rhs = rhs + np.einsum("...nk,...n->...k", xt, trajset.rewards[..., t])
        grams.append(gram)
        rhss.append(rhs)
    return np.stack(grams, axis=-3), np.stack(rhss, axis=-2)


def sample_action(stream, prob1):
    """One decision time's Bernoulli(prob1) draws from ``stream``, as int8 {0, 1}.

    The per-step sampler: the simulator draws each replication's uniforms for
    all decision times at once, which must equal calling this once per time.
    """
    u = stream.random(np.shape(prob1))
    return (u < np.asarray(prob1, dtype=float)).astype(np.int8)


def dosage_update(d_prev, a_prev, gamma):
    """One step of D_t = gamma * D_{t-1} + A_{t-1}; equals the discounted sum."""
    return gamma * np.asarray(d_prev, dtype=float) + np.asarray(a_prev, dtype=float)


@dataclass
class DenseStacked:
    cov: np.ndarray        # lower-right d_theta block of bread^-1 meat bread^-T
    m_blocks: np.ndarray   # last block row of bread^-1 without its theta block
    v_hat: np.ndarray      # (T-1, d_theta, d_t) blocks V_hat_{T,t}


def dense_stacked_oracle(ts, est) -> DenseStacked:
    """Brute-force stacked-system build with explicit loops + generic inverse."""
    n, T = ts.n_users, ts.horizon_T
    spec = ts.config.policy
    d_t, d_th = ts.config.policy_dim, ts.config.theta_dim
    D = (T - 1) * d_t + d_th
    U = np.zeros((n, D))
    G = np.zeros((n, D))
    for t in range(1, T):
        U[:, (t - 1) * d_t : t * d_t] = phi_matrix(ts, t, ts.beta_hats[t - 1])
    U[:, -d_th:] = psi_matrix(ts, est.theta_hat)
    for s in range(1, T):
        u = s + 1
        state = ts.states[:, u - 1]
        prev = None
        if spec.kind == "mirror_descent":
            prev = mirror_prob_chain(spec, ts.beta_hats, state, u - 1)
        g = prob_grad(
            spec, ts.beta_hats[s - 1], state, ts.actions[:, u - 1], prev_prob1=prev, t=u
        )
        den = realized_from_p1(
            ts.action_probs[:, u - 1], ts.actions[:, u - 1], spec.pi_min
        )
        G[:, (s - 1) * d_t : s * d_t] = g / den[:, None]
    bread = np.zeros((D, D))
    for t in range(1, T):
        sl_t = slice((t - 1) * d_t, t * d_t)
        bread[sl_t, sl_t] = jacobian_phi_beta(ts, t)
        for s in range(1, t):
            sl_s = slice((s - 1) * d_t, s * d_t)
            acc = np.zeros((d_t, d_t))
            for i in range(n):
                acc += np.outer(U[i, sl_t], G[i, sl_s])
            bread[sl_t, sl_s] = acc / n
    bread[-d_th:, -d_th:] = score_jacobian(inference_design(ts))
    for s in range(1, T):
        sl_s = slice((s - 1) * d_t, s * d_t)
        acc = np.zeros((d_th, d_t))
        for i in range(n):
            acc += np.outer(U[i, -d_th:], G[i, sl_s])
        bread[-d_th:, sl_s] = acc / n
    binv = np.linalg.inv(bread)
    full = binv @ (U.T @ U / n) @ binv.T
    v_hat = bread[-d_th:, :-d_th].reshape(d_th, T - 1, d_t).transpose(1, 0, 2)
    return DenseStacked(
        cov=full[-d_th:, -d_th:], m_blocks=binv[-d_th:, :-d_th], v_hat=v_hat
    )


def full_width_weight_products(trajset) -> np.ndarray:
    """``variance.weight_products`` with the zero beta0 half of each block
    stored: (..., n, T-1, 2 d_S), the beta1 half last.  Its slopes come from
    a fresh ``policy_path`` sweep, not from the stored probabilities."""
    policy = trajset.config.policy
    *batch, n, T, d_S = trajset.states.shape
    pre = policy_path(policy, trajset.states, trajset.beta_hats)
    slope = prob_slope(policy, pre[..., 1:], range(2, T + 1))
    actions = trajset.actions[..., 1:]
    sign = np.where(actions == 1, 1.0, -1.0)
    den = realized_from_p1(trajset.action_probs[..., 1:], actions, policy.pi_min)
    grads = np.zeros((*batch, n, T - 1, 2 * d_S))
    grads[..., d_S:] = (sign * slope)[..., None] * trajset.states[..., 1:, :] / den[..., None]
    return grads


def full_width_adaptive(trajset, est):
    """(cov, M blocks) of the adaptive sandwich's backward recursion over
    ``full_width_weight_products``, with the package's checks of Psi_dot and
    the policy blocks.  The M blocks M_t = Psi_dot^{-1} K_t come from one
    solve, as (..., d_theta, (T-1) d_t)."""
    blocks = est.blocks
    check_conditioned(blocks.psi_dot[..., None, :, :], SingularBreadError, "bread")
    phi_dot_invs = inverse_or_none(blocks.phi_dots)
    check_conditioned(
        blocks.phi_dots, SingularPolicyBreadError, "policy bread", first_t=1,
        inverses=phi_dot_invs,
    )
    grads = full_width_weight_products(trajset)
    *batch, n, n_blocks, d_t = grads.shape
    gains = np.empty((n_blocks, *batch, trajset.config.theta_dim, d_t))
    corrected = blocks.psi_mat
    for c in range(n_blocks - 1, -1, -1):
        cross = -(corrected.swapaxes(-1, -2) @ grads[..., c, :] / n)
        gains[c] = cross @ phi_dot_invs[..., c, :, :]
        corrected = corrected + blocks.phi_mats[c] @ gains[c].swapaxes(-1, -2)
    return (
        sandwich_covariance(corrected, blocks.psi_dot),
        np.linalg.solve(blocks.psi_dot, np.concatenate(gains, axis=-1)),
    )


def broadcast_phi_pieces(trajset):
    """(phi_mats, phi_dots) of ``EstimationBlocks``' running-cumulant sweep,
    with each per-user outer product x_t x_t' a broadcast multiply."""
    x = policy_design(trajset)
    *batch, n, T, d = x.shape
    rx_run = np.zeros((*batch, n, d))
    gram_run = np.zeros((*batch, n, d, d))
    mats, dots = [], np.empty((*batch, T - 1, d, d))
    for t in range(1, T):
        xt = x[..., t - 1, :]
        rx_run = rx_run + trajset.rewards[..., t - 1, None] * xt
        gram_run = gram_run + xt[..., :, None] * xt[..., None, :]
        beta = trajset.beta_hats[..., t - 1, None, :, None]
        mats.append(rx_run - (gram_run @ beta)[..., 0])
        dots[..., t - 1, :, :] = -gram_run.sum(axis=-3) / n
    return mats, dots


def repr_csv_oracle(path, header, columns) -> None:
    """Write ``columns`` (equal-length sequences of Python numbers) under
    ``header``, each value by its repr, one value at a time."""
    fields = [map(repr, col) for col in columns]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(row) + "\n" for row in zip(*fields))
