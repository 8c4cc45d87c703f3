"""Reference implementations the tests compare the package against.

The package evaluates the policy map of a whole trial in one sweep
(``policies.policy_path``), the estimating functions of all users at once,
and the adaptive sandwich with a backward recursion on corrected scores.  The
forms here work one user, one state and one decision time at a time, fit by
explicit design matrices, and build and invert the full stacked system: slow
(O(D^3) for D = (T-1) d_t + d_theta), but independent of the package's
sweeps.  The exception is the policy map at alternative fits
(``policy_path_at``, ``weight_product_at``): it calls the package's sweep once
per decision time, with that time's stored fit replaced.

Policy parameters are stacked vectors [beta0, beta1], each half of length d_S.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from pooltrial.errors import (
    ConfigError,
    DegenerateDesignError,
    SingularPolicyBreadError,
)
from pooltrial.estimators import (
    COND_LIMIT,
    inference_design,
    policy_design,
    psi_matrix,
)
from pooltrial.policies import policy_path, realized_from_p1


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
    chain through the stored fits.  Returns (p1, pre) like ``policy_path``.
    """
    k = len(beta_hats)
    n, m, _ = states.shape
    first = k - m + 2
    p1, pre = np.full((n, m), 0.5), np.full((n, m), 0.5)
    for j in range(max(2 - first, 0), m):
        t = first + j
        fits = np.array(beta_hats[: t - 1], dtype=float)
        fits[t - 2] = betas[t - 2]
        p1[:, j : j + 1], pre[:, j : j + 1] = policy_path(
            spec, states[:, j : j + 1], fits
        )
    return p1, pre


def weight_product_at(trajset, betas):
    """Per-user product W_{2:T}(beta_{1:T-1}, beta_hat_{1:T-1}).

    ``betas`` is a (T-1, d_t) array (or sequence) of alternative policy
    parameters; the denominator is the stored sampling probability of the
    realised action, and a mirror-descent step stays anchored at the
    realised previous policy.
    """
    spec = trajset.config.policy
    p1, _ = policy_path_at(spec, trajset.states, trajset.beta_hats, betas)
    num = realized_from_p1(p1[:, 1:], trajset.actions[:, 1:], spec.pi_min)
    return np.prod(num / trajset.action_probs[:, 1:], axis=1)


def path_oracle(spec, states, beta_hats, betas=None):
    """policy_path's (p1, pre) column by column: chain, then one step."""
    betas = beta_hats if betas is None else betas
    n, m, _ = states.shape
    first = len(beta_hats) - m + 2
    p1, pre = np.full((n, m), 0.5), np.full((n, m), 0.5)
    for j in range(m):
        t = first + j
        if t == 1 or spec.kind == "constant_uniform":
            continue
        prev = None
        if spec.kind == "mirror_descent":
            prev = mirror_prob_chain(spec, beta_hats, states[:, j], t - 1)
        pre[:, j] = _pre_clip(spec, betas[t - 2], states[:, j], prev, t)
        p1[:, j] = prob_action1(spec, betas[t - 2], states[:, j], prev, t)
    return p1, pre


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


def block_lower_triangular_inverse(mat: np.ndarray, block_sizes) -> np.ndarray:
    """Invert a block lower-triangular matrix by the bordered recursion.

    Repeatedly applies [[A, 0], [C, D]]^{-1} = [[A^{-1}, 0],
    [-D^{-1} C A^{-1}, D^{-1}]] down the block diagonal, which is forward
    substitution at block granularity.  A diagonal block whose condition
    number exceeds COND_LIMIT raises SingularPolicyBreadError with its
    0-based block index as ``t``.
    """
    sizes = list(block_sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    dim = offsets[-1]
    if mat.shape != (dim, dim):
        raise ValueError(f"matrix shape {mat.shape} does not match blocks {sizes}")
    inv = np.zeros_like(mat, dtype=float)
    for r, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        block = mat[lo:hi, lo:hi]
        cond = _cond(block)
        if cond > COND_LIMIT:
            raise SingularPolicyBreadError(
                f"singular diagonal block {r} (cond={cond:.3e})", t=r, cond=cond
            )
        diag_inv = np.linalg.inv(block)
        inv[lo:hi, lo:hi] = diag_inv
        if lo > 0:
            # inv[k, c] vanishes for k < c, so one slice product collects
            # sum_k C[r, k] inv[k, c] for every c < r at once
            inv[lo:hi, :lo] = -diag_inv @ (mat[lo:hi, :lo] @ inv[:lo, :lo])
    return inv


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
        G[:, (s - 1) * d_t : s * d_t] = g / ts.action_probs[:, u - 1][:, None]
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
