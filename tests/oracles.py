"""Dense reference implementations the tests compare the package against.

The package computes the adaptive sandwich with a backward recursion over the
last block row of the stacked inverse.  The forms here build and invert the
full stacked system instead: slow (O(D^3) for D = (T-1) d_t + d_theta), but
independent of the recursion.
"""

from dataclasses import dataclass

import numpy as np

from pooltrial.errors import SingularPolicyBreadError
from pooltrial.estimators import (
    COND_LIMIT,
    condition_number,
    jacobian_phi_beta,
    jacobian_psi_theta,
    phi_matrix,
    psi_matrix,
)
from pooltrial.policies import PolicyParams, mirror_prob_chain, prob_grad


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
        cond = condition_number(block)
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
        params = PolicyParams.from_stacked(ts.beta_hats[s - 1])
        prev = None
        if spec.kind == "mirror_descent":
            prev = mirror_prob_chain(spec, ts.beta_hats, state, u - 1)
        g = prob_grad(spec, params, state, ts.actions[:, u - 1], prev_prob1=prev, t=u)
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
    bread[-d_th:, -d_th:] = jacobian_psi_theta(ts)
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
