"""Post-trial Z-estimation: theta-hat, the estimating functions, and Jacobians.

The inferential estimating function for one user is

    psi(H_T; theta) = sum_t (R_t - theta0' S_t - theta1 A_t) [S_t; A_t],

and the per-time policy estimating function is

    phi_t(H_t; beta) = sum_{t' <= t} (R_t' - beta0' S_t' - A_t' beta1' S_t')
                       [S_t'; A_t' S_t'].

Both are linear in their parameters, so all Jacobians have closed forms
(negative Gram matrices of the respective regressors) and the fits are exact
normal-equation roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import TrajectorySet
from .errors import DegenerateDesignError

# Condition-number ceiling shared by all normal-equation solves; beyond this
# a design is treated as degenerate rather than silently pseudo-inverted.
COND_LIMIT = 1e12


def inference_design(trajset: TrajectorySet) -> np.ndarray:
    """Regressor [S_t; A_t] for psi, shape (n, T, d_S + 1)."""
    return np.concatenate(
        [trajset.states, trajset.actions[..., None].astype(float)], axis=2
    )


def policy_design(trajset: TrajectorySet) -> np.ndarray:
    """Regressor [S_t; A_t * S_t] for phi, shape (n, T, 2 * d_S)."""
    a = trajset.actions[..., None].astype(float)
    return np.concatenate([trajset.states, a * trajset.states], axis=2)


def psi_matrix(trajset: TrajectorySet, theta, scale: float = 1.0) -> np.ndarray:
    """Per-user psi values, shape (n, d_theta)."""
    z = inference_design(trajset)
    resid = trajset.rewards - z @ np.asarray(theta, dtype=float)
    return scale * np.einsum("nt,ntk->nk", resid, z)


def phi_matrix(trajset: TrajectorySet, t: int, beta) -> np.ndarray:
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


def jacobian_psi_theta(trajset: TrajectorySet, scale: float = 1.0) -> np.ndarray:
    """(1/n) sum_i d psi_i / d theta; equals -scale/n * sum [S;A][S;A]'."""
    return scale * score_jacobian(inference_design(trajset))


def jacobian_phi_beta(trajset: TrajectorySet, t: int) -> np.ndarray:
    """(1/n) sum_i d phi_{t,i} / d beta_t = -(1/n) sum_{t'<=t} [S;AS][S;AS]'."""
    return score_jacobian(policy_design(trajset)[:, :t])


def condition_number(mat: np.ndarray) -> float:
    """2-norm condition number; inf for singular or all-zero blocks."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.linalg.cond(mat)
    return float(cond) if np.isfinite(cond) else float("inf")


def solve_normal_equations(gram: np.ndarray, rhs: np.ndarray, what: str, t=None):
    """Solve gram @ coef = rhs, raising DegenerateDesignError when ill posed.

    Non-finite input (data that overflowed) is ill posed too: a non-finite
    gram is rejected before its SVD, and a non-finite right-hand side gives
    a non-finite solution.
    """
    if not np.isfinite(gram).all():
        raise DegenerateDesignError(f"non-finite {what} design", t=t)
    cond = condition_number(gram)
    if cond > COND_LIMIT:
        raise DegenerateDesignError(
            f"rank-deficient {what} design (cond={cond:.3e})", t=t, cond=cond
        )
    coef = np.linalg.solve(gram, rhs)
    if not np.isfinite(coef).all():
        raise DegenerateDesignError(f"non-finite {what} solution", t=t, cond=cond)
    return coef


class EstimationBlocks:
    """Cached per-user estimating-function evaluations and derivative blocks.

    Everything is lazy: a theta-only consumer (e.g. the large-n oracle run)
    never pays for the per-time phi stacks the variance machinery needs.
    The phi stacks come from per-user cumulants (sum_{t'<=t} of R*x and of
    x x') so the T-1 per-time evaluations cost O(n T d^2) overall instead of
    O(n T^2 d).
    """

    def __init__(self, trajset: TrajectorySet, theta, psi_scale: float = 1.0):
        self.trajset = trajset
        self.theta = np.asarray(theta, dtype=float)
        self.psi_scale = psi_scale

    @cached_property
    def psi_mat(self) -> np.ndarray:
        return psi_matrix(self.trajset, self.theta, self.psi_scale)

    @cached_property
    def psi_dot(self) -> np.ndarray:
        return jacobian_psi_theta(self.trajset, self.psi_scale)

    @cached_property
    def _phi_pieces(self):
        """Running-cumulant sweep producing phi values and diagonal Jacobians.

        One pass over time with O(n d^2) running state, so the memory stays
        bounded at oracle sample sizes.
        """
        ts = self.trajset
        x = policy_design(ts)
        n, T, d = x.shape
        betas = np.asarray(ts.beta_hats)
        rx_run = np.zeros((n, d))
        gram_run = np.zeros((n, d, d))
        mats, dots = [], np.empty((T - 1, d, d))
        for t in range(1, T):
            xt = x[:, t - 1]
            rx_run = rx_run + ts.rewards[:, t - 1, None] * xt
            gram_run = gram_run + xt[:, :, None] * xt[:, None, :]
            mats.append(rx_run - gram_run @ betas[t - 1])
            dots[t - 1] = -gram_run.sum(axis=0) / n
        return mats, dots

    @cached_property
    def phi_mats(self) -> list[np.ndarray]:
        """phi_t evaluated at the stored beta_hat_t, for t = 1..T-1."""
        return self._phi_pieces[0]

    @cached_property
    def phi_dots(self) -> np.ndarray:
        """Diagonal policy Jacobians, shape (T-1, d_t, d_t); cumulative Grams."""
        return self._phi_pieces[1]


@dataclass(frozen=True)
class EstimationResult:
    """theta-hat with its estimating-function diagnostics and cached blocks."""

    theta_hat: np.ndarray
    beta_hats: np.ndarray
    psi_residual_norm: float
    data_scale: float
    psi_scale: float
    blocks: EstimationBlocks


def fit_theta(trajset: TrajectorySet, psi_scale: float = 1.0) -> EstimationResult:
    """Exact normal-equation root of (1/n) sum_i psi(H_T_i; theta) = 0."""
    z = inference_design(trajset)
    gram = np.einsum("ntk,ntl->kl", z, z)
    rhs = np.einsum("ntk,nt->k", z, trajset.rewards)
    theta = solve_normal_equations(gram, rhs, "inference")
    n = trajset.n_users
    resid_norm = float(
        np.abs(psi_scale * (rhs - gram @ theta) / n).max()
    )
    data_scale = max(1.0, float(np.abs(psi_scale * rhs / n).max()))
    return EstimationResult(
        theta_hat=theta,
        beta_hats=trajset.beta_hats,
        psi_residual_norm=resid_norm,
        data_scale=data_scale,
        psi_scale=psi_scale,
        blocks=EstimationBlocks(trajset, theta, psi_scale),
    )
