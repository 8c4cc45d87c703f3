"""Post-trial Z-estimation: theta-hat, the estimating functions, and Jacobians.

The inferential estimating function for one user is

    psi(H_T; theta) = sum_t (R_t - theta0' S_t - theta1 A_t) [S_t; A_t],

and the per-time policy estimating function is

    phi_t(H_t; beta) = sum_{t' <= t} (R_t' - beta0' S_t' - A_t' beta1' S_t')
                       [S_t'; A_t' S_t'].

Both are linear in their parameters, so all Jacobians have closed forms
(negative Gram matrices of the respective regressors) and the fits are exact
normal-equation roots.

Each function here that takes a ``trajset`` also takes a batched
``TrajectorySet`` and works along its leading replication axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDesignError

# Condition-number ceiling shared by all normal-equation solves; beyond this
# a design is treated as degenerate rather than silently pseudo-inverted.
COND_LIMIT = 1e12

# Users per block of fit_theta's Gram product: about 3 MB of rows at T = 50
GRAM_BLOCK_USERS = 2048


def inference_design(trajset) -> np.ndarray:
    """Regressor [S_t; A_t] for psi, shape (..., n, T, d_S + 1)."""
    z = np.empty((*trajset.states.shape[:-1], trajset.config.theta_dim))
    z[..., :-1] = trajset.states
    z[..., -1] = trajset.actions  # no float copy of the actions
    return z


def policy_design(trajset) -> np.ndarray:
    """Regressor [S_t; A_t * S_t] for phi, shape (..., n, T, 2 * d_S)."""
    a = trajset.actions[..., None].astype(float)
    return np.concatenate([trajset.states, a * trajset.states], axis=-1)


def psi_matrix(trajset, theta) -> np.ndarray:
    """Per-user psi values, shape (..., n, d_theta)."""
    z = inference_design(trajset)
    # a batched matmul: einsum("...ntk,...k->...nt") sums in another order
    theta = np.asarray(theta, dtype=float)[..., None, :, None]
    resid = trajset.rewards - (z @ theta)[..., 0]
    return np.einsum("...nt,...ntk->...nk", resid, z)


def solve_or_nan(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """gram^{-1} rhs, or NaNs where the solve finds gram exactly singular.

    ``gram`` may be a (..., d, d) stack with (..., d) right-hand sides; a
    singular matrix in it gives NaNs in its own row only.  A NaN solution is
    left for ``check_conditioned`` to report.
    """
    try:
        return np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if gram.ndim == 2:
            return np.full(rhs.shape, np.nan)
        return np.stack([solve_or_nan(g, b) for g, b in zip(gram, rhs)])


def conditioning_errors(mats, error, what: str, first_t=None, solutions=None) -> list:
    """For each (k, d, d) stack of a (..., k, d, d) array, flattened over the
    leading axes: ``error`` for its earliest ill-posed matrix, or None.

    Matrix i is ill posed when it is non-finite, its 2-norm condition number
    exceeds COND_LIMIT (a singular matrix has cond inf), or row i of
    ``solutions`` is non-finite.  The three are or-ed per matrix, so the
    earliest index wins whichever flags it.  The error carries t = first_t + i
    (None without ``first_t``) and the cond of matrix i (None for a non-finite
    matrix, whose SVD is never taken).
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


def check_conditioned(mats, error, what: str, first_t=None, solutions=None):
    """Raise the first of ``conditioning_errors``, if any."""
    for err in conditioning_errors(mats, error, what, first_t, solutions):
        if err is not None:
            raise err


class EstimationBlocks:
    """Cached per-user estimating-function evaluations and derivative blocks.

    ``psi_dot`` is ``fit_theta``'s Gram scaled by -1/n; the per-user
    evaluations are lazy, so a theta-only consumer (e.g. the large-n oracle run)
    never pays for the per-time phi stacks the variance machinery needs.
    The phi stacks come from per-user cumulants (sum_{t'<=t} of R*x and of
    x x') so the T-1 per-time evaluations cost O(n T d^2) overall instead of
    O(n T^2 d).  For a batch every array has its leading axis.
    """

    def __init__(self, trajset, theta, psi_dot):
        self.trajset = trajset
        self.theta = np.asarray(theta, dtype=float)
        self.psi_dot = psi_dot  # (1/n) sum_i d psi_i / d theta

    @cached_property
    def psi_mat(self) -> np.ndarray:
        return psi_matrix(self.trajset, self.theta)

    @cached_property
    def _phi_pieces(self):
        """Running-cumulant sweep producing phi values and diagonal Jacobians.

        One pass over time with O(n d^2) running state, so the memory stays
        bounded at oracle sample sizes.
        """
        ts = self.trajset
        x = policy_design(ts)
        *batch, n, T, d = x.shape
        rx_run = np.zeros((*batch, n, d))
        gram_run = np.zeros((*batch, n, d, d))
        mats, dots = [], np.empty((*batch, T - 1, d, d))
        for t in range(1, T):
            xt = x[..., t - 1, :]
            rx_run = rx_run + ts.rewards[..., t - 1, None] * xt
            gram_run = gram_run + xt[..., :, None] * xt[..., None, :]
            beta = ts.beta_hats[..., t - 1, None, :, None]
            mats.append(rx_run - (gram_run @ beta)[..., 0])
            dots[..., t - 1, :, :] = -gram_run.sum(axis=-3) / n
        return mats, dots

    @cached_property
    def phi_mats(self) -> list[np.ndarray]:
        """phi_t evaluated at the stored beta_hat_t, for t = 1..T-1."""
        return self._phi_pieces[0]

    @cached_property
    def phi_dots(self) -> np.ndarray:
        """Diagonal policy Jacobians, shape (..., T-1, d_t, d_t); cumulative Grams."""
        return self._phi_pieces[1]


@dataclass(frozen=True)
class EstimationResult:
    """theta-hat with its estimating-function residual and cached blocks."""

    theta_hat: np.ndarray
    psi_residual_norm: float
    blocks: EstimationBlocks


def fit_theta(trajset) -> EstimationResult:
    """Exact normal-equation root of (1/n) sum_i psi(H_T_i; theta) = 0.

    The Gram of [S_t; A_t] and the right-hand side are the leading block and
    the last column of one BLAS product of [S_t; A_t; R_t] with itself,
    summed over blocks of GRAM_BLOCK_USERS users, so no (n, T, d_S + 1)
    design is built.  The blocks have a fixed size, so the summation order
    depends on n and T only: theta-hat's bits do not depend on the BLAS
    thread count.
    """
    n = trajset.n_users
    *batch, _, T, d_S = trajset.states.shape
    k = d_S + 2
    rows = np.empty((*batch, k, min(n, GRAM_BLOCK_USERS), T))
    prod = np.zeros((*batch, k, k))
    # overflowing data ends in the typed error below, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, GRAM_BLOCK_USERS):
            users = slice(lo, lo + GRAM_BLOCK_USERS)
            m = min(n - lo, GRAM_BLOCK_USERS)
            block = rows[..., :m, :]
            block[..., :d_S, :, :] = np.moveaxis(trajset.states[..., users, :, :], -1, -3)
            block[..., d_S, :, :] = trajset.actions[..., users, :]
            block[..., d_S + 1, :, :] = trajset.rewards[..., users, :]
            flat = block.reshape(*batch, k, m * T)
            prod += flat @ flat.swapaxes(-1, -2)
        gram, rhs = prod[..., :-1, :-1], prod[..., :-1, -1]
        theta = solve_or_nan(gram, rhs)
        check_conditioned(
            gram[..., None, :, :], DegenerateDesignError, "inference design",
            solutions=theta[..., None, :],
        )
        residual = (rhs - (gram @ theta[..., None])[..., 0]) / n
    return EstimationResult(
        theta_hat=theta,
        psi_residual_norm=float(np.abs(residual).max(initial=0.0)),
        blocks=EstimationBlocks(trajset, theta, -gram / n),
    )
