"""Standard and adaptive sandwich variance estimators.

The adaptive estimator treats the per-time policy fits as plug-in nuisance
Z-estimators inside the stacked system

    bread = [[Phi_dot_{1:T-1}, 0     ]      meat = (1/n) sum_i u_i u_i'
             [V_hat,           Psi_dot]],

where u_i stacks [phi_1.. phi_{T-1}, psi] for user i, Phi_dot is block lower
triangular (diagonal blocks are the policy Jacobians, sub-diagonal blocks are
outer products of phi values with action-probability ratio gradients), and
V_hat collects the same ratio gradients against psi.  The adaptive covariance
is the lower-right d_theta block of bread^{-1} meat bread^{-T}.

That block is the ordinary sandwich of per-user scores corrected for the
policy fits, c_i = psi_i + sum_t K_t phi_{t,i}, with gains from a backward
recursion in psi-space (g_{c,i} is user i's ratio gradient for beta_c):

    c_i = psi_i,
    K_c = -[(1/n) sum_i c_i g_{c,i}'] Phi_dot_c^{-1},   c_i += K_c phi_{c,i}
                                        for c = T-1 down to 1,
    cov = sandwich_covariance(c, Psi_dot).

So ``sandwich_covariance`` is the one kernel behind both estimators, and with
parameter-free policies (every g = 0) the adaptive covariance is the standard
sandwich bit for bit.  The last block row of bread^{-1} is
Psi_dot^{-1} [K_1 .. K_{T-1}, I].  This path (``adaptive_sandwich``) costs
O(n T d^2) and builds no D x D matrix; the dense stacked system
(``build_stacked_system``) is the cross-check of ``check_equivalence``.

All covariances are scaled as the variance of sqrt(n) (theta_hat - theta*),
so standard errors are sqrt(diag / n).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .core import TrajectorySet
from .errors import DegenerateDesignError, SingularBreadError, SingularPolicyBreadError
from .estimators import EstimationResult, check_conditioned
from .policies import policy_path, prob_slope


# ---------------------------------------------------------------------------
# Radon-Nikodym weight machinery
# ---------------------------------------------------------------------------

def weight_products(trajset) -> np.ndarray:
    """Parameter gradients of the weight product at beta_hat, (..., n, T-1, d_t).

    Entry [i, s] is the gradient of W_{2:T}(beta, beta_hat) w.r.t. the beta_s
    block at beta = beta_hat: the gradient of the realised action's
    probability at decision time s+1 divided by that probability.  The
    beta0 half of each block is zero.
    """
    policy = trajset.config.policy
    *batch, n, T, d_S = trajset.states.shape
    _, pre = policy_path(policy, trajset.states, trajset.beta_hats)
    slope = prob_slope(policy, pre[..., 1:], range(2, T + 1))
    sign = np.where(trajset.actions[..., 1:] == 1, 1.0, -1.0)
    grads = np.zeros((*batch, n, T - 1, 2 * d_S))
    grads[..., d_S:] = (
        (sign * slope)[..., None] * trajset.states[..., 1:, :]
        / trajset.action_probs[..., 1:, None]
    )
    return grads


def confidence_interval(center, se, alpha: float) -> np.ndarray:
    """Normal-quantile intervals center +/- z_{1 - alpha/2} * se, elementwise:
    a (..., 2) array of (lower, upper)."""
    se = np.asarray(se, dtype=float)
    if not (se >= 0).all():  # a NaN se fails too
        raise ValueError(f"se must be >= 0, got {se}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    z = ndtri(1.0 - alpha / 2.0)
    return np.stack([center - z * se, center + z * se], axis=-1)


# ---------------------------------------------------------------------------
# Sandwich estimators
# ---------------------------------------------------------------------------

def sandwich_covariance(psi_mat: np.ndarray, psi_dot: np.ndarray) -> np.ndarray:
    """bread^{-1} meat bread^{-T} with meat = (1/n) sum psi psi'.

    Generic kernel: works for any per-user score matrix (..., n, d) and
    (..., d, d) bread, including the scalar-mean case d = 1, along any leading
    axes.  The callers check the bread first.
    """
    n = psi_mat.shape[-2]
    meat = psi_mat.swapaxes(-1, -2) @ psi_mat / n
    half = np.linalg.solve(psi_dot, meat)
    cov = np.linalg.solve(psi_dot, half.swapaxes(-1, -2)).swapaxes(-1, -2)
    return 0.5 * (cov + cov.swapaxes(-1, -2))


def sandwich(trajset: TrajectorySet, est: EstimationResult) -> np.ndarray:
    """Standard sandwich covariance of sqrt(n)(theta_hat - theta*)."""
    check_conditioned(est.blocks.psi_dot[..., None, :, :], SingularBreadError, "bread")
    return sandwich_covariance(est.blocks.psi_mat, est.blocks.psi_dot)


@dataclass
class StackedSystem:
    """Dense stacked bread and scores for one replication (cross-check)."""

    offsets: np.ndarray
    bread: np.ndarray        # (D, D) block lower triangular
    scores: np.ndarray       # (n, D) per-user stacked [phi_1..phi_{T-1}, psi]
    v_blocks: np.ndarray     # (d_theta, D - d_theta) == V_hat_{T,1:T-1}

    @property
    def dim(self) -> int:
        return int(self.offsets[-1])


def build_stacked_system(
    trajset: TrajectorySet, est: EstimationResult, grads: np.ndarray
) -> StackedSystem:
    n, T = trajset.n_users, trajset.horizon_T
    d_t, d_theta = trajset.config.policy_dim, trajset.config.theta_dim
    blocks = est.blocks

    scores = np.concatenate(blocks.phi_mats + [blocks.psi_mat], axis=1)
    grad_stack = grads.reshape(n, (T - 1) * d_t)
    sizes = [d_t] * (T - 1) + [d_theta]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    dim = offsets[-1]

    cross = scores.T @ grad_stack / n
    bread = np.zeros((dim, dim))
    # strict block-lower part: row block r only keeps gradient columns < r
    for r in range(len(sizes)):
        rlo, rhi = offsets[r], offsets[r + 1]
        bread[rlo:rhi, : offsets[r]] = cross[rlo:rhi, : offsets[r]]
    for t in range(T - 1):
        lo, hi = offsets[t], offsets[t + 1]
        bread[lo:hi, lo:hi] = blocks.phi_dots[t]
    bread[offsets[-2]:, offsets[-2]:] = blocks.psi_dot
    v_blocks = bread[offsets[-2]:, : offsets[-2]]
    return StackedSystem(
        offsets=offsets,
        bread=bread,
        scores=scores,
        v_blocks=v_blocks,
    )


@dataclass(eq=False)
class AdaptiveResult:
    """Adaptive covariance and the last block row of the stacked inverse.

    ``system`` is the dense stacked system behind the same numbers.  It is
    built on first access, for the dense cross-check, and never on the
    replication path.
    """

    cov: np.ndarray
    m_blocks: np.ndarray                  # (d_theta, sum d_t), M_1..M_{T-1}
    invariance_norms: np.ndarray          # (T-1,), ||V_hat_{T,t}||_F
    trajset: TrajectorySet = field(repr=False)
    est: EstimationResult = field(repr=False)
    grads: np.ndarray = field(repr=False)   # weight_products(trajset)

    @cached_property
    def system(self) -> StackedSystem:
        return build_stacked_system(self.trajset, self.est, self.grads)


def adaptive_sandwich(trajset, est: EstimationResult) -> AdaptiveResult:
    """Adaptive sandwich covariance via the backward corrected-score recursion.

    Returns the lower-right d_theta block of bread^{-1} meat bread^{-T}, the
    sandwich of the corrected scores, together with the M_t = Psi_dot^{-1} K_t
    blocks (the lower-left blocks of the stacked inverse) and the per-time
    Frobenius norms of V_hat.  Psi_dot, then the policy blocks (earliest time
    first), are checked before any arithmetic; a batch keeps its leading axis.
    """
    blocks = est.blocks
    check_conditioned(blocks.psi_dot[..., None, :, :], SingularBreadError, "bread")
    check_conditioned(
        blocks.phi_dots, SingularPolicyBreadError, "policy bread", first_t=1
    )
    grads = weight_products(trajset)                  # (..., n, T-1, d_t)
    phi_dot_invs = np.linalg.inv(blocks.phi_dots)     # (..., T-1, d_t, d_t)
    *batch, n, n_blocks, d_t = grads.shape
    gains = np.empty((n_blocks, *batch, trajset.config.theta_dim, d_t))  # K_1..K_{T-1}
    corrected = blocks.psi_mat
    for c in range(n_blocks - 1, -1, -1):
        cross = -(corrected.swapaxes(-1, -2) @ grads[..., c, :] / n)
        gains[c] = cross @ phi_dot_invs[..., c, :, :]
        corrected = corrected + blocks.phi_mats[c] @ gains[c].swapaxes(-1, -2)
    v_hat = np.einsum("...nk,...ntl->...tkl", blocks.psi_mat, grads) / n
    return AdaptiveResult(
        cov=sandwich_covariance(corrected, blocks.psi_dot),
        m_blocks=np.linalg.solve(blocks.psi_dot, np.concatenate(gains, axis=-1)),
        invariance_norms=np.linalg.norm(v_hat, axis=(-2, -1)),
        trajset=trajset,
        est=est,
        grads=grads,
    )


def check_equivalence(
    trajset: TrajectorySet,
    est: EstimationResult,
    adaptive: Optional[AdaptiveResult] = None,
):
    """Gap between the recursion's covariance and the dense corrected-score form.

    The dense form reads the stacked system, computes all gains at once,
    K = -V_hat Phi_dot^{-1}, with one dense solve, and sandwiches the
    corrected scores psi_i + sum_t K_t phi_{t,i}; algebraically this equals
    the stacked lower-right block exactly, so the max-abs elementwise gap is
    pure floating-point noise.  Returns (gap, scale).
    """
    if adaptive is None:
        adaptive = adaptive_sandwich(trajset, est)
    sys = adaptive.system
    beta_dim = sys.offsets[-2]
    gains = -np.linalg.solve(sys.bread[:beta_dim, :beta_dim].T, sys.v_blocks.T).T
    corrected = sys.scores[:, beta_dim:] + sys.scores[:, :beta_dim] @ gains.T
    alt = sandwich_covariance(corrected, sys.bread[beta_dim:, beta_dim:])
    gap = float(np.abs(adaptive.cov - alt).max())
    scale = max(float(np.abs(adaptive.cov).max()), np.finfo(float).tiny)
    return gap, scale


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

@dataclass
class VarianceReport:
    """Covariances (variance of sqrt(n)(theta_hat - theta*)), SEs, and CIs of
    one trajectory, or of each replication of a batch along the leading axes:
    covariances (..., d, d), SEs and ``theta_hat`` (..., d), CIs (..., d, 2)
    holding (lower, upper), invariance norms (..., T-1)."""

    sandwich_cov: np.ndarray
    adaptive_cov: Optional[np.ndarray]
    se_sandwich: np.ndarray
    se_adaptive: Optional[np.ndarray]
    ci_sandwich: np.ndarray
    ci_adaptive: Optional[np.ndarray]
    policy_invariance_norms: Optional[np.ndarray]
    stacked_dim: int
    alpha: float
    theta_hat: np.ndarray

    def to_dict(self) -> dict:
        """Every field, arrays as nested lists."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {
            name: None if v is None else np.asarray(v).tolist()
            for name, v in values.items()
        }


def variance_report(
    trajset, est: EstimationResult, alpha: float = 0.05, which: str = "both"
) -> VarianceReport:
    """The sandwich, and under ``which="both"`` the adaptive sandwich, with
    per-coordinate CIs, for a trajectory or a batch.  Psi_dot, then under
    ``which="both"`` the policy blocks, are checked before any covariance is
    formed; a variance that is not finite and > 0 raises
    ``DegenerateDesignError``."""
    if which not in ("sandwich", "both"):
        raise ValueError(f"unknown variance selection {which!r}")
    blocks, d = est.blocks, trajset.config.theta_dim
    adaptive_cov = norms = None
    if which == "both":
        result = adaptive_sandwich(trajset, est)
        adaptive_cov, norms = result.cov, result.invariance_norms
    else:
        check_conditioned(blocks.psi_dot[..., None, :, :], SingularBreadError, "bread")
    covs = (sandwich_covariance(blocks.psi_mat, blocks.psi_dot), adaptive_cov)
    computed = [c for c in covs if c is not None]
    variances = np.diagonal(np.stack(computed), axis1=-2, axis2=-1)
    if not ((variances > 0) & np.isfinite(variances)).all():
        raise DegenerateDesignError("a plug-in variance is not finite and > 0")
    ses = [*np.sqrt(variances / trajset.n_users), None][:2]  # None: not computed
    cis = [
        None if se is None else confidence_interval(est.theta_hat, se, alpha)
        for se in ses
    ]
    stacked_dim = (trajset.horizon_T - 1) * trajset.config.policy_dim + d
    return VarianceReport(*covs, *ses, *cis, norms, stacked_dim, alpha, est.theta_hat)
