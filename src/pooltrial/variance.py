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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .core import TrajectorySet
from .errors import SingularBreadError, SingularPolicyBreadError
from .estimators import COND_LIMIT, EstimationResult, condition_number
from .policies import policy_path, prob_slope, realized_from_p1


# ---------------------------------------------------------------------------
# Radon-Nikodym weight machinery
# ---------------------------------------------------------------------------

def weight_products(trajset: TrajectorySet) -> np.ndarray:
    """Parameter gradients of the weight product at beta_hat, (n, T-1, d_t).

    Entry [i, s] is the gradient of W_{2:T}(beta, beta_hat) w.r.t. the beta_s
    block at beta = beta_hat: the gradient of the realised action's
    probability at decision time s+1 divided by that probability.  The
    beta0 half of each block is zero.
    """
    policy = trajset.config.policy
    n, T, d_S = trajset.states.shape
    _, pre = policy_path(policy, trajset.states, trajset.beta_hats)
    slope = prob_slope(policy, pre[:, 1:], range(2, T + 1))
    sign = np.where(trajset.actions[:, 1:] == 1, 1.0, -1.0)
    grads = np.zeros((n, T - 1, 2 * d_S))
    grads[..., d_S:] = (
        (sign * slope)[..., None] * trajset.states[:, 1:]
        / trajset.action_probs[:, 1:, None]
    )
    return grads


def weight_product_at(trajset: TrajectorySet, betas) -> np.ndarray:
    """Per-user product W_{2:T}(beta_{1:T-1}, beta_hat_{1:T-1}).

    ``betas`` is a (T-1, d_t) array (or sequence) of alternative policy
    parameters; the denominator is the stored sampling probability of the
    realised action, and a mirror-descent step stays anchored at the
    realised previous policy.
    """
    policy = trajset.config.policy
    p1, _ = policy_path(policy, trajset.states, trajset.beta_hats, betas)
    num = realized_from_p1(p1[:, 1:], trajset.actions[:, 1:], policy.pi_min)
    return np.prod(num / trajset.action_probs[:, 1:], axis=1)


def confidence_interval(center: float, se: float, alpha: float):
    """Normal-quantile interval center +/- z_{1 - alpha/2} * se."""
    if se < 0:
        raise ValueError(f"se must be >= 0, got {se}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    z = ndtri(1.0 - alpha / 2.0)
    return float(center - z * se), float(center + z * se)


# ---------------------------------------------------------------------------
# Sandwich estimators
# ---------------------------------------------------------------------------

def _check_bread(psi_dot: np.ndarray) -> None:
    cond = condition_number(psi_dot)
    if cond > COND_LIMIT:
        raise SingularBreadError(f"singular bread (cond={cond:.3e})", cond=cond)


def _check_policy_breads(phi_dots: np.ndarray) -> None:
    """Raise for the earliest ill-conditioned diagonal block Phi_dot_t."""
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = np.linalg.cond(phi_dots)
    bad = np.flatnonzero(~(conds <= COND_LIMIT))
    if bad.size:
        t = int(bad[0]) + 1
        cond = condition_number(phi_dots[t - 1])
        raise SingularPolicyBreadError(
            f"singular policy bread at t={t} (cond={cond:.3e})", t=t, cond=cond
        )


def sandwich_covariance(psi_mat: np.ndarray, psi_dot: np.ndarray) -> np.ndarray:
    """bread^{-1} meat bread^{-T} with meat = (1/n) sum psi psi'.

    Generic kernel: works for any per-user score matrix (n, d) and d x d
    bread, including the scalar-mean case d = 1.
    """
    psi_mat = np.atleast_2d(np.asarray(psi_mat, dtype=float))
    psi_dot = np.atleast_2d(np.asarray(psi_dot, dtype=float))
    _check_bread(psi_dot)
    n = psi_mat.shape[0]
    meat = psi_mat.T @ psi_mat / n
    half = np.linalg.solve(psi_dot, meat)
    cov = np.linalg.solve(psi_dot, half.T).T
    return 0.5 * (cov + cov.T)


def sandwich(trajset: TrajectorySet, est: EstimationResult) -> np.ndarray:
    """Standard sandwich covariance of sqrt(n)(theta_hat - theta*)."""
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


def adaptive_sandwich(trajset: TrajectorySet, est: EstimationResult) -> AdaptiveResult:
    """Adaptive sandwich covariance via the backward corrected-score recursion.

    Returns the lower-right d_theta block of bread^{-1} meat bread^{-T}, the
    sandwich of the corrected scores, together with the M_t = Psi_dot^{-1} K_t
    blocks (the lower-left blocks of the stacked inverse) and the per-time
    Frobenius norms of V_hat.  The diagonal blocks are checked before any
    arithmetic, earliest time first and Psi_dot last.
    """
    blocks = est.blocks
    n = trajset.n_users
    _check_policy_breads(blocks.phi_dots)
    _check_bread(blocks.psi_dot)
    grads = weight_products(trajset)                  # (n, T-1, d_t)
    phi_dot_invs = np.linalg.inv(blocks.phi_dots)     # (T-1, d_t, d_t)

    n_blocks, d_t = grads.shape[1:]
    gains = np.empty((n_blocks, trajset.config.theta_dim, d_t))   # K_1..K_{T-1}
    corrected = blocks.psi_mat
    for c in range(n_blocks - 1, -1, -1):
        gains[c] = -(corrected.T @ grads[:, c] / n) @ phi_dot_invs[c]
        corrected = corrected + blocks.phi_mats[c] @ gains[c].T
    v_hat = np.einsum("nk,ntl->tkl", blocks.psi_mat, grads) / n
    return AdaptiveResult(
        cov=sandwich_covariance(corrected, blocks.psi_dot),
        m_blocks=np.linalg.solve(blocks.psi_dot, np.concatenate(gains, axis=1)),
        invariance_norms=np.linalg.norm(v_hat, axis=(1, 2)),
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
    """Covariances (variance of sqrt(n)(theta_hat - theta*)), SEs, and CIs."""

    sandwich_cov: np.ndarray
    adaptive_cov: Optional[np.ndarray]
    se_sandwich: np.ndarray
    se_adaptive: Optional[np.ndarray]
    ci_sandwich: list
    ci_adaptive: Optional[list]
    policy_invariance_norms: Optional[np.ndarray]
    stacked_dim: int
    alpha: float
    theta_hat: np.ndarray = field(default=None)

    def to_dict(self) -> dict:
        def arr(a):
            return None if a is None else np.asarray(a).tolist()

        return {
            "alpha": self.alpha,
            "theta_hat": arr(self.theta_hat),
            "stacked_dim": self.stacked_dim,
            "sandwich_cov": arr(self.sandwich_cov),
            "adaptive_cov": arr(self.adaptive_cov),
            "se_sandwich": arr(self.se_sandwich),
            "se_adaptive": arr(self.se_adaptive),
            "ci_sandwich": arr(self.ci_sandwich),
            "ci_adaptive": arr(self.ci_adaptive),
            "policy_invariance_norms": arr(self.policy_invariance_norms),
        }


def variance_report(
    trajset: TrajectorySet,
    est: EstimationResult,
    alpha: float = 0.05,
    which: str = "both",
) -> VarianceReport:
    """Compute the requested variance estimators and per-coordinate CIs."""
    if which not in ("sandwich", "adaptive", "both"):
        raise ValueError(f"unknown variance selection {which!r}")
    d_theta = trajset.config.theta_dim
    stacked_dim = (trajset.horizon_T - 1) * trajset.config.policy_dim + d_theta

    covs = {"sandwich": sandwich(trajset, est)}
    norms = None
    if which != "sandwich":
        result = adaptive_sandwich(trajset, est)
        covs["adaptive"] = result.cov
        norms = result.invariance_norms
    ses, cis = {}, {}
    for name, cov in covs.items():
        ses[name] = np.sqrt(np.diag(cov) / trajset.n_users)
        cis[name] = [
            confidence_interval(center, se, alpha)
            for center, se in zip(est.theta_hat, ses[name])
        ]

    return VarianceReport(
        sandwich_cov=covs["sandwich"],
        adaptive_cov=covs.get("adaptive"),
        se_sandwich=ses["sandwich"],
        se_adaptive=ses.get("adaptive"),
        ci_sandwich=cis["sandwich"],
        ci_adaptive=cis.get("adaptive"),
        policy_invariance_norms=norms,
        stacked_dim=stacked_dim,
        alpha=alpha,
        theta_hat=est.theta_hat,
    )
