"""Parameterized stochastic policy classes.

Three kinds are supported:

* ``boltzmann`` -- clipped-softmax exploration,
  pi(1, s; beta) = Clip[1 / (1 + exp(-rho * beta1' s))] with Clip into
  [pi_min, 1 - pi_min].  Depends on beta1 only.
* ``mirror_descent`` -- one online mirror-descent step,
  pi_t(1, s) = Clip[pi_{t-1}(1, s) + 0.5 * eta_t * beta1' s], starting from
  pi_1 = 0.5; the previous policy is evaluated at the *same* state s.
* ``constant_uniform`` -- probability exactly 0.5 regardless of parameters;
  serves as the exact policy-invariance control (all parameter gradients are
  identically zero).

``policy_path`` evaluates the pre-clip policy map of any kind at every user
and decision time of a trial in one sweep; ``clip_prob`` of its values is the
probability of action 1, which trajectories store, and ``prob_slope`` turns
that probability into the ratio gradients' slopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, real_number

POLICY_KINDS = ("boltzmann", "mirror_descent", "constant_uniform")

# Values per broadcast product of mirror-descent chain terms: all earlier fits
# at once for a cell's batch or an n = 500 trial, one a product at oracle n
CHAIN_BLOCK = 65_536


@dataclass(frozen=True)
class PolicySpec:
    """Policy class identifier plus hyperparameters."""

    kind: str = "boltzmann"
    rho: float = 1.0
    pi_min: float = 0.1
    eta: Union[float, Sequence[float], None] = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {self.kind!r}")
        for name in ("pi_min", "rho"):  # plain floats, as outputs write their repr
            object.__setattr__(self, name, real_number(getattr(self, name), name))
        if not 0.0 < self.pi_min < 0.5:
            raise ConfigError(f"pi_min must be in (0, 0.5), got {self.pi_min}")
        if self.rho < 0 and self.kind == "boltzmann":
            raise ConfigError(f"rho must be >= 0, got {self.rho}")
        if self.kind == "mirror_descent":
            if self.eta is None:
                raise ConfigError("mirror_descent requires eta")
            eta = [real_number(e, "eta") for e in np.atleast_1d(self.eta)]
            if not eta or min(eta) <= 0:
                raise ConfigError("eta must hold one or more entries, all > 0")
            object.__setattr__(self, "eta", tuple(eta))
        elif self.eta is not None:
            raise ConfigError(f"eta is a mirror_descent parameter, not {self.kind}")

    def eta_at(self, t: int) -> float:
        """Learning rate for decision time t (t >= 2); scalar eta applies to all t."""
        eta = self.eta
        if len(eta) == 1:
            return eta[0]
        if not 2 <= t <= len(eta) + 1:
            raise ConfigError(f"no eta configured for decision time {t}")
        return eta[t - 2]


def clip_prob(x, pi_min: float, out=None):
    """Clip(x) = min(max(x, pi_min), 1 - pi_min), np.clip's bits (NaN kept), the
    min in place: an array costs np.clip's one temporary, or none into ``out``."""
    low = np.maximum(x, pi_min, out=out)
    return np.minimum(low, 1.0 - pi_min, out=low if low.ndim else None)


def _linear(states, beta1):
    """beta1' s over the last axis, summed term by term.

    Unlike a matmul, the term-by-term sum gives the same bits for a state
    whether it is evaluated alone or inside a strided block of decision
    times, so every caller of ``policy_path`` sees identical probabilities.
    """
    lin = states[..., 0] * beta1[..., 0]
    for j in range(1, states.shape[-1]):
        lin += states[..., j] * beta1[..., j]
    return lin


def policy_path(spec: PolicySpec, states, beta_hats):
    """Pre-clip action-1 values at the trailing decision times of one trial.

    ``states`` is (..., n, m, d_S) and ``beta_hats`` holds the k stored
    policy fits, (..., k, 2 d_S); the leading axes, if any, index trials
    evaluated side by side.  Column j of ``states`` is decision time
    k - m + 2 + j: the last column is time k + 1, and a full trajectory
    (m = k + 1) starts at time 1, which gets the pre-specified 0.5.  The step
    at decision time t uses ``beta_hats[..., t - 2, :]``; a mirror-descent
    step starts from the chain pi_{t-1}(1, s) through the earlier fits at the
    same state s: one product for the fits before column 0's time, which
    reach every column, then each later fit from its own column on.

    Returns the values before the clip, (..., n, m), 0.5 where no parameter
    enters: ``clip_prob`` of them is the probability of action 1.
    """
    states = np.asarray(states, dtype=float)
    beta_hats = np.asarray(beta_hats, dtype=float)
    *batch, n, m, d_S = states.shape
    k = beta_hats.shape[-2]
    first = k - m + 2  # decision time of column 0
    if first < 1 or beta_hats.shape != (*batch, k, 2 * d_S):
        raise ConfigError(
            f"policy_path: {m} decision times of {d_S}-dim states do not fit "
            f"beta_hats {beta_hats.shape}"
        )
    if spec.kind == "boltzmann":
        lo = max(2 - first, 0)  # first column with a decision time >= 2
        beta1 = beta_hats[..., None, first + lo - 2 :, d_S:]
        pre = _linear(states[..., lo:, :], beta1)
        with np.errstate(over="ignore"):  # exp = inf gives the exact limit 0
            np.exp(np.multiply(pre, -spec.rho, out=pre), out=pre)
        pre += 1.0
        np.divide(1.0, pre, out=pre)  # 1 / (1 + exp(-rho x)), in place
        if lo:  # a column at decision time 1
            pre = np.concatenate([np.full((*batch, n, lo), 0.5), pre], axis=-1)
        return pre
    pre = np.full((m, *batch, n), 0.5)  # time-major, so that tails are contiguous
    if spec.kind == "mirror_descent":
        gain = [0.5 * spec.eta_at(t) for t in range(2, k + 2)]
        gain = np.reshape(gain, (-1,) + (1,) * (states.ndim - 1))  # fit-major
        chain = np.full(pre.shape, 0.5)  # pi_{t-1}(1, s), columns of time >= t
        # (m, *batch, n, d_S) with each state coordinate one contiguous plane
        planes = np.ascontiguousarray(states.transpose(-1, -2, *range(states.ndim - 2)))
        states = planes.transpose(*range(1, planes.ndim), 0)
        # the fits of times t <= first reach every column: their terms in
        # fit-major products of CHAIN_BLOCK values, then add and clip in place;
        # the last sum is column 0's pre (later columns are overwritten below)
        h, per = first - 1, max(1, CHAIN_BLOCK // max(1, chain.size))
        for lo in range(0, h, per):
            hi = min(lo + per, h)
            fits = np.moveaxis(beta_hats[..., lo:hi, None, d_S:], -3, 0)[:, None]
            terms = _linear(states, fits)
            terms *= gain[lo:hi]
            for term in terms:
                clip_prob(np.add(chain, term, out=pre), spec.pi_min, out=chain)
        # each later fit, of time first + j, updates the tail from column j on
        for t in range(first + 1, k + 2):
            j = t - first
            lin = _linear(states[j:], beta_hats[..., None, t - 2, d_S:])
            step = np.add(chain[j:], gain[t - 2] * lin, out=pre[j:])
            clip_prob(step, spec.pi_min, out=chain[j:])
    return np.ascontiguousarray(pre.transpose(*range(1, pre.ndim), 0))


def prob_slope(spec: PolicySpec, pre, times):
    """Derivative of the action-1 probability along beta1' s.

    ``pre`` holds action-1 values, pre-clip or clipped (the same bits: the
    clip returns a value unchanged exactly where it is live, strictly inside
    (pi_min, 1 - pi_min)), with decision times ``times`` on its last axis.
    The slope is rho p (1 - p) for boltzmann (p = pre) and 0.5 eta_t for
    mirror descent; it is 0 for constant_uniform and where the clip saturates.
    """
    pre = np.asarray(pre, dtype=float)
    if spec.kind == "boltzmann":
        slope = spec.rho * pre * (1.0 - pre)
    elif spec.kind == "mirror_descent":
        slope = 0.5 * np.array([spec.eta_at(t) for t in times])
    else:
        return np.zeros_like(pre)
    live = (pre > spec.pi_min) & (pre < 1.0 - spec.pi_min)
    return np.where(live, slope, 0.0)


def realized_from_p1(p1, action, pi_min: float):
    """p1 if action is 1 else 1 - p1, snapped back into [pi_min, 1 - pi_min]:
    the realised action's probability, which divides the weight gradients.

    The snap only corrects the one-ulp drift of 1 - p1 at a clip boundary
    (e.g. 1 - 0.9 in binary), keeping every realised probability inside the
    exploration interval exactly.
    """
    out = np.where(np.asarray(action) == 1, p1, 1.0 - np.asarray(p1))
    return clip_prob(out, pi_min)
