"""Parameterized stochastic policy classes.

Three kinds are supported:

* ``boltzmann`` -- clipped-softmax exploration,
  pi(1, s; beta) = Clip[expit(rho * beta1' s)] with Clip into
  [pi_min, 1 - pi_min].  Depends on beta1 only.
* ``mirror_descent`` -- one online mirror-descent step,
  pi_t(1, s) = Clip[pi_{t-1}(1, s) + 0.5 * eta_t * beta1' s], starting from
  pi_1 = 0.5; the previous policy is evaluated at the *same* state s.
* ``constant_uniform`` -- probability exactly 0.5 regardless of parameters;
  serves as the exact policy-invariance control (all parameter gradients are
  identically zero).

``policy_path`` evaluates the policy map of any kind at every user and
decision time of a trial in one sweep; ``prob_slope`` turns its pre-clip
values into the derivatives behind the ratio gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import expit

from .errors import ConfigError, real_number

POLICY_KINDS = ("boltzmann", "mirror_descent", "constant_uniform")


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
        if not 0.0 < real_number(self.pi_min, "pi_min") < 0.5:
            raise ConfigError(f"pi_min must be in (0, 0.5), got {self.pi_min}")
        if real_number(self.rho, "rho") < 0 and self.kind == "boltzmann":
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

    def eta_at(self, t: Optional[int]) -> float:
        """Learning rate for decision time t (t >= 2); scalar eta applies to all t."""
        eta = self.eta
        if eta is None:
            raise ConfigError("eta requested for a policy without one")
        if len(eta) == 1:
            return eta[0]
        if t is None:
            raise ConfigError("per-time eta sequence requires a decision time t")
        if not 2 <= t <= len(eta) + 1:
            raise ConfigError(f"no eta configured for decision time {t}")
        return eta[t - 2]


def clip_prob(x, pi_min: float):
    """Clip(x) = min(max(x, pi_min), 1 - pi_min)."""
    return np.clip(x, pi_min, 1.0 - pi_min)


def _linear(states, beta1):
    """beta1' s over the last axis, summed term by term.

    Unlike a matmul, the term-by-term sum gives the same bits for a state
    whether it is evaluated alone or inside a strided block of decision
    times, so every caller of ``policy_path`` sees identical probabilities.
    """
    lin = states[..., 0] * beta1[..., 0]
    for j in range(1, states.shape[-1]):
        lin = lin + states[..., j] * beta1[..., j]
    return lin


def policy_path(spec: PolicySpec, states, beta_hats, betas=None):
    """Action-1 probabilities at the trailing decision times of one trial.

    ``states`` is (n, m, d_S) and ``beta_hats`` holds the k stored policy
    fits, (k, 2 d_S).  Column j of ``states`` is decision time k - m + 2 + j:
    the last column is time k + 1, and a full trajectory (m = k + 1) starts
    at time 1, which gets the pre-specified 0.5.  The step at decision time t
    uses ``betas[t - 2]`` (``beta_hats`` by default); a mirror-descent step
    starts from the chain pi_{t-1}(1, s) through ``beta_hats`` at the same
    state s, swept over all columns at once in k vectorised steps.

    Returns (p1, pre), both (n, m): the clipped probability of action 1 and
    its value before the clip (0.5 where no parameter enters).
    """
    states = np.asarray(states, dtype=float)
    beta_hats = np.asarray(beta_hats, dtype=float)
    betas = beta_hats if betas is None else np.asarray(betas, dtype=float)
    n, m, d_S = states.shape
    k = len(beta_hats)
    first = k - m + 2  # decision time of column 0
    if first < 1 or betas.shape != beta_hats.shape or beta_hats.shape[1:] != (2 * d_S,):
        raise ConfigError(
            f"policy_path: {m} decision times of {d_S}-dim states do not fit "
            f"beta_hats {beta_hats.shape} and betas {betas.shape}"
        )
    pre = np.full((n, m), 0.5)
    if spec.kind == "boltzmann":
        lo = max(2 - first, 0)  # first column with a decision time >= 2
        beta1 = betas[first + lo - 2 :, d_S:]
        pre[:, lo:] = expit(spec.rho * _linear(states[:, lo:], beta1))
    elif spec.kind == "mirror_descent":
        chain = np.full((n, m), 0.5)  # pi_{t-1}(1, s) for the columns after t
        for t in range(2, k + 2):
            half_eta = 0.5 * spec.eta_at(t)
            j = t - first  # the column whose decision time is t
            if j >= 0:
                lin = _linear(states[:, j], betas[t - 2, d_S:])
                pre[:, j] = chain[:, j] + half_eta * lin
            c = max(j + 1, 0)
            if c < m:
                lin = _linear(states[:, c:], beta_hats[t - 2, d_S:])
                chain[:, c:] = clip_prob(chain[:, c:] + half_eta * lin, spec.pi_min)
    return clip_prob(pre, spec.pi_min), pre


def prob_slope(spec: PolicySpec, pre, times):
    """Derivative of the action-1 probability along beta1' s.

    ``pre`` holds ``policy_path``'s pre-clip values with decision times
    ``times`` on its last axis.  The slope is rho p (1 - p) for boltzmann
    (p = pre) and 0.5 eta_t for mirror descent; it is 0 for constant_uniform
    and wherever the clip saturates (pre outside (pi_min, 1 - pi_min)).
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


def sample_action(stream: np.random.Generator, prob1) -> np.ndarray:
    """Bernoulli(prob1) draw(s) from the given stream, as int8 {0,1}."""
    prob1 = np.asarray(prob1, dtype=float)
    u = stream.random(prob1.shape) if prob1.shape else stream.random()
    return (u < prob1).astype(np.int8)


def realized_from_p1(p1, action, pi_min: float):
    """p1 if action is 1 else 1 - p1, snapped back into [pi_min, 1 - pi_min].

    The snap only corrects the one-ulp drift of 1 - p1 at a clip boundary
    (e.g. 1 - 0.9 in binary), keeping every stored probability inside the
    exploration interval exactly.
    """
    out = np.where(np.asarray(action) == 1, p1, 1.0 - np.asarray(p1))
    return np.clip(out, pi_min, 1.0 - pi_min)
