"""Exception types with the package's exit-code contract.

exit_code mapping used by the CLI: 1 for usage/config problems, 2 for
numerical failures (degenerate designs, singular bread matrices), 3 for
diagnostic-suite failures.
"""

import math
from numbers import Integral, Real


class PoolTrialError(Exception):
    exit_code = 1


class ConfigError(PoolTrialError):
    """Invalid configuration, unknown labels, or misuse of an operation."""

    exit_code = 1


def real_number(value, name: str) -> float:
    """``value`` as a float if it is a finite real number, else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def integer(value, name: str) -> int:
    """``value`` as an int if it is an integer (not a bool), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


class DataIntegrityError(PoolTrialError):
    """Stored trajectory data violates a structural invariant."""

    exit_code = 1


class NumericalError(PoolTrialError):
    """An ill-posed solve; ``t`` is its decision time, ``cond`` its condition
    number (None for a non-finite matrix)."""

    exit_code = 2

    def __init__(self, message, t=None, cond=None):
        super().__init__(message)
        self.t = t
        self.cond = cond


class DegenerateDesignError(NumericalError):
    """Pooled regression design is rank deficient; the replication aborts."""


class SingularBreadError(NumericalError):
    """The theta-block bread matrix is singular (condition number attached)."""


class SingularPolicyBreadError(NumericalError):
    """A diagonal policy block of the stacked bread is singular at time t."""


class DiagnosticFailure(PoolTrialError):
    """A diagnostic suite reported a check violation."""

    exit_code = 3
