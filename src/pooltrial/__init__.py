"""Simulation and post-trial inference for pooled adaptive sampling trials.

The package simulates longitudinal trials in which an online algorithm refits
its action-selection policy at every decision time from all users' pooled
history, then performs Z-estimation on the collected data with both the
standard sandwich variance estimator and the adaptive sandwich estimator that
corrects for the cross-user dependence the pooling induces.
"""

__version__ = "0.1.0"

from .core import (
    EnvConfig,
    SeedPlan,
    TrajectorySet,
    TrialConfig,
    derive_stream,
)
from .estimators import EstimationResult, fit_theta
from .montecarlo import CoverageCell, estimate_theta_star, run_cell, run_grid
from .policies import PolicySpec
from .simulator import run_trial
from .variance import (
    VarianceReport,
    adaptive_sandwich,
    confidence_interval,
    sandwich,
    variance_report,
    weight_products,
)

__all__ = [
    "EnvConfig",
    "SeedPlan",
    "TrajectorySet",
    "TrialConfig",
    "derive_stream",
    "EstimationResult",
    "fit_theta",
    "CoverageCell",
    "estimate_theta_star",
    "run_cell",
    "run_grid",
    "PolicySpec",
    "run_trial",
    "VarianceReport",
    "adaptive_sandwich",
    "confidence_interval",
    "sandwich",
    "variance_report",
    "weight_products",
]
