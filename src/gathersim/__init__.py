"""Gathering of anonymous, oblivious mobile robots under crash faults.

A computational-geometry core (views, rotational symmetry, quasi-regularity,
Weber points, safe points), the destination rule of the wait-free gathering
protocol, and a deterministic semi-synchronous simulator with adversarial
scheduling, movement truncation and crash injection.
"""

from .configuration import (
    ConfigClass,
    Configuration,
    LocationSummary,
    classify,
    is_gathered,
    median_interval,
    safe_points,
)
from .gathering import ComputeDecision, PotentialValue, compute, moving_set, potential
from .geometry import Point, Tolerance
from .simulator import AdversarySpec, RunResult, SimParams, SimState, TraceRecord, run, step
from .symmetry import (
    QRegularityResult,
    View,
    detect_quasi_regular,
    regularity_at,
    successor,
    symmetricity,
    view,
    weber_numeric,
)

__all__ = [
    "AdversarySpec",
    "ComputeDecision",
    "ConfigClass",
    "Configuration",
    "LocationSummary",
    "Point",
    "PotentialValue",
    "QRegularityResult",
    "RunResult",
    "SimParams",
    "SimState",
    "Tolerance",
    "TraceRecord",
    "View",
    "classify",
    "compute",
    "detect_quasi_regular",
    "is_gathered",
    "median_interval",
    "moving_set",
    "potential",
    "regularity_at",
    "run",
    "safe_points",
    "step",
    "successor",
    "symmetricity",
    "view",
    "weber_numeric",
]

__version__ = "0.1.0"
