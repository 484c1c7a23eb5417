"""Workload substrate: SURGE distributions, httperf clients, session logs."""

from .distributions import (
    BoundedPareto,
    Constant,
    Distribution,
    Exponential,
    Geometric,
    Lognormal,
)
from .fluid import FluidClass, FluidConfig, LoadGenerator
from .httperf import EmulatedClient, HttperfConfig
from .sessionlog import ReplayWorkload, SessionLog
from .surge import SessionPlan, SurgeConfig, SurgeWorkload

__all__ = [
    "BoundedPareto",
    "Constant",
    "Distribution",
    "Exponential",
    "Geometric",
    "Lognormal",
    "EmulatedClient",
    "FluidClass",
    "FluidConfig",
    "HttperfConfig",
    "LoadGenerator",
    "ReplayWorkload",
    "SessionLog",
    "SessionPlan",
    "SurgeConfig",
    "SurgeWorkload",
]
