"""Discrete-event simulation substrate (kernel, resources, RNG streams).

Observability of the simulated system (connection spans, lifecycle
event counts, CPU phases) lives in :mod:`repro.obs`, mounted per run.
"""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupted,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import Resource, Store, StoreFull
from .rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "Interrupted",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "Resource",
    "Store",
    "StoreFull",
    "RandomStreams",
]
