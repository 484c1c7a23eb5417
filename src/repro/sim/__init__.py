"""Discrete-event simulation substrate (kernel, resources, RNG streams)."""

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

from .trace import CONN, ERROR, HTTP, SERVER, TraceEvent, Tracer

__all__ += ["CONN", "ERROR", "HTTP", "SERVER", "TraceEvent", "Tracer"]
