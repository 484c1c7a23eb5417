"""Kernel class lookup kept for ``perfbench/``, which imports it.

There is one kernel, :class:`repro.sim.core.Simulator`; remove this
module once the benchmark stops importing it.
"""

from .core import Simulator

__all__ = ["simulator_class"]


def simulator_class(backend=None) -> type:
    """The kernel class; ``backend`` is ignored."""
    return Simulator
