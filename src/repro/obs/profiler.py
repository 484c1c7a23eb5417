"""Where do the server's CPU-seconds go: the phase table view.

Every simulated server charges CPU through ``cpu.execute(cost)`` at a
handful of well-known sites (accept, selector scan, parse, file service,
transmit, close, ...).  With an :class:`~repro.obs.observer.Observer`
mounted, each site also attributes its cost to a named phase in the
observer's ``cpu_seconds``, so a run can answer the question the
paper's figures only imply: per architecture, how much CPU went to
parsing vs serving vs selector overhead vs scheduler loss.

Attribution happens at submission time (costs are deterministic), so it
adds one dict update per burst and nothing to the event loop.
:class:`PhaseProfiler` is the table/share view over such a mapping
(``Observer.profile``).
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["PhaseProfiler"]


class PhaseProfiler:
    """CPU-seconds per named phase, with snapshot/share/table views."""

    def __init__(self, cpu_seconds: Optional[Dict[str, float]] = None) -> None:
        #: Phase -> CPU-seconds; shared, not copied, when passed in.
        self.cpu_seconds = cpu_seconds if cpu_seconds is not None else {}

    @property
    def attributed(self) -> float:
        """Total CPU-seconds attributed to any phase."""
        return sum(self.cpu_seconds.values())

    def snapshot(self, total: Optional[float] = None) -> Dict[str, float]:
        """Per-phase CPU-seconds, plus ``unattributed`` when ``total``
        (e.g. ``cpu.total_cost``) is supplied."""
        out = dict(sorted(self.cpu_seconds.items()))
        if total is not None:
            out["unattributed"] = max(0.0, total - self.attributed)
        return out

    def shares(self, total: Optional[float] = None) -> Dict[str, float]:
        """Fractions of the attributed (or supplied) total per phase."""
        snap = self.snapshot(total)
        denom = sum(snap.values())
        if denom <= 0.0:
            return {phase: 0.0 for phase in snap}
        return {phase: cost / denom for phase, cost in snap.items()}

    def table(self, total: Optional[float] = None) -> str:
        """Aligned plain-text phase table (CPU-seconds and share)."""
        snap = self.snapshot(total)
        denom = sum(snap.values()) or 1.0
        width = max((len(p) for p in snap), default=5)
        lines = [
            f"{phase.rjust(width)}  {cost * 1e3:10.3f} ms  "
            f"{100.0 * cost / denom:5.1f}%"
            for phase, cost in snap.items()
        ]
        return "\n".join(lines) or "(no CPU attributed)"
