"""Adaptive idle-timeout control.

httpd2's fixed 15 s ``Timeout``/``KeepAliveTimeout`` is one point on a
curve: it trades held resources (a blocked worker thread, kernel socket
memory) against the chance of resetting a client that was merely
thinking.  A *fixed* point is wrong at both ends — under light load the
server can afford to hold idle connections forever (zero resets, like the
event-driven server), and under heavy pressure 15 s is far too generous.

:class:`AdaptiveTimeout` makes the trade explicit: the applied timeout is
``base`` when the host is unpressured and decays polynomially to
``floor`` as pressure approaches 1, so reaping aggressiveness tracks how
badly the resources are actually needed.

This class only *computes* deadlines; the timers themselves are armed at
the consuming call sites (``server_recv`` idle pauses, the event-driven
sweeper) as kernel timeouts, where the common case — a request arriving
before the adaptive deadline — is a cancel that leaves a heap tombstone.
Tightening the timeout under pressure therefore changes only *when*
reaps fire, never the cost of the (far more numerous) cancels.
"""

from __future__ import annotations

__all__ = ["AdaptiveTimeout"]


class AdaptiveTimeout:
    """Maps resource pressure in [0, 1] to an idle timeout in seconds.

    ``value(p) = max(floor, base * (1 - p) ** gain)`` — ``gain`` shapes
    how sharply the timeout tightens: 0 reproduces a fixed ``base``
    timeout (httpd2's behaviour), 1 is linear, larger values stay lenient
    until pressure is genuinely high.
    """

    def __init__(
        self, base: float = 15.0, floor: float = 2.0, gain: float = 2.0
    ) -> None:
        if base <= 0 or floor <= 0 or floor > base:
            raise ValueError("need 0 < floor <= base")
        if gain < 0:
            raise ValueError("gain must be >= 0")
        self.base = base
        self.floor = floor
        self.gain = gain
        self.last = base
        self.min_applied = base

    def value(self, pressure: float) -> float:
        """The timeout to apply at ``pressure``; records what was applied."""
        p = min(1.0, max(0.0, pressure))
        v = max(self.floor, self.base * (1.0 - p) ** self.gain)
        self.last = v
        if v < self.min_applied:
            self.min_applied = v
        return v

    def reset(self) -> None:
        """Forget the applied-value history (new run/mount)."""
        self.last = self.base
        self.min_applied = self.base

    def __repr__(self) -> str:
        return (
            f"AdaptiveTimeout(base={self.base}, floor={self.floor}, "
            f"gain={self.gain})"
        )
