"""Fluid network links.

A :class:`Link` is a unidirectional store-and-forward pipe: transmissions
serialize at ``bandwidth`` bytes/s (FIFO, like frames on a wire) and then
experience a fixed propagation ``latency``.  This O(1)-per-transmission
fluid model captures exactly what the paper's experiments exercise —
bandwidth ceilings, queueing delay growth at saturation, and the extra
congestion caused by handshake/reset traffic — without per-packet events.

A :class:`DuplexLink` pairs an uplink (clients → SUT) and a downlink
(SUT → clients), mirroring full-duplex Ethernet with a crossover cable as
used in the paper's testbed.

Timer routing: delivery timers always fire, so they use the kernel's
non-cancellable fast paths — :meth:`Link.transmit` a pooled Timeout,
:meth:`Link.transmit_call` a pooled bare callback.  Cancellation
pressure from transmissions that *race* these timers (SYN retransmits,
response timeouts) lives at the call sites in :mod:`repro.net.tcp`,
which cancel their losing pause timers.
"""

from __future__ import annotations

from ..sim.core import Event, SimulationError, Simulator

__all__ = ["Link", "DuplexLink"]


class Link:
    """Unidirectional fluid link with FIFO serialization."""

    __slots__ = (
        "sim",
        "name",
        "bandwidth",
        "latency",
        "_busy_until",
        "bytes_sent",
        "transmissions",
        "loss",
        "loss_rng",
        "retransmit_delay",
        "losses",
    )

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bytes_per_s: float,
        latency_s: float = 0.0002,
        name: str = "link",
        loss: float = 0.0,
        loss_rng=None,
        retransmit_delay: float = 0.05,
    ) -> None:
        if bandwidth_bytes_per_s <= 0:
            raise SimulationError("bandwidth must be positive")
        if latency_s < 0:
            raise SimulationError("latency must be non-negative")
        if not 0.0 <= loss < 1.0:
            raise SimulationError("loss must be in [0, 1)")
        if loss > 0.0 and loss_rng is None:
            raise SimulationError("a lossy link needs loss_rng")
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth_bytes_per_s)
        self.latency = float(latency_s)
        self._busy_until = 0.0
        self.bytes_sent = 0
        self.transmissions = 0
        self.loss = float(loss)
        self.loss_rng = loss_rng
        self.retransmit_delay = float(retransmit_delay)
        self.losses = 0

    def _lossy_done(self, done: float, nbytes: int) -> float:
        """Fluid loss model: each drop costs one RTO + re-serialization.

        Capped retries keep the worst case bounded; the RNG is consumed
        *only* on lossy links, so loss-free runs draw zero extra samples
        and stay byte-identical to pre-loss behaviour.
        """
        retries = 0
        while retries < 8 and self.loss_rng.random() < self.loss:
            done += self.retransmit_delay + nbytes / self.bandwidth
            self.bytes_sent += nbytes
            self.losses += 1
            retries += 1
        return done

    def transmit(self, nbytes: int) -> Event:
        """Send ``nbytes``; the event fires when the last byte *arrives*.

        Transmissions queue FIFO behind whatever is already on the wire.
        """
        if nbytes <= 0:
            raise SimulationError(f"cannot transmit {nbytes} bytes")
        now = self.sim.now
        start = max(now, self._busy_until)
        done = start + nbytes / self.bandwidth
        self.bytes_sent += nbytes
        self.transmissions += 1
        if self.loss > 0.0:
            done = self._lossy_done(done, nbytes)
        self._busy_until = done
        return self.sim.timeout(done + self.latency - now)

    def transmit_call(self, nbytes: int, fn, *args) -> None:
        """Send ``nbytes`` and run ``fn(*args)`` when the last byte arrives.

        Same fluid model as :meth:`transmit`, but scheduled through the
        kernel's bare-callback fast path — no :class:`Event` is allocated.
        Use this when the delivery only needs to trigger a callback (the
        per-segment hot path of the TCP layer); use :meth:`transmit` when
        the caller needs an event to yield on or compose.
        """
        if nbytes <= 0:
            raise SimulationError(f"cannot transmit {nbytes} bytes")
        now = self.sim.now
        start = now if now > self._busy_until else self._busy_until
        done = start + nbytes / self.bandwidth
        self.bytes_sent += nbytes
        self.transmissions += 1
        if self.loss > 0.0:
            done = self._lossy_done(done, nbytes)
        self._busy_until = done
        self.sim.call_later(done + self.latency - now, fn, *args)

    def queue_delay(self) -> float:
        """Seconds a transmission issued now would wait before starting."""
        return max(0.0, self._busy_until - self.sim.now)

    def utilization(self, elapsed: float) -> float:
        """Mean utilisation over ``elapsed`` seconds of wall-clock."""
        if elapsed <= 0:
            return 0.0
        return self.bytes_sent / (elapsed * self.bandwidth)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.name!r}, {self.bandwidth / 1e6:.1f} MB/s, "
            f"queued={self.queue_delay() * 1e3:.2f} ms)"
        )


class DuplexLink:
    """Paired uplink/downlink between one client machine and the SUT."""

    __slots__ = ("up", "down")

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bytes_per_s: float,
        latency_s: float = 0.0002,
        name: str = "eth",
        loss: float = 0.0,
        loss_rng=None,
        retransmit_delay: float = 0.05,
    ) -> None:
        self.up = Link(
            sim, bandwidth_bytes_per_s, latency_s, f"{name}-up",
            loss=loss, loss_rng=loss_rng, retransmit_delay=retransmit_delay,
        )
        self.down = Link(
            sim, bandwidth_bytes_per_s, latency_s, f"{name}-down",
            loss=loss, loss_rng=loss_rng, retransmit_delay=retransmit_delay,
        )

    @property
    def rtt(self) -> float:
        """Idle round-trip time."""
        return self.up.latency + self.down.latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DuplexLink(up={self.up!r}, down={self.down!r})"
