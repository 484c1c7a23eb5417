"""Multiprocessor CPU model: egalitarian processor sharing in virtual time.

The SUT's processors are modelled as a single processor-sharing (PS)
station: all runnable CPU *bursts* receive an equal service rate, capped at
one processor each, with the station's total capacity spread among them.
This matches how a preemptive OS scheduler with small quanta behaves at the
time scales the paper measures (hundreds of microseconds per request).

The implementation uses the classic *virtual time* trick so every state
change costs O(log n) instead of O(n): virtual time ``V(t)`` advances at
the current per-burst rate, a burst of cost ``c`` arriving at ``V`` ends
when ``V`` reaches ``V + c``, and a single timer tracks the earliest
pending virtual finish.

Timer discipline: arrivals can only *slow* the station (more sharers), so
an armed timer can fire early but never late — it is left in place unless
the new burst becomes the earliest finisher.  This keeps re-arms (and
their allocations) down to roughly one per completion, which matters: the
CPU station is on the hot path of every simulated request.  A superseded
timer is never cancelled: it fires as a no-op, rejected by the generation
check, which is cheaper than keeping a cancellable handle per arm.

SMP efficiency
--------------
Linux 2.4 + a 2004 JVM did not scale linearly to 4 processors (big-kernel
lock, JVM lock contention).  ``smp_efficiency`` linearises this:
``capacity(M) = 1 + (M - 1) * smp_efficiency`` processors.  The paper's
observation that 4 CPUs buy ~2x throughput corresponds to ~0.34.

Degradation hooks
-----------------
:attr:`capacity_factor` scales the station capacity; the thread registry
lowers it as the live-thread count grows (scheduler scan, cache/TLB
pressure) and the memory account lowers it under swap pressure.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from ..sim.core import Event, SimulationError, Simulator

__all__ = ["CPU"]

#: Relative tolerance when comparing virtual finish times.
_EPS = 1e-9


class CPU:
    """An ``nproc``-way processor-sharing CPU station."""

    __slots__ = (
        "sim",
        "nproc",
        "smp_efficiency",
        "name",
        "capacity_factor",
        "_capacity",
        "_vtime",
        "_last_sync",
        "_heap",
        "_seq",
        "_timer_gen",
        "_timer_armed",
        "busy_time",
        "total_cost",
        "bursts",
    )

    def __init__(
        self,
        sim: Simulator,
        nproc: int = 1,
        smp_efficiency: float = 1.0,
        name: str = "cpu",
    ) -> None:
        if nproc < 1:
            raise SimulationError(f"nproc must be >= 1, got {nproc}")
        if not (0.0 <= smp_efficiency <= 1.0):
            raise SimulationError("smp_efficiency must be within [0, 1]")
        self.sim = sim
        self.nproc = nproc
        self.smp_efficiency = smp_efficiency
        self.name = name
        self.capacity_factor = 1.0
        self._capacity = self.base_capacity

        self._vtime = 0.0
        self._last_sync = sim.now
        # Entries: (virtual finish, seq, payload) where payload is an
        # Event (execute), a (fn, args) pair (execute_call) or None
        # (charge) — see _on_timer for the completion protocols.
        self._heap: List[Tuple[float, int, object]] = []
        self._seq = 0
        self._timer_gen = 0
        self._timer_armed = False

        # Accounting.
        self.busy_time = 0.0  # integral of occupied capacity over time
        self.total_cost = 0.0  # CPU-seconds of work accepted
        self.bursts = 0

    # -- capacity ----------------------------------------------------------
    @property
    def base_capacity(self) -> float:
        """Capacity in 'processors' after SMP-scaling inefficiency."""
        return 1.0 + (self.nproc - 1) * self.smp_efficiency

    @property
    def capacity(self) -> float:
        """Effective capacity after degradation (thread/memory pressure)."""
        return self._capacity

    @property
    def active(self) -> int:
        """Number of runnable bursts."""
        return len(self._heap)

    def rate(self) -> float:
        """Current per-burst service rate (processor fraction)."""
        n = len(self._heap)
        if n == 0:
            return 0.0
        r = self._capacity / n
        return 1.0 if r > 1.0 else r

    def set_capacity_factor(self, factor: float) -> None:
        """Degrade/restore capacity; takes effect immediately."""
        if factor <= 0.0:
            raise SimulationError(f"capacity factor must be > 0, got {factor}")
        if factor == self.capacity_factor:
            return
        self._sync()
        self.capacity_factor = factor
        self._capacity = self.base_capacity * factor
        # Rate may have *increased*: the armed timer could now be late.
        self._arm_timer()

    # -- execution ---------------------------------------------------------
    def execute(self, cost: float) -> Event:
        """Submit a burst of ``cost`` CPU-seconds; event fires on completion.

        Zero-cost bursts complete on the next simulator step.
        """
        if cost < 0:
            raise SimulationError(f"negative CPU cost {cost!r}")
        ev = Event(self.sim)
        if cost == 0.0:
            ev.succeed()
            return ev
        self._submit(cost, ev)
        return ev

    def execute_call(self, cost: float, fn, *args) -> None:
        """Submit a burst and run ``fn(*args)`` directly on completion.

        Same PS-station model as :meth:`execute`, but completion goes
        through the bare-callback fast path — no :class:`Event` is
        allocated and no kernel dispatch round trip is paid: ``fn`` runs
        inside the station's completion timer.  The callback-side twin of
        :meth:`~repro.net.link.Link.transmit_call`; use :meth:`execute`
        when the caller needs an event to yield on or compose.
        """
        if cost < 0:
            raise SimulationError(f"negative CPU cost {cost!r}")
        if cost == 0.0:
            self.sim.call_later(0.0, fn, *args)
            return
        self._submit(cost, (fn, args))

    def charge(self, cost: float) -> None:
        """Occupy the station for ``cost`` CPU-seconds, fire and forget.

        The burst slows concurrent bursts and is accounted in
        ``busy_time``/``total_cost`` exactly like :meth:`execute`, but no
        completion notification exists at all — the path for discarded
        completion events (SYN-reject charges, aggregated flood costs).
        """
        if cost < 0:
            raise SimulationError(f"negative CPU cost {cost!r}")
        if cost == 0.0:
            return
        self._submit(cost, None)

    def _submit(self, cost: float, payload) -> None:
        """Queue one burst; ``payload`` decides the completion action."""
        self._sync()
        self._seq += 1
        heapq.heappush(self._heap, (self._vtime + cost, self._seq, payload))
        self.total_cost += cost
        self.bursts += 1
        # Arrivals only slow the station, so an armed timer stays safe
        # (fires early, re-checks) unless this burst finishes first.
        if not self._timer_armed or self._heap[0][1] == self._seq:
            self._arm_timer()

    def run(self, cost: float):
        """Generator helper: ``yield from cpu.run(cost)`` inside a process."""
        yield self.execute(cost)

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of total capacity busy over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        self._sync()
        return self.busy_time / (elapsed * self.base_capacity)

    # -- internals ---------------------------------------------------------
    def _sync(self) -> None:
        """Advance virtual time and the busy integral to ``sim.now``."""
        now = self.sim.now
        if now == self._last_sync:
            return
        dt = now - self._last_sync
        if dt > 0.0:
            n = len(self._heap)
            if n:
                r = self._capacity / n
                if r > 1.0:
                    self._vtime += dt
                    self.busy_time += dt * n
                else:
                    self._vtime += dt * r
                    self.busy_time += dt * self._capacity
        self._last_sync = now

    def _arm_timer(self) -> None:
        """(Re-)arm the completion timer for the earliest virtual finish."""
        self._timer_gen += 1
        if not self._heap:
            self._timer_armed = False
            return
        gen = self._timer_gen
        n = len(self._heap)
        rate = self._capacity / n
        if rate > 1.0:
            rate = 1.0
        delay = (self._heap[0][0] - self._vtime) / rate
        if delay < 0.0:
            delay = 0.0
        # Bare-callback scheduling: re-arms happen about once per
        # completion, so skipping the Timeout + lambda + callbacks-list
        # allocation here is a measurable kernel win.  The generation
        # check retires superseded arms (and any timer that fires early).
        self.sim.call_later(delay, self._on_timer, gen)
        self._timer_armed = True

    def _on_timer(self, gen: int) -> None:
        if gen != self._timer_gen:
            return  # stale timer: state changed since it was armed
        self._sync()
        vnow = self._vtime
        tol = _EPS * (vnow if vnow > 1.0 else 1.0)
        heap = self._heap
        while heap and heap[0][0] <= vnow + tol:
            payload = heapq.heappop(heap)[2]
            # Three completion protocols, cheapest check first: a bare
            # (fn, args) pair from execute_call runs in place, an Event
            # from execute goes through kernel dispatch, None (charge)
            # needs nothing.
            if payload is None:
                continue
            if payload.__class__ is tuple:
                fn, args = payload
                fn(*args)
            else:
                payload.succeed()
        self._arm_timer()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CPU(nproc={self.nproc}, active={self.active}, "
            f"capacity={self._capacity:.3f})"
        )
