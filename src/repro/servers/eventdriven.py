"""Event-driven (Java NIO) server model — the paper's experimental *nio*.

Architecture, following the paper's description of its NIO server core:

* one *acceptor* thread drains the kernel backlog continuously and
  registers accepted channels with a selector — connection establishment
  therefore never waits for request-processing capacity (flat connection
  times, the paper's figure 4);
* a small number of *worker* threads (1-8) loop on readiness selection:
  read + parse whatever is readable, then write response bytes with
  non-blocking writes until the socket buffer is full, re-registering for
  writability and moving on to the next ready channel — so thousands of
  clients progress concurrently and none starves;
* the server never idle-reaps connections (no thread is held by an idle
  client), which is why it produces **zero** connection-reset errors;
* being Java, all CPU costs carry the JVM factor (see
  ``CostModel.scaled``).

Timer routing: with no per-connection reap timers, this architecture's
only long timers are the opt-in adaptive-timeout sweeper's periodic
wake-up and the shared TCP paths — client-side SYN-retransmit and
response-timeout pauses, which cancel their losing timers when the race
settles.
"""

from __future__ import annotations

from typing import Optional

from ..http.protocol import HttpSemantics
from ..net.selector import READ
from ..net.tcp import EOF, Connection, ListenSocket
from ..osmodel.costs import CostModel
from ..osmodel.machine import Machine
from ..sim.core import Simulator
from .base import SelectorServer, _ChannelState

__all__ = ["EventDrivenServer"]

#: Default Java-vs-native CPU factor for a 2004 JIT JVM on systems code.
DEFAULT_JVM_FACTOR = 1.05


class EventDrivenServer(SelectorServer):
    """NIO-style selector + worker-thread server."""

    name = "nio"

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        listener: ListenSocket,
        workers: int = 1,
        jvm_factor: float = DEFAULT_JVM_FACTOR,
        semantics: Optional[HttpSemantics] = None,
        costs: Optional[CostModel] = None,
        selector_strategy: str = "shared",
        overload=None,
    ) -> None:
        base_costs = (costs or CostModel()).scaled(jvm_factor)
        # "shared": one selector whose ready set all workers drain (the
        # paper's nio design).  "partitioned": one selector per worker and
        # round-robin channel assignment (the Netty/event-loop-group
        # design) — no cross-worker contention, but load can skew.
        n_selectors = workers if selector_strategy == "partitioned" else 1
        super().__init__(
            sim, machine, listener, semantics, base_costs, overload,
            selectors=n_selectors,
        )
        if workers < 1:
            raise ValueError("need at least one worker thread")
        if selector_strategy not in ("shared", "partitioned"):
            raise ValueError(
                f"unknown selector strategy {selector_strategy!r}"
            )
        self.workers = workers
        self.selector_strategy = selector_strategy
        self.events_processed = 0
        self.idle_reaps = 0

    def _spawn(self) -> None:
        registry = self.machine.threads
        registry.spawn(f"{self.name}-acceptor")
        for i in range(self.workers):
            registry.spawn(f"{self.name}-worker-{i}")
        self.sim.process(self._acceptor(), name=f"{self.name}-acceptor")
        for i in range(self.workers):
            self.sim.process(self._worker(i), name=f"{self.name}-worker-{i}")
        if self.overload.timeout is not None:
            # Adaptive-timeout mount turns on idle reaping: a sweeper
            # closes channels idle past the (pressure-dependent) timeout.
            # Without it the server keeps its zero-reset guarantee.
            registry.spawn(f"{self.name}-sweeper")
            self.sim.process(self._sweeper(), name=f"{self.name}-sweeper")

    # ------------------------------------------------------------------
    def _worker(self, index: int):
        """Select -> dispatch -> handle loop."""
        selector = self.selectors[index % len(self.selectors)]
        per_event_cost = self.costs.select_per_event + self.costs.dispatch
        while True:
            conn, kind = yield from selector.next_ready()
            yield self._exec("select", per_event_cost)
            self.events_processed += 1
            state = self._states.get(conn)
            if state is None or state.closed:
                continue  # stale event for a closed channel
            if state.busy:
                # Another worker holds this channel; it will re-check.
                state.deferred = True
                continue
            state.busy = True
            yield from self._handle(conn, state, kind)
            while state.deferred and not state.closed:
                state.deferred = False
                yield from self._handle(conn, state, READ)
            state.busy = False

    # ------------------------------------------------------------------
    def _handle(self, conn: Connection, state: _ChannelState, kind: int):
        """Drain readable data, then pump non-blocking writes."""
        state.last_activity = self.sim.now
        if kind == READ:
            while True:
                item = conn.try_recv()
                if item is None:
                    break
                if item is EOF:
                    yield from self._close(conn, state)
                    return
                yield from self._service_burst(conn)
                state.queue.append(self.semantics.response_wire_bytes(item))
        yield from self._pump_writes(conn, state)

    def _sweeper(self):
        """Reap channels idle past the adaptive timeout (opt-in only).

        Generalizes httpd2's fixed 15 s reaper: the cutoff comes from the
        mounted :class:`~repro.overload.AdaptiveTimeout`, so at low
        pressure idle clients are left alone (long cutoff, few resets)
        and under pressure the selector sheds its idlest channels to
        reclaim kernel memory.
        """
        interval = max(0.5, self.overload.timeout.floor / 2.0)
        while True:
            yield self.sim.timeout(interval)
            cutoff = self.effective_idle_timeout(float("inf"))
            now = self.sim.now
            stale = [
                (conn, state)
                for conn, state in self._states.items()
                if not state.busy
                and state.remaining == 0
                and not state.queue
                and now - state.last_activity > cutoff
            ]
            for conn, state in stale:
                if state.closed or state.busy:
                    continue
                self.idle_reaps += 1
                yield from self._close(conn, state)

    def stats(self):
        out = super().stats()
        out["workers"] = self.workers
        out["selector_strategy"] = self.selector_strategy
        out["events_processed"] = self.events_processed
        out["idle_reaps"] = self.idle_reaps
        out["channels_registered"] = sum(
            s.registered_count for s in self.selectors
        )
        out["ready_backlog"] = sum(s.ready_backlog for s in self.selectors)
        return out
