"""Common interface and shared I/O of the web-server models under test.

The architectures differ in how they map threads onto connections; the
I/O under that choice lives here once.  :class:`Server` owns the start
guard, the close path (charge the close CPU, then close the server end)
and the blocking chunk writer; :class:`SelectorServer` adds what every
readiness-selection design shares — the selectors, the per-channel
state, the acceptor loop and the non-blocking write pump.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from ..http.protocol import HttpSemantics
from ..net.selector import READ, WRITE, Selector
from ..net.tcp import Connection, ListenSocket
from ..osmodel.costs import CostModel
from ..osmodel.machine import Machine
from ..overload import OverloadControl
from ..sim.core import Simulator

__all__ = ["Server", "SelectorServer"]


class Server:
    """Base class: owns the listener, machine and protocol semantics.

    Subclasses implement :meth:`_spawn` (spawn their threads/processes) and
    populate ``requests_served`` / ``connections_handled`` as they work.

    Every server carries an :class:`~repro.overload.OverloadControl`
    (inert by default: always-admit, FIFO, fixed timeouts) and mounts it
    on its listener, so admission, queue discipline and early-close
    decisions are driven by the same policy objects on every
    architecture.  Pass ``overload=`` to make the control active.
    """

    name = "server"

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        listener: ListenSocket,
        semantics: Optional[HttpSemantics] = None,
        costs: Optional[CostModel] = None,
        overload: Optional[OverloadControl] = None,
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.listener = listener
        self.semantics = semantics or HttpSemantics()
        self.costs = costs or CostModel()
        self.overload = overload if overload is not None else OverloadControl()
        if listener.overload is None:
            listener.overload = self.overload
        self.requests_served = 0
        self.connections_handled = 0
        self.started = False
        #: The run's :class:`~repro.obs.Observer` (or ``None``), read off
        #: the listener: every CPU burst issued through :meth:`_exec` is
        #: attributed to a phase.
        self.obs = self.listener.obs

    def start(self) -> None:
        """Spawn the server's threads/processes onto the simulator (once)."""
        if self.started:
            raise RuntimeError("server already started")
        self.started = True
        self._spawn()

    def _spawn(self) -> None:
        """Spawn the architecture's threads and processes."""
        raise NotImplementedError

    # -- overload-control hooks ---------------------------------------------
    def pressure(self) -> float:
        """Composite resource pressure in [0, 1] for adaptive policies.

        The maximum of memory pressure and accept-queue occupancy — the
        two signals a 2004-era server can cheaply observe about itself.
        """
        mem = self.machine.memory.pressure
        cap = self.listener.backlog_capacity
        fill = self.listener.backlog_depth / cap if cap else 0.0
        return min(1.0, max(mem, fill))

    def effective_idle_timeout(self, default: float) -> float:
        """Idle timeout to apply right now (adaptive when mounted).

        The value (fixed or adaptive) flows into
        :meth:`~repro.net.tcp.Connection.server_recv`, whose pause timer
        is a kernel timeout: the overwhelmingly common case — a request
        arriving before the reap deadline — cancels it, and heap
        compaction keeps those tombstones from growing the event heap.
        """
        return self.overload.idle_timeout(default, self.pressure())

    # -- reporting -----------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Server-side counters exposed in run reports."""
        out = {
            "requests_served": self.requests_served,
            "connections_handled": self.connections_handled,
            "threads_live": self.machine.threads.live,
            "threads_peak": self.machine.threads.peak,
            "syns_dropped": self.listener.syns_dropped,
            "backlog_depth": self.listener.backlog_depth,
            "accept_queue_peak": self.listener.backlog_peak,
            "memory_pressure": round(self.machine.memory.pressure, 4),
            "tombstones_compacted": self.sim.tombstones_compacted,
        }
        out.update(self.overload.stats())
        return out

    # -- shared helpers ---------------------------------------------------------
    def _exec(self, phase: str, cost: float):
        """Charge ``cost`` CPU-seconds, attributed to ``phase``.

        Returns the completion event from ``cpu.execute`` so callers can
        ``yield`` it exactly as before; with no observer mounted the only
        extra work is one ``is None`` check.
        """
        if self.obs is not None:
            self.obs.cpu(phase, cost)
        return self.machine.cpu.execute(cost)

    def _close(self, conn: Connection, state=None):
        """Generator: charge the close CPU, then close the server end.

        With a selector channel's ``state``, also mark it closed,
        unregister it from its selector and forget it.
        """
        yield self._exec("close", self.costs.close)
        if state is not None:
            state.closed = True
            if conn.watcher is not None:
                conn.watcher.unregister(conn)
        conn.server_close()
        if state is not None:
            self._states.pop(conn, None)

    def _blocking_send(self, conn: Connection, nbytes: int):
        """Generator: write ``nbytes`` of response with blocking write(2)s.

        Returns False if the client disappeared, or the server end was
        closed, mid-response.
        """
        chunk = self.semantics.chunk_bytes
        remaining = nbytes
        if conn.span is not None:
            conn.span.mark("tx_start")
        while remaining > 0:
            n = min(chunk, remaining)
            yield from conn.wait_writable(n)
            if not conn.peer_alive or conn.server_closed:
                return False
            yield self._exec("transmit", self._chunk_cost(n))
            if conn.server_closed:  # closed while this write(2) ran
                return False
            conn.server_send_chunk(n, last=(remaining == n))
            remaining -= n
        return True

    def _service_burst(self, conn):
        """One request's CPU service, bracketed by span marks.

        Generator: ``yield from self._service_burst(conn)`` burns the
        read+parse+lookup cost, attributing read/parse to the ``parse``
        phase and the file lookup to ``service``, and stamps
        ``svc_start``/``svc_end`` on the connection's span.
        """
        c = self.costs
        if self.obs is not None:
            self.obs.svc_start(
                conn.span, c.read_syscall + c.parse_request, c.file_lookup
            )
        yield self.machine.cpu.execute(
            c.read_syscall + c.parse_request + c.file_lookup
        )
        if conn.span is not None:
            conn.span.mark("svc_end")

    def _chunk_cost(self, nbytes: int) -> float:
        """CPU to push one chunk through write(2)."""
        return self.costs.write_syscall + self.costs.per_byte * nbytes


class _ChannelState:
    """Per-channel write queue, single-writer guard and idle clock."""

    __slots__ = ("queue", "remaining", "busy", "deferred", "closed",
                 "last_activity")

    def __init__(self, now: float) -> None:
        self.queue: Deque[int] = deque()  # response byte counts to write
        self.remaining = 0  # bytes left of the in-progress response
        self.busy = False
        self.deferred = False
        self.closed = False
        self.last_activity = now  # for the (optional) idle sweeper


class SelectorServer(Server):
    """Base of the readiness-selection servers (nio, staged, amped).

    One acceptor thread registers every accepted channel, round-robin,
    with one of ``selectors``; :meth:`_pump_writes` writes queued
    responses with non-blocking writes until EWOULDBLOCK.
    """

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        listener: ListenSocket,
        semantics: Optional[HttpSemantics] = None,
        costs: Optional[CostModel] = None,
        overload: Optional[OverloadControl] = None,
        selectors: int = 1,
    ) -> None:
        super().__init__(sim, machine, listener, semantics, costs, overload)
        self.selectors = [Selector(sim) for _ in range(selectors)]
        self._assign_seq = 0
        self._states: Dict[Connection, _ChannelState] = {}

    @property
    def selector(self) -> Selector:
        """The only (or, when partitioned, the first) selector."""
        return self.selectors[0]

    def _acceptor(self):
        """Continuously drain the kernel backlog into the selectors."""
        while True:
            conn = yield from self.listener.accept()
            yield self._exec("accept", self.costs.accept)
            self.connections_handled += 1
            self._states[conn] = _ChannelState(self.sim.now)
            selector = self.selectors[self._assign_seq % len(self.selectors)]
            self._assign_seq += 1
            selector.register(conn, READ)

    def _pump_writes(self, conn: Connection, state: _ChannelState):
        """Write until done or EWOULDBLOCK; manage interest ops."""
        chunk = self.semantics.chunk_bytes
        while True:
            if state.remaining == 0:
                if not state.queue:
                    break
                state.remaining = state.queue.popleft()
                if conn.span is not None:
                    conn.span.mark("tx_start")
            if not conn.peer_alive or conn.server_closed:
                yield from self._close(conn, state)
                return
            room = conn.sndbuf - conn.in_flight
            n = min(chunk, state.remaining, room)
            if n <= 0:
                # EWOULDBLOCK: wait for writability, keep reading too.
                if conn.watcher is not None:
                    conn.watcher.set_interest(conn, READ | WRITE)
                return
            yield self._exec("transmit", self._chunk_cost(n))
            if conn.server_closed:  # closed while this write(2) ran
                yield from self._close(conn, state)
                return
            conn.server_send_chunk(n, last=(state.remaining == n))
            state.remaining -= n
            if state.remaining == 0:
                self.requests_served += 1
                if not self.semantics.keep_alive:
                    yield from self._close(conn, state)
                    return
                yield self._exec("keepalive", self.costs.keepalive_check)
        if conn.watcher is not None:
            conn.watcher.set_interest(conn, READ)
