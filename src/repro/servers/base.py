"""Common interface of the web-server models under test."""

from __future__ import annotations

from typing import Dict, Optional

from ..http.protocol import HttpSemantics
from ..net.tcp import ListenSocket
from ..osmodel.costs import CostModel
from ..osmodel.machine import Machine
from ..overload import OverloadControl
from ..sim.core import Simulator

__all__ = ["Server"]


class Server:
    """Base class: owns the listener, machine and protocol semantics.

    Subclasses implement :meth:`start` (spawn their threads/processes) and
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
        #: Optional :class:`~repro.obs.PhaseProfiler`; when mounted, every
        #: CPU burst issued through :meth:`_exec` is attributed to a phase.
        self.profiler = self.listener.profiler

    def start(self) -> None:
        """Spawn the server's threads/processes onto the simulator."""
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
        ``yield`` it exactly as before; with no profiler mounted the only
        extra work is one ``is None`` check.
        """
        if self.profiler is not None:
            self.profiler.add(phase, cost)
        return self.machine.cpu.execute(cost)

    def _service_burst(self, conn, cost: Optional[float] = None):
        """One request's CPU service, bracketed by span marks.

        Generator: ``yield from self._service_burst(conn)`` burns the
        read+parse+lookup cost, attributing read/parse to the ``parse``
        phase and the file lookup to ``service``, and stamps
        ``svc_start``/``svc_end`` on the connection's span.
        """
        if conn.span is not None:
            conn.span.mark("svc_start")
        c = self.costs
        if self.profiler is not None:
            self.profiler.add("parse", c.read_syscall + c.parse_request)
            self.profiler.add("service", c.file_lookup)
        yield self.machine.cpu.execute(
            cost if cost is not None else self._service_cost()
        )
        if conn.span is not None:
            conn.span.mark("svc_end")

    def _service_cost(self) -> float:
        """CPU to read + parse a request and locate its file."""
        c = self.costs
        return c.read_syscall + c.parse_request + c.file_lookup

    def _chunk_cost(self, nbytes: int) -> float:
        """CPU to push one chunk through write(2)."""
        return self.costs.write_syscall + self.costs.per_byte * nbytes
