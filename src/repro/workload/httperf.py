"""httperf-style workload generation.

Reimplements the measurement semantics of httperf (Mosberger & Jin, 1998)
as used in the paper:

* a fixed population of emulated clients, each looping SURGE sessions over
  persistent connections (one fresh connection per session, kept across
  request groups);
* a client socket timeout (10 s in the paper) applied to connecting,
  waiting for a reply and receiving it — expiry counts one
  *client-timeout* error and kills the session;
* sending on a connection the server idle-reaped counts one
  *connection-reset* error; the client transparently reconnects and
  retries the group (httperf's connection re-establishment);
* only successful replies contribute to response-time statistics.

The population of these clients (start ramp, link rotation, the fluid
regime beyond a boundary budget) is built by
:class:`~repro.workload.fluid.LoadGenerator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..metrics.collectors import CLIENT_TIMEOUT, CONNECTION_RESET, MetricsHub
from ..net.link import DuplexLink
from ..net.tcp import (
    ConnectTimeout,
    Connection,
    ListenSocket,
    ResetByServer,
    ResponseTimeout,
)
from ..sim.core import Simulator
from .surge import SessionPlan, SurgeWorkload

__all__ = ["HttperfConfig", "EmulatedClient"]


@dataclass(frozen=True)
class HttperfConfig:
    """Client-side measurement parameters (paper values as defaults)."""

    #: httperf --timeout: socket timeout for connect/wait/receive phases.
    client_timeout: float = 10.0
    #: Safety cap on how long receiving one reply body may take in total.
    stall_timeout: float = 60.0
    #: Reconnect-and-retry attempts when the server reset the connection.
    max_reset_retries: int = 2
    #: HTTP/1.0 mode (httperf --num-calls=1): one connection per request,
    #: no pipelining, no keep-alive.  Pair with a server configured with
    #: ``keep_alive=False`` semantics.
    new_connection_per_request: bool = False


class EmulatedClient:
    """One emulated client looping sessions (forever by default).

    The one session engine: the pinned population, the pooled drivers
    of the aggregate regime and the cluster's routed clients all run
    these methods.  Every site that is done with a connection goes
    through :meth:`_finish`, and every new connection through
    :meth:`_connect`, so a subclass changes where connections go by
    overriding those two alone.
    """

    __slots__ = (
        "sim",
        "index",
        "listener",
        "duplex",
        "workload",
        "metrics",
        "rng",
        "config",
        "sessions_limit",
        "sessions_attempted",
    )

    def __init__(
        self,
        sim: Simulator,
        index: int,
        listener: ListenSocket,
        duplex: DuplexLink,
        workload: SurgeWorkload,
        metrics: MetricsHub,
        rng: np.random.Generator,
        config: Optional[HttperfConfig] = None,
        sessions_limit: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.index = index
        self.listener = listener
        self.duplex = duplex
        self.workload = workload
        self.metrics = metrics
        self.rng = rng
        self.config = config or HttperfConfig()
        #: Sessions to run before the process ends; ``None`` = forever.
        self.sessions_limit = sessions_limit
        self.sessions_attempted = 0

    # ------------------------------------------------------------------
    def run(self, start_delay: float = 0.0):
        """Generator: the session loop, finite when ``sessions_limit`` set."""
        if start_delay > 0.0:
            yield self.sim.timeout(start_delay)
        while (
            self.sessions_limit is None
            or self.sessions_attempted < self.sessions_limit
        ):
            plan = self.workload.sample_session(self.rng)
            self.sessions_attempted += 1
            completed = yield from self._run_session(plan)
            if completed:
                self.metrics.record_session()
            yield self.sim.timeout(plan.inter_session_gap)

    # ------------------------------------------------------------------
    def _connect(self) -> object:
        """Generator: establish a fresh connection or return None."""
        conn = Connection(self.sim, self.duplex, self.listener)
        try:
            conn_time = yield from conn.connect(self.config.client_timeout)
        except ConnectTimeout:
            self.metrics.record_error(CLIENT_TIMEOUT)
            self._finish(conn, "connect_timeout")
            return None
        self.metrics.record_connection(conn_time)
        return conn

    def _finish(self, conn: Connection, status: str) -> None:
        """The client is done with ``conn``: end its span as ``status``."""
        conn.finish_span(status)

    def _send_group(self, conn: Connection, group: List) -> object:
        """Generator: pipeline one request group.

        Returns ``(conn, pendings)`` — possibly a *new* connection if the
        server had reset the old one — or ``(conn, None)`` on failure.
        """
        for _attempt in range(self.config.max_reset_retries + 1):
            pendings = []
            try:
                for request in group:
                    pending = yield from conn.send_request(request)
                    pendings.append(pending)
                return conn, pendings
            except ResetByServer:
                self.metrics.record_error(CONNECTION_RESET)
                self._finish(conn, "reset")
                conn = yield from self._connect()
                if conn is None:
                    return None, None
        return conn, None

    def _run_session(self, plan: SessionPlan) -> object:
        """Generator: execute one session; returns True if it completed."""
        if self.config.new_connection_per_request:
            result = yield from self._run_session_http10(plan)
            return result
        conn = yield from self._connect()
        if conn is None:
            return False
        ok = True
        for group_index, group in enumerate(plan.groups):
            conn, pendings = yield from self._send_group(conn, group)
            if pendings is None:
                ok = False
                break
            failed = yield from self._collect_replies(conn, pendings)
            if failed:
                conn = None
                ok = False
                break
            if group_index < len(plan.groups) - 1:
                yield self.sim.timeout(plan.think_times[group_index])
        if conn is not None:
            conn.client_close()
            self._finish(conn, "closed")
        return ok

    def _run_session_http10(self, plan: SessionPlan) -> object:
        """Generator: HTTP/1.0 session — fresh connection per request."""
        for group_index, group in enumerate(plan.groups):
            for request in group:
                conn = yield from self._connect()
                if conn is None:
                    return False
                try:
                    pending = yield from conn.send_request(request)
                except ResetByServer:
                    # Unexpected on a fresh connection; count and bail.
                    self.metrics.record_error(CONNECTION_RESET)
                    self._finish(conn, "reset")
                    return False
                failed = yield from self._collect_replies(conn, [pending])
                if failed:
                    return False
                conn.client_close()
                self._finish(conn, "closed")
            if group_index < len(plan.groups) - 1:
                yield self.sim.timeout(plan.think_times[group_index])
        return True

    def _collect_replies(self, conn: Connection, pendings: List) -> object:
        """Generator: await every reply; returns True if the session died."""
        for pending in pendings:
            try:
                done_at = yield from conn.await_response(
                    pending,
                    ttfb_timeout=self.config.client_timeout,
                    stall_timeout=self.config.stall_timeout,
                )
            except ResponseTimeout:
                self.metrics.record_error(CLIENT_TIMEOUT)
                conn.client_close()
                self._finish(conn, "client_timeout")
                return True
            response_time = done_at - pending.sent_at
            ttfb = pending.first_byte.value - pending.sent_at
            self.metrics.record_reply(
                response_time, ttfb, pending.bytes_received
            )
        return False
