"""Readiness selection, modelled after ``java.nio.channels.Selector``.

Connections are registered with an *interest set* (READ and/or WRITE).
When a registered connection becomes readable (request or EOF queued) or
writable (send-buffer space while WRITE interest is set), a ready event is
queued exactly once; worker threads block on :meth:`Selector.next_ready`
— the moral equivalent of ``Selector.select()`` plus taking one key from
the selected-key set (shared among workers, as in the paper's nio server).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..sim.core import Simulator
from ..sim.resources import Store
from .tcp import Connection

__all__ = ["Selector", "READ", "WRITE"]

#: Interest-mask bits.
READ = 1
WRITE = 2


class Selector:
    """Multiplexes readiness events of many connections to N workers."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._interest: Dict[Connection, int] = {}
        self._queued: Set[Tuple[int, int]] = set()  # (id(conn), kind)
        self._ready: Store = Store(sim)

    # -- registration ------------------------------------------------------
    def register(self, conn: Connection, mask: int) -> None:
        """Start watching ``conn``; fires immediately if already ready."""
        self._interest[conn] = mask
        conn.watcher = self
        self._poll_now(conn)

    def set_interest(self, conn: Connection, mask: int) -> None:
        """Change the interest set (like ``SelectionKey.interestOps``)."""
        if conn not in self._interest:
            raise KeyError("connection not registered")
        self._interest[conn] = mask
        self._poll_now(conn)

    def unregister(self, conn: Connection) -> None:
        """Stop watching ``conn`` (stale ready events are skipped lazily)."""
        self._interest.pop(conn, None)
        if conn.watcher is self:
            conn.watcher = None

    @property
    def registered_count(self) -> int:
        return len(self._interest)

    @property
    def ready_backlog(self) -> int:
        """Ready events queued and not yet taken by a worker."""
        return len(self._ready)

    # -- notifications (called by Connection) --------------------------------
    def notify_readable(self, conn: Connection) -> None:
        """Connection callback: data or EOF queued on ``conn``."""
        mask = self._interest.get(conn, 0)
        if mask & READ:
            self._enqueue(conn, READ)

    def notify_writable(self, conn: Connection) -> None:
        """Connection callback: send-buffer space drained on ``conn``."""
        mask = self._interest.get(conn, 0)
        if mask & WRITE:
            self._enqueue(conn, WRITE)

    # -- worker interface ----------------------------------------------------
    def next_ready(self):
        """Generator: yield until a ready ``(conn, kind)`` is available.

        The caller *must* treat the returned event as consumed; a
        connection re-arms by becoming ready again (edge-ish semantics, the
        way the nio server drains a key before reselecting).
        """
        item = yield self._ready.get()
        conn, kind = item
        self._queued.discard((id(conn), kind))
        return conn, kind

    def try_next_ready(self):
        """Non-blocking variant; ``None`` when nothing is ready."""
        item = self._ready.try_get()
        if item is None:
            return None
        conn, kind = item
        self._queued.discard((id(conn), kind))
        return conn, kind

    # -- internals -------------------------------------------------------------
    def _poll_now(self, conn: Connection) -> None:
        mask = self._interest.get(conn, 0)
        if mask & READ and len(conn.inbox) > 0:
            self._enqueue(conn, READ)
        if mask & WRITE and conn.in_flight < conn.sndbuf:
            self._enqueue(conn, WRITE)

    def _enqueue(self, conn: Connection, kind: int) -> None:
        key = (id(conn), kind)
        if key in self._queued:
            return
        self._queued.add(key)
        self._ready.put((conn, kind))
