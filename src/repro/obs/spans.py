"""Connection-lifecycle spans: who waited where, for how long.

A :class:`ConnSpan` is one connection's timeline: the moment the first
SYN left the client, marks for every phase transition the transport and
the server observe, and a terminal status.  Mark names:

==============  ============================================================
mark            meaning
==============  ============================================================
backlog_enter   handshake completed into the kernel accept queue
established     SYN-ACK reached the client (httperf's connection time)
accept          the application dequeued the connection
req_arrive      a request became readable at the server
svc_start       the server began burning CPU on a request (read+parse+file)
svc_end         request CPU service finished
tx_start        the first response chunk was queued onto the wire
reply_done      the last response byte reached the client
==============  ============================================================

Terminal statuses: ``closed`` (orderly), ``reset`` (client hit a
server-reaped connection), ``connect_timeout``, ``client_timeout``,
``unfinished`` (still open when the observer was flushed — e.g. stuck in
SYN retransmission at the end of a run).

:func:`phase_intervals` turns the marks into named ``(phase, start,
end)`` intervals; :meth:`~repro.obs.observer.Observer.finish` aggregates
the same intervals into the observer's histogram registry, so the
full-fidelity spans (bounded ring) and the lossless aggregates
(histograms) always agree.  Both pair a connection's per-request marks
through :func:`mark_columns`, as does the cluster's per-request tracing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .observer import Observer

__all__ = [
    "ConnSpan",
    "mark_columns",
    "phase_intervals",
    "QUEUE_HISTOGRAMS",
    "SERVICE_HISTOGRAMS",
]

#: Histograms counted as *queue wait* in the latency breakdown: time a
#: client spent making no progress, including the failed connections
#: httperf excludes from response-time statistics.
QUEUE_HISTOGRAMS = (
    "conn_syn_wait",
    "conn_backlog_wait",
    "conn_failed_wait",
    "req_queue_wait",
    "req_abandoned_wait",
)

#: Histograms counted as *service time*: the server was actively parsing,
#: computing or streaming bytes for the request.
SERVICE_HISTOGRAMS = ("req_service", "req_transmit")


class ConnSpan:
    """One connection's recorded timeline.

    ``route`` is the ``(replica id, WAN class)`` a cluster balancer
    picked for the connection; routed spans become per-request traces
    when they finish.
    """

    __slots__ = ("obs", "cid", "t0", "events", "status", "t_end", "route")

    def __init__(
        self,
        cid: int,
        t0: float,
        obs: Optional["Observer"] = None,
    ) -> None:
        self.obs = obs
        self.cid = cid
        self.t0 = t0
        self.events: List[Tuple[str, float]] = []
        self.status: Optional[str] = None
        self.t_end: Optional[float] = None
        self.route: Optional[Tuple[str, str]] = None

    def mark(self, phase: str) -> None:
        """Stamp a phase transition at the observer's current time."""
        self.events.append((phase, self.obs.clock()))

    @property
    def duration(self) -> float:
        """Lifetime so far (0 until at least one mark or finish)."""
        if self.t_end is not None:
            return self.t_end - self.t0
        if self.events:
            return self.events[-1][1] - self.t0
        return 0.0

    def first(self, phase: str) -> Optional[float]:
        """Timestamp of the first occurrence of ``phase`` mark."""
        for name, t in self.events:
            if name == phase:
                return t
        return None

    def to_dict(self) -> Dict:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return {
            "cid": self.cid,
            "t0": self.t0,
            "status": self.status,
            "t_end": self.t_end,
            "events": [[name, t] for name, t in self.events],
        }

    @staticmethod
    def from_dict(data: Dict) -> "ConnSpan":
        """Rebuild a span from :meth:`to_dict` output (observer-less)."""
        span = ConnSpan(data["cid"], data["t0"])
        span.events = [(name, t) for name, t in data["events"]]
        span.status = data.get("status")
        span.t_end = data.get("t_end")
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ConnSpan {self.cid} {self.status or 'open'} "
            f"{len(self.events)} marks>"
        )


def mark_columns(span: ConnSpan) -> Dict[str, List[float]]:
    """Each mark's timestamps in order: ``cols[name][i]`` is the i-th.

    Requests pipeline on a persistent connection and servers answer
    them in order, so the i-th mark of every per-request phase belongs
    to the connection's i-th request: FIFO pairing is index pairing over
    these columns.  The one pairing rule behind both
    :func:`phase_intervals` and
    :func:`~repro.obs.trace.request_traces_from_span`.
    """
    cols: Dict[str, List[float]] = {}
    for name, t in span.events:
        col = cols.get(name)
        if col is None:
            cols[name] = [t]
        else:
            col.append(t)
    return cols


_NONE: List[float] = []

#: Per-request phases: (phase, opening mark, closing mark).
_REQUEST_PHASES = (
    ("queue_wait", "req_arrive", "svc_start"),
    ("service", "svc_start", "svc_end"),
    ("transmit", "tx_start", "reply_done"),
)


def phase_intervals(
    span: ConnSpan, cols: Optional[Dict[str, List[float]]] = None
) -> List[Tuple[str, float, float]]:
    """Named (phase, start, end) intervals derived from a span's marks.

    Connection phases come first, then each per-request phase in request
    order (paired by :func:`mark_columns`; pass ``cols`` when already
    computed).  Waits truncated by the terminal event (a request never
    served, a backlog slot never accepted) are closed at ``t_end`` and
    labelled ``*_abandoned``.
    """
    if cols is None:
        cols = mark_columns(span)
    out: List[Tuple[str, float, float]] = []
    entered = cols.get("backlog_enter")
    accepted = cols.get("accept")
    if entered:
        out.append(("syn", span.t0, entered[0]))
        if accepted:
            out.append(("backlog", entered[0], accepted[0]))
    for phase, opening, closing in _REQUEST_PHASES:
        closes = cols.get(closing)
        if closes:
            for start, end in zip(cols.get(opening, _NONE), closes):
                out.append((phase, start, end))
    end = span.t_end if span.t_end is not None else span.duration + span.t0
    if not entered:
        out.append(("syn_abandoned", span.t0, end))
    elif not accepted:
        out.append(("backlog_abandoned", entered[0], end))
    arrivals = cols.get("req_arrive", _NONE)
    for t in arrivals[len(cols.get("svc_start", _NONE)):]:
        out.append(("queue_abandoned", t, end))
    return out
