"""The one observer a run mounts: spans, CPU phases, event counts, sinks.

``ServerSpec(observe=True)`` and ``ClusterSpec(observe=True)`` each mount
exactly one :class:`Observer` for the run.  The listener carries it
(``ListenSocket(obs=...)``) to the transport and the servers; clients,
the cluster balancer and :class:`~repro.cluster.clients.FanoutMetrics`
hold the same object.  Every instrumentation site makes at most one
call into it — a span mark is one call on the span — and with nothing
mounted a site costs one ``is not None`` check.

The observer owns:

* connection spans: the open-span table, the finished-span ring
  (``capacity``) and the lossless per-phase histograms in ``registry``
  (see :mod:`repro.obs.spans`);
* CPU-seconds per phase (``cpu_seconds``; :attr:`profile` renders them
  as a :class:`~repro.obs.profiler.PhaseProfiler` table);
* per-``(category, action)`` counts of the connection-lifecycle events
  (``counts``): ``conn/established``, ``conn/server_close``,
  ``error/reset_observed``, ``error/syn_drop``, ``server/idle_reap``...;
* for a cluster run (:meth:`for_cluster`): the causal request tracer,
  the aggregate and per-tier time series, the SLO monitors and the
  balancer's replica-state history.

All of it is bookkeeping on timestamps the run already has: no
simulator events, no random draws, no modelled CPU.  An observed run's
RunMetrics therefore equal an unobserved one's (pinned by
``tests/test_obs_pay_for_use.py`` and
``tests/test_cluster_observe_equivalence.py``).

The observer is clock-agnostic: ``lambda: sim.now`` for the simulation,
``time.monotonic`` for the live servers.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..osmodel.costs import CostModel
from .hist import Registry
from .profiler import PhaseProfiler
from .series import SeriesRecorder
from .slo import SloMonitor, SloSpec
from .spans import (
    QUEUE_HISTOGRAMS,
    SERVICE_HISTOGRAMS,
    ConnSpan,
    mark_columns,
    phase_intervals,
)
from .trace import ClusterTracer

__all__ = ["Observer"]

#: Span phase -> the histogram its durations fold into.
_PHASE_TO_HIST = {
    "syn": "conn_syn_wait",
    "backlog": "conn_backlog_wait",
    "queue_wait": "req_queue_wait",
    "service": "req_service",
    "transmit": "req_transmit",
    "syn_abandoned": "conn_failed_wait",
    "backlog_abandoned": "conn_failed_wait",
    "queue_abandoned": "req_abandoned_wait",
}

#: Modelled front-tier CPU of a balancer pick and a cache lookup.  The
#: front tier is uncapacitated, so these are attribution-only: they land
#: in ``cpu_seconds``, never on a Machine.
_FRONT_COSTS = CostModel()


class Observer:
    """Everything a run observes, behind one mount (see module docs)."""

    def __init__(
        self,
        clock: Callable[[], float],
        capacity: int = 4096,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.clock = clock
        self.registry = Registry()
        self.spans: Deque[ConnSpan] = deque(maxlen=capacity)
        self.dropped = 0
        self._open: Dict[int, ConnSpan] = {}
        self._next_cid = 0
        self.cpu_seconds: Dict[str, float] = {}
        self.counts: Dict[Tuple[str, str], int] = {}
        # Cluster sinks, mounted by for_cluster().
        self.tracer: Optional[ClusterTracer] = None
        self.series: Optional[SeriesRecorder] = None
        self.tier_series: Dict[str, SeriesRecorder] = {}
        self.monitors: Tuple[SloMonitor, ...] = ()
        #: Chronological (time, rid, state) balancer transitions.
        self.state_changes: List[Tuple[float, str, str]] = []

    @classmethod
    def for_cluster(
        cls,
        clock: Callable[[], float],
        seed: int,
        slos: Tuple[SloSpec, ...] = (),
    ) -> "Observer":
        """An observer with the cluster sinks mounted."""
        obs = cls(clock)
        obs.tracer = ClusterTracer(seed)
        obs.series = SeriesRecorder()
        obs.monitors = tuple(SloMonitor(spec) for spec in slos)
        return obs

    # -- spans -----------------------------------------------------------
    def open(self) -> ConnSpan:
        """Start a span at the current time (the client's first SYN)."""
        cid = self._next_cid
        self._next_cid = cid + 1
        span = ConnSpan(cid, self.clock(), self)
        self._open[cid] = span
        return span

    def finish(self, span: Optional[ConnSpan], status: str) -> None:
        """Terminate a span (idempotent; ``span=None`` is a no-op).

        The span's phases fold into the histograms, the span enters the
        ring, and a routed span's completed requests become traces.
        """
        if span is None or span.status is not None:
            return
        span.status = status
        span.t_end = self.clock()
        self._open.pop(span.cid, None)
        cols = mark_columns(span)
        reg = self.registry
        for phase, start, end in phase_intervals(span, cols):
            reg.histogram(_PHASE_TO_HIST[phase]).observe(end - start)
        reg.histogram("conn_lifetime").observe(span.t_end - span.t0)
        reg.counter(f"spans_{status}").inc()
        if len(self.spans) == self.spans.maxlen:
            self.dropped += 1
        self.spans.append(span)
        if span.route is not None:
            self.tracer.harvest(span, cols)

    def flush(self, status: str = "unfinished") -> int:
        """Finish every still-open span (end of run); returns how many."""
        open_spans = list(self._open.values())
        for span in open_spans:
            self.finish(span, status)
        return len(open_spans)

    # -- instrumentation sites ---------------------------------------------
    def count(self, category: str, action: str) -> None:
        """Count one connection-lifecycle event."""
        key = (category, action)
        self.counts[key] = self.counts.get(key, 0) + 1

    def cpu(self, phase: str, cost: float) -> None:
        """Attribute ``cost`` CPU-seconds to ``phase``."""
        cpu = self.cpu_seconds
        cpu[phase] = cpu.get(phase, 0.0) + cost

    def established(self, span: ConnSpan) -> None:
        """The SYN-ACK reached the client: mark the span, count it."""
        span.events.append(("established", self.clock()))
        self.count("conn", "established")

    def svc_start(self, span: ConnSpan, parse: float, lookup: float) -> None:
        """A request's CPU service begins: mark it, attribute its cost
        to the ``parse`` and ``service`` phases."""
        span.events.append(("svc_start", self.clock()))
        self.cpu("parse", parse)
        self.cpu("service", lookup)

    def syn_drop(
        self, listener: str, action: Optional[str], cost: float, n: int = 1
    ) -> None:
        """``n`` SYNs dropped at ``listener``.

        ``action`` names a kernel or policy reject (``syn_drop``,
        ``syn_shed``, ``syn_flood``): one event is counted and ``cost``
        CPU-seconds go to the ``reject`` phase.  ``None`` is a drop that
        costs no reject (the kernel could not allocate the socket).
        """
        if action is not None:
            self.count("error", action)
            self.cpu("reject", cost)
        if self.series is not None:
            t = self.clock()
            self.series.inc("syns_dropped", t, n)
            self.tier(listener).inc("syns_dropped", t, n)

    def enqueue(self, span: ConnSpan, listener: str, depth: int) -> None:
        """A handshake completed into ``listener``'s backlog at ``depth``."""
        t = self.clock()
        span.events.append(("backlog_enter", t))
        if self.series is not None:
            self.tier(listener).observe("backlog_depth", t, float(depth))

    def routed(self, span: ConnSpan, rid: str, wan_class: str) -> None:
        """The balancer routed the span's connection to replica ``rid``;
        its completed requests become traces when the span finishes."""
        span.events.append(("routed", self.clock()))
        span.route = (rid, wan_class)

    # -- cluster sites (``t`` is the caller's event time) -----------------
    def cache_lookup(self, t: float, hit: bool) -> None:
        """The front cache answered (hit) or passed through (miss)."""
        self.cpu("cache_lookup", _FRONT_COSTS.cache_lookup)
        self.series.inc("cache_lookups", t)
        if hit:
            self.series.inc("cache_hits", t)

    def pick(self, t: float, rid: Optional[str]) -> None:
        """The balancer routed (``rid``) or failed to route (``None``)."""
        self.cpu("balance", _FRONT_COSTS.balance)
        self.series.inc("picks", t)
        if rid is None:
            self.series.inc("no_replica", t)
        else:
            self.tier(rid).inc("picks", t)

    def state_change(self, t: float, rid: str, state: str) -> None:
        """The balancer moved ``rid`` to ``state`` (up/draining/...)."""
        self.state_changes.append((t, rid, state))

    def reply(self, t: float, response_time: float, tier_name: str) -> None:
        """A request completed: feed series (aggregate + tier) and SLOs."""
        self.series.inc("replies", t)
        self.series.observe("response_time_s", t, response_time)
        tier = self.tier(tier_name)
        tier.inc("replies", t)
        tier.observe("response_time_s", t, response_time)
        for monitor in self.monitors:
            monitor.record_reply(t, response_time)

    def error(self, t: float, kind: str, tier_name: Optional[str]) -> None:
        """A request failed (reset/timeout/...): series + SLO bad event."""
        self.series.inc("errors", t)
        self.series.inc(f"errors.{kind}", t)
        if tier_name is not None:
            self.tier(tier_name).inc("errors", t)
        for monitor in self.monitors:
            monitor.record_error(t, kind)

    def connection(self, t: float, tier_name: Optional[str]) -> None:
        """A connection was established against ``tier_name``."""
        self.series.inc("connections", t)
        if tier_name is not None:
            self.tier(tier_name).inc("connections", t)

    # -- end of run ------------------------------------------------------
    def end_run(self, stats: Dict[str, object]) -> Dict[str, float]:
        """Finish the open spans, fold ``spans_unfinished`` and the
        queue/service shares into ``stats``; returns :meth:`breakdown`."""
        stats["spans_unfinished"] = self.flush("unfinished")
        b = self.breakdown()
        stats["obs_queue_share"] = round(b["queue_share"], 6)
        stats["obs_service_share"] = round(b["service_share"], 6)
        return b

    # -- reading ---------------------------------------------------------
    @property
    def profile(self) -> PhaseProfiler:
        """The CPU-seconds-per-phase table view."""
        return PhaseProfiler(self.cpu_seconds)

    def count_table(self) -> str:
        """Per-``(category, action)`` event counts, one per line."""
        lines = [
            f"{cat}/{act}: {n}" for (cat, act), n in sorted(self.counts.items())
        ]
        return "\n".join(lines) or "(no events)"

    def breakdown(self) -> Dict[str, float]:
        """Queue-wait vs service-time attribution over all finished spans.

        *Queue* sums every second a client spent waiting without being
        served — SYN retransmission, the kernel accept queue, requests
        sitting unserved, and the entire lifetime of connections that
        never established (the failures httperf excludes from
        response-time statistics).  *Service* sums CPU service and
        transmit time.  Shares are fractions of queue + service.
        """
        reg = self.registry
        queue = sum(reg.hist_total(name) for name in QUEUE_HISTOGRAMS)
        service = sum(reg.hist_total(name) for name in SERVICE_HISTOGRAMS)
        total = queue + service
        return {
            "queue_wait_s": queue,
            "service_s": service,
            "queue_share": queue / total if total else 0.0,
            "service_share": service / total if total else 0.0,
        }

    def slowest(self, n: int = 1) -> List[ConnSpan]:
        """The ``n`` longest-lived finished spans (for timeline rendering)."""
        return sorted(self.spans, key=lambda s: s.duration, reverse=True)[:n]

    def __len__(self) -> int:
        return len(self.spans)

    def tier(self, name: str) -> SeriesRecorder:
        """The (lazily created) series recorder for one cluster tier."""
        rec = self.tier_series.get(name)
        if rec is None:
            rec = self.tier_series[name] = SeriesRecorder(
                bin_width=self.series.bin_width,
                lo=self.series.lo,
                growth=self.series.growth,
            )
        return rec

    def merged_tiers(self) -> SeriesRecorder:
        """Exact merge of every per-tier recorder (the merge invariant:
        its ``replies`` counters and ``response_time_s`` quantile series
        equal the aggregate recorder's bit for bit)."""
        merged = SeriesRecorder(
            bin_width=self.series.bin_width,
            lo=self.series.lo,
            growth=self.series.growth,
        )
        for rec in self.tier_series.values():
            merged.merge(rec)
        return merged

    def stats(self) -> Dict[str, float]:
        """The cluster sinks' flat counters for the aggregate stats."""
        out = dict(self.tracer.stats())
        out["obs.balance_cpu_s"] = round(
            self.cpu_seconds.get("balance", 0.0), 9
        )
        out["obs.cache_lookup_cpu_s"] = round(
            self.cpu_seconds.get("cache_lookup", 0.0), 9
        )
        for monitor in self.monitors:
            out.update(monitor.stats())
        return out
