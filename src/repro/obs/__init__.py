"""Request-lifecycle observability: one observer per run.

The paper's central explanatory claim (figure 2) — httpd2's response
times look low only because failed connections are excluded and clients
are served serialized, while nio's grow because everyone progresses
concurrently — is a claim about *where time is spent inside a
connection*.  Window-level means cannot show it; this package can:

* :class:`Observer` is the one object a run mounts
  (``ServerSpec(observe=True)``, ``ClusterSpec(observe=True)``, or the
  live socket servers' ``obs`` argument; clock-agnostic: simulated
  seconds or ``time.monotonic``).  It stamps every connection with a
  lifecycle span timeline (SYN -> backlog wait -> accept -> parse ->
  service queue -> CPU service -> transmit -> close/reset/timeout),
  attributes every CPU-second a simulated server burns to a phase
  (accept/select/parse/service/transmit/...), counts the
  connection-lifecycle events per ``(category, action)``, and for a
  cluster feeds causal request traces, time series and SLO monitors;
* :class:`Registry` holds counters, gauges and log-bucketed
  :class:`LogHistogram` metrics with mergeable buckets, shared by the
  sim and live code paths, renderable as Prometheus text exposition;
* :class:`PhaseProfiler` renders CPU-seconds per phase as shares and
  tables;
* exporters turn recorded spans into JSONL, Chrome ``trace_event``
  JSON (flamegraph-viewable per-connection timelines) and the registry
  into Prometheus text.

Everything is opt-in and pay-for-use: with no observer mounted each
instrumentation site costs one attribute load and an ``is None`` check,
and a mounted one takes at most one call per site.
"""

from .export import (
    spans_from_jsonl,
    spans_to_chrome_trace,
    spans_to_jsonl,
)
from .hist import CounterMetric, GaugeMetric, LogHistogram, Registry
from .observer import Observer
from .profiler import PhaseProfiler
from .report import format_phase_table, format_registry_table, render_timeline
from .series import SeriesRecorder
from .slo import SloAlert, SloMonitor, SloSpec, default_slos
from .spans import ConnSpan, mark_columns, phase_intervals
from .trace import (
    ClusterTracer,
    RequestTrace,
    attribution_summary,
    derive_span_id,
    derive_trace_id,
    exact_partition,
    render_waterfall,
    request_traces_from_span,
    traces_from_jsonl,
    traces_to_chrome_trace,
    traces_to_jsonl,
)

__all__ = [
    "ConnSpan",
    "Observer",
    "mark_columns",
    "phase_intervals",
    "CounterMetric",
    "GaugeMetric",
    "LogHistogram",
    "Registry",
    "PhaseProfiler",
    "SeriesRecorder",
    "SloSpec",
    "SloAlert",
    "SloMonitor",
    "default_slos",
    "ClusterTracer",
    "RequestTrace",
    "attribution_summary",
    "derive_trace_id",
    "derive_span_id",
    "exact_partition",
    "request_traces_from_span",
    "render_waterfall",
    "traces_to_jsonl",
    "traces_from_jsonl",
    "traces_to_chrome_trace",
    "spans_to_jsonl",
    "spans_from_jsonl",
    "spans_to_chrome_trace",
    "format_phase_table",
    "format_registry_table",
    "render_timeline",
]
