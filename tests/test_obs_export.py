"""Round-trip tests for the span exporters and report renderers."""

import json

import pytest

from repro.obs import (
    Observer,
    PhaseProfiler,
    format_phase_table,
    format_registry_table,
    render_timeline,
    spans_from_jsonl,
    spans_to_chrome_trace,
    spans_to_jsonl,
)
from repro.obs.report import render_slowest


class FakeClock:
    """Manually advanced clock for deterministic exporter tests."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture()
def obs():
    clock = FakeClock()
    rec = Observer(clock, capacity=16)

    def run(marks, status="closed"):
        span = rec.open()
        for name, t in marks:
            clock.t = t
            span.mark(name)
        rec.finish(span, status)

    run([
        ("backlog_enter", 0.5),
        ("accept", 1.0),
        ("req_arrive", 1.1),
        ("svc_start", 2.0),
        ("svc_end", 2.5),
        ("tx_start", 2.6),
        ("reply_done", 3.0),
    ])
    clock.t = 3.0
    run([("backlog_enter", 4.0)], status="connect_timeout")
    return rec


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def test_jsonl_round_trip(obs):
    text = spans_to_jsonl(obs.spans)
    assert len(text.splitlines()) == 2
    clones = spans_from_jsonl(text)
    for original, clone in zip(obs.spans, clones):
        assert clone.to_dict() == original.to_dict()
    # Re-serialising the parsed spans is a fixpoint.
    assert spans_to_jsonl(clones) == text


def test_jsonl_skips_blank_lines(obs):
    text = spans_to_jsonl(obs.spans) + "\n\n"
    assert len(spans_from_jsonl(text)) == 2


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------

def test_chrome_trace_structure(obs):
    trace = spans_to_chrome_trace(obs.spans)
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    json.dumps(trace)  # must be serialisable as-is

    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert {e["name"] for e in instants} == {"closed", "connect_timeout"}
    # One track per connection, timestamps in microseconds.
    cids = {e["tid"] for e in events}
    assert cids == {0, 1}
    service = next(e for e in complete if e["name"] == "service")
    assert service["ts"] == pytest.approx(2.0 * 1e6)
    assert service["dur"] == pytest.approx(0.5 * 1e6)
    for e in complete:
        assert e["dur"] >= 0.0


def test_chrome_trace_parses_back_to_phases(obs):
    # The exported phases are exactly the obs's phase intervals.
    from repro.obs import phase_intervals

    trace = spans_to_chrome_trace(obs.spans)
    by_cid = {}
    for e in trace["traceEvents"]:
        if e["ph"] == "X":
            by_cid.setdefault(e["tid"], []).append(
                (e["name"], e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6)
            )
    for span in obs.spans:
        expected = [
            (p, pytest.approx(a), pytest.approx(b))
            for p, a, b in phase_intervals(span)
        ]
        assert by_cid[span.cid] == expected


# ---------------------------------------------------------------------------
# report renderers
# ---------------------------------------------------------------------------

def test_format_phase_table(obs):
    table = format_phase_table(obs.registry)
    assert "req_service" in table
    assert "conn_failed_wait" in table


def test_format_registry_table(obs):
    table = format_registry_table(obs.registry)
    assert "spans_closed" in table
    assert "spans_connect_timeout" in table


def test_render_timeline_and_slowest(obs):
    span = list(obs.spans)[0]
    art = render_timeline(span)
    assert "service" in art
    assert art.startswith("conn 0: closed")
    out = render_slowest(obs, n=2)
    assert out.count("conn ") == 2
    assert render_slowest(Observer(lambda: 0.0)) is None


# ---------------------------------------------------------------------------
# PhaseProfiler
# ---------------------------------------------------------------------------

def test_profiler_attribution_and_shares():
    obs = Observer(lambda: 0.0)
    obs.cpu("parse", 1.0)
    obs.cpu("service", 2.0)
    obs.cpu("parse", 1.0)
    prof = obs.profile
    assert prof.attributed == pytest.approx(4.0)
    snap = prof.snapshot(total=5.0)
    assert snap["unattributed"] == pytest.approx(1.0)
    shares = prof.shares(total=5.0)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["service"] == pytest.approx(0.4)


def test_profiler_merge_and_table():
    # The view shares the observer's ledger: attribution made after the
    # view was taken (by any site) shows up in it.
    obs = Observer(lambda: 0.0)
    a = obs.profile
    obs.cpu("select", 1.0)
    obs.cpu("select", 2.0)
    obs.cpu("transmit", 3.0)
    assert a.cpu_seconds == {"select": 3.0, "transmit": 3.0}
    assert "select" in a.table()
    assert PhaseProfiler().table() == "(no CPU attributed)"
