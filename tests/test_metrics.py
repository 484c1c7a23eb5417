"""Unit tests for metrics collectors and run reports."""

import pytest

from repro.metrics import (
    CLIENT_TIMEOUT,
    CONNECTION_RESET,
    IntervalSeries,
    MetricsHub,
    RunMetrics,
    StatAccumulator,
    format_table,
)
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# StatAccumulator
# ---------------------------------------------------------------------------

def test_accumulator_basic_stats():
    acc = StatAccumulator()
    for v in (1.0, 2.0, 3.0, 4.0):
        acc.add(v)
    assert acc.count == 4
    assert acc.mean == 2.5
    assert acc.min == 1.0
    assert acc.max == 4.0
    assert acc.percentile(50) == pytest.approx(2.5)


def test_accumulator_empty():
    acc = StatAccumulator()
    assert acc.mean == 0.0
    assert acc.std == 0.0
    assert acc.percentile(99) == 0.0
    summary = acc.summary()
    assert summary["count"] == 0
    assert summary["min"] == 0.0


def test_accumulator_std():
    acc = StatAccumulator()
    for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
        acc.add(v)
    assert acc.std == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# IntervalSeries
# ---------------------------------------------------------------------------

def test_interval_series_rates():
    s = IntervalSeries(bin_width=1.0)
    for t in (0.1, 0.5, 1.2, 3.9):
        s.add(t)
    assert s.rates() == [2.0, 1.0, 0.0, 1.0]


def test_interval_series_cov_steady_vs_bursty():
    steady = IntervalSeries()
    bursty = IntervalSeries()
    for i in range(10):
        steady.add(i + 0.5, 10)
        bursty.add(i + 0.5, 20 if i % 2 == 0 else 1)
    assert steady.coefficient_of_variation() == pytest.approx(0.0)
    assert bursty.coefficient_of_variation() > 0.5


def test_interval_series_empty():
    assert IntervalSeries().rates() == []
    assert IntervalSeries().coefficient_of_variation() == 0.0


# ---------------------------------------------------------------------------
# MetricsHub
# ---------------------------------------------------------------------------

def test_hub_window_gating():
    sim = Simulator()
    hub = MetricsHub(sim, warmup=5.0, duration=10.0)
    # Before the window: ignored.
    hub.record_reply(0.1, 0.05, 1000)
    hub.record_error(CLIENT_TIMEOUT)
    assert hub.replies == 0
    assert hub.errors == {}
    # Inside the window: counted.
    sim.run(until=7.0)
    hub.record_reply(0.1, 0.05, 1000)
    hub.record_error(CONNECTION_RESET)
    hub.record_connection(0.001)
    hub.record_session()
    assert hub.replies == 1
    assert hub.errors[CONNECTION_RESET] == 1
    assert hub.connections_established == 1
    assert hub.sessions_completed == 1
    # After the window: ignored again.
    sim.run(until=20.0)
    hub.record_reply(0.1, 0.05, 1000)
    assert hub.replies == 1


def test_hub_rates():
    sim = Simulator()
    hub = MetricsHub(sim, warmup=0.0, duration=10.0)
    for _ in range(50):
        hub.record_reply(0.2, 0.1, 2000)
    hub.record_error(CLIENT_TIMEOUT)
    assert hub.throughput_rps == 5.0
    assert hub.error_rate(CLIENT_TIMEOUT) == 0.1
    assert hub.bandwidth_bytes_per_s == pytest.approx(10_000.0)


def test_hub_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        MetricsHub(sim, warmup=-1.0, duration=10.0)
    with pytest.raises(ValueError):
        MetricsHub(sim, warmup=0.0, duration=0.0)


# ---------------------------------------------------------------------------
# RunMetrics / format_table
# ---------------------------------------------------------------------------

def make_run_metrics():
    sim = Simulator()
    hub = MetricsHub(sim, warmup=0.0, duration=10.0)
    for i in range(100):
        hub.record_reply(0.05 + i * 0.001, 0.02, 15_000)
    hub.record_error(CLIENT_TIMEOUT)
    hub.record_connection(0.0004)
    return RunMetrics.from_hub(
        hub, clients=600, cpu_utilization=0.42,
        server_stats={"pool_size": 896},
    )


def test_run_metrics_snapshot():
    m = make_run_metrics()
    assert m.clients == 600
    assert m.replies == 100
    assert m.throughput_rps == 10.0
    assert m.client_timeout_rate == pytest.approx(0.1)
    assert m.connection_reset_rate == 0.0
    assert m.cpu_utilization == 0.42
    assert m.server_stats["pool_size"] == 896
    assert m.bandwidth_mbytes_per_s == pytest.approx(0.15)


def test_run_metrics_row_columns():
    row = make_run_metrics().row()
    for col in ("clients", "replies/s", "resp_ms", "conn_ms",
                "timeout/s", "reset/s", "MB/s", "cpu%"):
        assert col in row


def test_format_table_alignment():
    rows = [{"a": 1, "bb": "xy"}, {"a": 222, "bb": "z"}]
    out = format_table(rows, title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5
    # All body lines aligned to the same width.
    assert len(set(len(l) for l in lines[1:])) == 1


def test_format_table_empty():
    assert "(no data)" in format_table([], title="x")


# ---------------------------------------------------------------------------
# StatAccumulator reservoir sampling
# ---------------------------------------------------------------------------

def test_accumulator_reservoir_caps_samples():
    from repro.metrics.collectors import _MAX_SAMPLES

    acc = StatAccumulator()
    n = _MAX_SAMPLES + 10_000
    for i in range(n):
        acc.add(float(i))
    # Exact statistics are unaffected by the reservoir.
    assert acc.count == n
    assert acc.min == 0.0
    assert acc.max == float(n - 1)
    assert acc.mean == pytest.approx((n - 1) / 2.0)
    # Retention is capped; the overflow is counted, not silently lost.
    assert len(acc._samples) == _MAX_SAMPLES
    assert acc.samples_dropped == 10_000
    assert acc.summary()["samples_dropped"] == 10_000
    # A uniform reservoir over 0..n keeps quantiles roughly in place.
    assert acc.percentile(50) == pytest.approx(n / 2, rel=0.05)


def test_accumulator_reservoir_is_seeded():
    a, b = StatAccumulator(), StatAccumulator()
    from repro.metrics.collectors import _MAX_SAMPLES

    for i in range(_MAX_SAMPLES + 500):
        a.add(float(i))
        b.add(float(i))
    assert a._samples == b._samples  # same seed -> same reservoir


def test_accumulator_no_drops_below_cap():
    acc = StatAccumulator()
    for v in (1.0, 2.0, 3.0):
        acc.add(v)
    assert acc.samples_dropped == 0
    assert acc.summary()["samples_dropped"] == 0


# ---------------------------------------------------------------------------
# rows carry no trace-event columns
# ---------------------------------------------------------------------------

def test_run_metrics_trace_columns_absent_by_default():
    row = make_run_metrics().row()
    assert "trace_ev" not in row
    assert "trace_drop" not in row


def test_run_metrics_trace_columns():
    # Lifecycle event counts live on the run's observer, never in the
    # row: observed and unobserved rows have the same columns.
    sim = Simulator()
    hub = MetricsHub(sim, warmup=0.0, duration=10.0)
    hub.record_reply(0.05, 0.02, 15_000)
    m = RunMetrics.from_hub(
        hub, clients=60, cpu_utilization=0.1,
        server_stats={"spans_unfinished": 3, "obs_queue_share": 0.5},
    )
    row = m.row()
    assert list(row) == list(make_run_metrics().row())
    assert "trace_ev" not in format_table([row])
