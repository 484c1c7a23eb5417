"""Connection-lifecycle event counts, kept by the run's observer.

A run used to record these events (handshakes, server closes, observed
resets, idle reaps) in a separate ring-buffered tracer.  Only their
per-``(category, action)`` counts were ever read, so the one observer a
run mounts now counts them at the same sites.
"""

import pytest

from repro.core import Experiment, ServerSpec, WorkloadSpec
from repro.obs import Observer
from repro.obs.trace import ClusterTracer
from repro.sim import Simulator
from repro.workload import SurgeConfig


def test_emit_and_query():
    sim = Simulator()
    obs = Observer(lambda: sim.now)
    obs.count("conn", "established")
    sim.run(until=5.0)
    obs.count("error", "reset_observed")
    obs.count("error", "reset_observed")
    assert obs.counts == {
        ("conn", "established"): 1,
        ("error", "reset_observed"): 2,
    }
    # Counting touches no span timeline.
    assert len(obs) == 0


def test_ring_buffer_eviction_keeps_counts():
    # The observer's bounded ring holds finished spans; evicting them
    # loses neither the event counts nor the span aggregates.
    obs = Observer(lambda: 0.0, capacity=10)
    for _ in range(25):
        span = obs.open()
        obs.established(span)
        obs.finish(span, "closed")
    assert len(obs) == 10
    assert obs.dropped == 15
    assert obs.counts[("conn", "established")] == 25
    assert obs.registry.histogram("conn_lifetime").count == 25


def test_event_str_and_summary():
    obs = Observer(lambda: 0.0)
    assert obs.count_table() == "(no events)"
    obs.count("server", "idle_reap")
    obs.count("conn", "server_close")
    assert obs.count_table() == "conn/server_close: 1\nserver/idle_reap: 1"


def test_capacity_validation():
    with pytest.raises(ValueError):
        ClusterTracer(seed=1, capacity=0)


def test_experiment_traces_connection_lifecycle():
    exp = Experiment(
        server=ServerSpec("httpd", 16, observe=True),
        workload=WorkloadSpec(
            clients=10, duration=30.0, warmup=10.0, n_files=50,
            surge=SurgeConfig(
                think_k=20.0, think_max=25.0, groups_per_session=2.0
            ),
        ),
    )
    exp.run()
    counts = exp.telemetry.counts
    assert counts[("conn", "established")] > 0
    # Long thinks against the 15 s reap: reaps and observed resets counted.
    assert counts[("server", "idle_reap")] > 0
    assert counts[("error", "reset_observed")] > 0
    assert counts[("conn", "server_close")] >= counts[("server", "idle_reap")]


def test_experiment_without_trace_has_no_tracer():
    exp = Experiment(
        server=ServerSpec.nio(1),
        workload=WorkloadSpec(clients=5, duration=5.0, warmup=2.0, n_files=50),
    )
    metrics = exp.run()
    assert exp.telemetry is None
    assert "spans_unfinished" not in metrics.server_stats
