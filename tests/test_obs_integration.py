"""End-to-end observability: instrumented sim runs and live endpoints."""

import time

import pytest

from repro.core import Scenario, ServerSpec, WorkloadSpec
from repro.core.experiment import Experiment
from repro.net import NetworkSpec
from repro.obs import Observer, Registry
from repro.osmodel import MachineSpec


def _run_observed(kind, threads, clients=60):
    scenario = Scenario("t", MachineSpec(cpus=1), NetworkSpec.gigabit())
    experiment = Experiment(
        server=ServerSpec(kind=kind, threads=threads, observe=True),
        workload=WorkloadSpec(clients=clients, duration=5.0, warmup=4.0),
        machine=scenario.machine,
        network=scenario.network,
        seed=7,
    )
    metrics = experiment.run()
    return experiment, metrics


@pytest.mark.parametrize(
    "kind,threads",
    [("nio", 1), ("httpd", 64), ("staged", 2), ("amped", 2)],
)
def test_observed_run_all_architectures(kind, threads):
    experiment, metrics = _run_observed(kind, threads)
    obs = experiment.telemetry

    # Spans were recorded and every one was terminated.
    assert len(obs) > 0
    assert all(s.status is not None for s in obs.spans)
    assert metrics.throughput_rps > 0

    # The breakdown made it into the run's server stats.
    stats = metrics.server_stats
    for key in ("obs_queue_wait_s", "obs_service_s",
                "obs_queue_share", "obs_service_share"):
        assert key in stats
    assert stats["obs_queue_share"] + stats["obs_service_share"] == (
        pytest.approx(1.0, abs=1e-4)
    )
    assert stats["obs_service_s"] > 0.0

    # The observer attributed CPU to parse + service at least, and the
    # attribution cannot exceed wall-clock x CPUs for the whole run
    # (warmup + measurement + drain all charge the same CPUs).
    assert obs.cpu_seconds["parse"] > 0.0
    assert obs.cpu_seconds["service"] > 0.0
    assert 0.0 < obs.profile.attributed < 60.0 * experiment.machine.cpus

    # Lifecycle events are counted; spans keep only their phase marks.
    established = sum(s.first("established") is not None for s in obs.spans)
    assert obs.dropped == 0
    assert obs.counts[("conn", "established")] == established > 0
    assert obs.counts[("conn", "server_close")] > 0
    assert all(s.first("server_close") is None for s in obs.spans)


def test_observe_disabled_by_default():
    scenario = Scenario("t", MachineSpec(cpus=1), NetworkSpec.gigabit())
    experiment = Experiment(
        server=ServerSpec(kind="nio", threads=1),
        workload=WorkloadSpec(clients=30, duration=4.0, warmup=3.0),
        machine=scenario.machine,
        network=scenario.network,
    )
    metrics = experiment.run()
    assert experiment.telemetry is None
    assert "obs_queue_share" not in metrics.server_stats


def test_observed_run_is_deterministic():
    _, a = _run_observed("httpd", 32, clients=50)
    _, b = _run_observed("httpd", 32, clients=50)
    assert a.server_stats["obs_queue_wait_s"] == (
        b.server_stats["obs_queue_wait_s"]
    )
    assert a.server_stats["obs_service_s"] == b.server_stats["obs_service_s"]


def test_profiler_select_phase_only_on_event_driven():
    exp_nio, _ = _run_observed("nio", 1)
    exp_httpd, _ = _run_observed("httpd", 64)
    assert exp_nio.telemetry.cpu_seconds.get("select", 0.0) > 0.0
    assert "select" not in exp_httpd.telemetry.cpu_seconds


# ---------------------------------------------------------------------------
# live servers
# ---------------------------------------------------------------------------

def _get(port, path="/-/metrics"):
    from tests.test_live import raw_request

    payload = (
        f"GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    ).encode()
    return raw_request(port, payload)


@pytest.mark.parametrize("which", ["event", "thread"])
def test_live_metrics_endpoint_and_spans(which):
    from repro.live import (
        AsyncioEventServer,
        DocRoot,
        ThreadPoolHttpServer,
    )

    docroot = DocRoot.synthetic(n_files=4)
    obs = Observer(time.monotonic, capacity=64)
    if which == "event":
        server = AsyncioEventServer(docroot, obs=obs)
    else:
        server = ThreadPoolHttpServer(docroot, pool_size=2, obs=obs)
    server.start()
    try:
        # One real file request, then scrape the metrics endpoint.
        _get(server.port, docroot.paths()[0])
        deadline = time.time() + 5.0
        while server.requests_served < 1 and time.time() < deadline:
            time.sleep(0.01)
        response = _get(server.port)
        assert b"200 OK" in response
        body = response.partition(b"\r\n\r\n")[2].decode()
        assert "# TYPE repro_requests_served counter" in body
        assert "repro_connections_accepted" in body
        assert "# TYPE repro_request_latency histogram" in body
        assert 'repro_request_latency_bucket{le="+Inf"}' in body
    finally:
        server.stop()

    # Both closed connections produced finished wall-clock spans.
    deadline = time.time() + 5.0
    while len(obs) < 2 and time.time() < deadline:
        time.sleep(0.01)
    assert len(obs) >= 2
    span = obs.spans[0]
    assert span.status in ("closed", "reset", "idle_reap")
    assert span.first("accept") is not None
    assert obs.registry.hist_total("req_service") >= 0.0


def test_live_servers_share_registry_metric_surface():
    reg = Registry()
    reg.counter("requests_served").inc(5)
    text = reg.prometheus_text()
    assert "repro_requests_served 5" in text
