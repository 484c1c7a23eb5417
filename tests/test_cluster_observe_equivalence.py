"""Pay-for-use pinning: mounting observability must not change results.

The telemetry mount (spans, causal traces, windowed series, SLO
monitors) schedules no simulator events, draws no random numbers, and
charges no machine CPU — it is bookkeeping layered on timestamps the
cluster already produces.  These tests run complete cluster experiments
twice, with ``observe=False`` and with the full mount (``observe=True``
plus the stock SLOs), and require the aggregate row, every RunMetrics
field, and every per-replica row to be *identical* — not approximately
equal.  Any divergence means observability perturbed the simulation.

Mirror of ``test_kernel_row_digests.py``, which pins the same property
for the kernel.
"""

import dataclasses

import pytest

from repro.cluster.scenarios import (
    flash_point,
    restart_point,
    straggler_cluster,
)
from repro.obs import default_slos

#: Balancer x scenario grid: both routing policies (different pick
#: sequences, so different event interleavings), each under the two
#: scenarios that exercise the most instrumentation sites — a flash
#: crowd (cache + surge arrivals) and a rolling restart (drain/kill
#: paths, state changes, error events feeding the SLO monitors).
GRID = [
    ("rr-flash", "round_robin", "flash"),
    ("lc-flash", "least_connections", "flash"),
    ("rr-restart", "round_robin", "restart"),
    ("lc-restart", "least_connections", "restart"),
]

#: Aggregate server_stats keys that exist only because observability is
#: mounted; everything else must match bit for bit.
_OBS_ONLY_PREFIXES = ("trace.", "slo.", "obs.")
_OBS_ONLY_KEYS = {"spans_unfinished", "obs_queue_share", "obs_service_share"}


def _point(policy, scenario, observe):
    cluster = straggler_cluster(policy=policy)
    if observe:
        cluster = dataclasses.replace(
            cluster, observe=True, slos=default_slos()
        )
    if scenario == "flash":
        return flash_point(
            cluster, clients=24, surge_clients=60,
            duration=2.0, warmup=1.0, seed=7,
        )
    return restart_point(
        cluster, clients=24, duration=2.0, warmup=1.0, seed=7
    )


def _strip(stats):
    return {
        k: v
        for k, v in stats.items()
        if k not in _OBS_ONLY_KEYS
        and not k.startswith(_OBS_ONLY_PREFIXES)
    }


@pytest.mark.parametrize(
    "label,policy,scenario", GRID, ids=[g[0] for g in GRID]
)
def test_cluster_results_identical_with_and_without_observe(
    label, policy, scenario
):
    plain = _point(policy, scenario, observe=False).experiment()
    observed = _point(policy, scenario, observe=True).experiment()
    row_plain = plain.run()
    row_obs = observed.run()

    assert row_plain.row() == row_obs.row()
    # Every scalar RunMetrics field, not just the printed columns.
    for f in dataclasses.fields(row_plain):
        if f.name == "server_stats":
            continue
        assert getattr(row_plain, f.name) == getattr(row_obs, f.name), f.name
    assert _strip(row_obs.server_stats) == row_plain.server_stats

    # Per-replica metrics too: the mount wraps every listener.
    assert plain.replica_metrics.keys() == observed.replica_metrics.keys()
    for rid, rm_plain in plain.replica_metrics.items():
        rm_obs = observed.replica_metrics[rid]
        assert rm_plain.row() == rm_obs.row(), rid
        assert _strip(rm_obs.server_stats) == _strip(rm_plain.server_stats)

    # And the observed run actually observed something — this test must
    # not pass because the mount silently failed to attach.
    assert observed.telemetry is not None
    assert len(observed.telemetry.tracer) > 0
    assert row_obs.server_stats["trace.requests"] > 0
    assert plain.telemetry is None
    # The run did something: a row of zeros would pass vacuously.
    assert row_plain.row()["replies/s"] > 0
