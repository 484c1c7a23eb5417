"""Observability pinning: every number the obs layer produces, by digest.

The digests below were captured at commit ``e1212d5``, the last commit
where a run fed four separate hook families (the simulation tracer, the
span recorder, the phase profiler and the cluster listener probe) through
three mounts.  These tests prove that folding them into one observer
moved no number, in three groups:

* the observed single-server points of ``tests/test_obs_integration.py``
  plus one pinned-fluid nio point: span JSONL, the span registry's
  Prometheus text, the CPU-seconds-per-phase snapshot, the RunMetrics
  row and the sorted server stats;
* the httpd idle-reap point of ``tests/test_sim_trace.py``: its
  per-``(category, action)`` lifecycle event counts (captured from a
  traced run, now read from an observed one);
* the observed cluster flash and restart points of
  ``tests/test_cluster_observe_equivalence.py`` under the stock SLOs:
  trace JSONL, the aggregate and every per-tier series exposition, each
  SLO's alert times, the telemetry stats and the aggregate server stats.

Digest: sha256 of the text itself, or of ``json.dumps(value,
sort_keys=True)`` for structured values.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.cluster.scenarios import flash_point, restart_point, straggler_cluster
from repro.core import Scenario, ServerSpec, WorkloadSpec
from repro.core.experiment import Experiment
from repro.net import NetworkSpec
from repro.obs import default_slos, spans_to_jsonl, traces_to_jsonl
from repro.osmodel import MachineSpec
from repro.workload import SurgeConfig
from repro.workload.fluid import FluidConfig


def _sha(value) -> str:
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True)
    return hashlib.sha256(value.encode()).hexdigest()


# -- single-server points ---------------------------------------------------

SINGLE = {
    "nio-1": ("nio", 1, None),
    "httpd-64": ("httpd", 64, None),
    "staged-2": ("staged", 2, None),
    "amped-2": ("amped", 2, None),
    "nio-1/fluid": ("nio", 1, FluidConfig()),
}

SINGLE_DIGESTS = {
    "nio-1": {
        "spans": "eda75e47f066e902676085d86985896cce08bd6df2d2013b0e06cb5d1f2cde8d",
        "prometheus": "95d71fed26ea2313495ae94b2adc77a283f84ed4c349139047ee6f985a0998a4",
        "phases": "d63d1905c56abe6219eb6de76fc4b396568c36874638e1f7a21643dce38e4e17",
        "row": "1e89d896b9bc84a72c457a6587985775e763f86d2f0f0fcd04436cce339164b4",
        "server_stats": "499c0c60c77fb8ff9a8ba8a5adbe58063110043b84686eeac14b29ad8acace40",
    },
    "httpd-64": {
        "spans": "273a1882107295acde53f6f3f0bc86eea9904293044e588400eb2422414941cf",
        "prometheus": "4d052455c6d38385fc01685ffe1cc9848204dc8fc4d56b2d5cdc1a96e1b650fa",
        "phases": "a8f9b73bbfa25d4529e899adc6b06dd5b2e0dac0798fb514641abc864febeaf5",
        "row": "835b15e7c6c97179e3609319127d866611414736291d4b5490c79133c517dc99",
        "server_stats": "e0c244dd03d2b0f469ba221e9c6fadcefa644d828a1b93ac4bdc4172bbd8e4a2",
    },
    "staged-2": {
        "spans": "2e17686df25616639af173cfed3695efc266e7ef29ab5ca4fc9940eba22bec65",
        "prometheus": "83a92cf3557dd73214ee47e098fa3b186833c820a3ce356f0c4b5abf00fcd7bd",
        "phases": "d64623870d2c6b7eb75fe36c5e06a4749ec9e4b3d459c828220ba276c0459c14",
        "row": "a9d70280df182d9832e26e42b78fc1eed6e87c72e0c70fcdb1e874559a5b7aeb",
        "server_stats": "37c99214b4db2d7edfe5c77a7743edef474b80e0438e02a7941a2fd87a0e788a",
    },
    "amped-2": {
        "spans": "420f5176a5d6d664aba92f8df38664aa10f49c616877e81b7549a53351324d07",
        "prometheus": "81af269c6fc896e3db2c117a58cb8650fe4dbf6d6d9b2144c4b8f31222c934b0",
        "phases": "0dfe474e46e091728d1c5eacba7ff06e6bfcd194658877d989e7fe6733f324ce",
        "row": "f11c7f141fa2392bd8c99c53902ce090713a252c0afd59b9b1443e1dc37feddb",
        "server_stats": "78fd71a4fb1667b6df52478725a96275dae951a72be51c018bff12de0d584b84",
    },
    "nio-1/fluid": {
        "spans": "eda75e47f066e902676085d86985896cce08bd6df2d2013b0e06cb5d1f2cde8d",
        "prometheus": "95d71fed26ea2313495ae94b2adc77a283f84ed4c349139047ee6f985a0998a4",
        "phases": "d63d1905c56abe6219eb6de76fc4b396568c36874638e1f7a21643dce38e4e17",
        "row": "1e89d896b9bc84a72c457a6587985775e763f86d2f0f0fcd04436cce339164b4",
        "server_stats": "8dd2c24e8be58ffe82eb43c10b303ef0d0c9d093c6658ce66997c67e1e1b1c94",
    },
}


def _single(label):
    kind, threads, fluid = SINGLE[label]
    scenario = Scenario("t", MachineSpec(cpus=1), NetworkSpec.gigabit())
    experiment = Experiment(
        server=ServerSpec(kind=kind, threads=threads, observe=True),
        workload=WorkloadSpec(
            clients=60, duration=5.0, warmup=4.0, fluid=fluid
        ),
        machine=scenario.machine,
        network=scenario.network,
        seed=7,
    )
    metrics = experiment.run()
    obs = experiment.telemetry
    return {
        "spans": _sha(spans_to_jsonl(obs.spans)),
        "prometheus": _sha(obs.registry.prometheus_text()),
        "phases": _sha(obs.profile.snapshot()),
        "row": _sha(metrics.row()),
        "server_stats": _sha(sorted(metrics.server_stats.items())),
    }


@pytest.mark.parametrize("label", list(SINGLE))
def test_single_server_obs_digests(label):
    assert _single(label) == SINGLE_DIGESTS[label]


# -- lifecycle event counts -------------------------------------------------

LIFECYCLE_DIGEST = (
    "701bf02bc66bfb049260eec633bc4363"
    "1f2073f14b355a40d623b6b488121e88"
)


def _lifecycle_counts():
    experiment = Experiment(
        server=dataclasses.replace(ServerSpec.httpd(16), observe=True),
        workload=WorkloadSpec(
            clients=10, duration=30.0, warmup=10.0, n_files=50,
            surge=SurgeConfig(
                think_k=20.0, think_max=25.0, groups_per_session=2.0
            ),
        ),
    )
    experiment.run()
    counts = experiment.telemetry.counts
    return _sha(sorted([cat, act, n] for (cat, act), n in counts.items()))


def test_lifecycle_event_count_digest():
    assert _lifecycle_counts() == LIFECYCLE_DIGEST


# -- cluster points ---------------------------------------------------------

CLUSTER = {
    "rr-flash": ("round_robin", "flash"),
    "lc-flash": ("least_connections", "flash"),
    "rr-restart": ("round_robin", "restart"),
    "lc-restart": ("least_connections", "restart"),
}

CLUSTER_DIGESTS = {
    "rr-flash": {
        "server_stats": "b0cdf43dc4547f27a51ceb036eb3a20986dc379a3ca397546e9bb37990b63db6",
        "traces": "71c61b93d1c5527692f8a5f976466abac983b69349177e228f0d0c176b283cf1",
        "series": "17b027993e7019102d6a2f8e3fa7616fef3d911ec2108675b009bef1ec7fe3f0",
        "alerts": "8e8c762ecf501a0100653ff7a217de159725cf11eff1d60b267d36eed25b7ad1",
        "stats": "c30c7d127c82ac9b4dcfa939872c48f28eed9ec5541aa54d89b1d72b42db47ef",
    },
    "lc-flash": {
        "server_stats": "4081a5e7354106f1a8c98ba5e785c24d29fcaca62a7dda3fbabeff38cbcabe42",
        "traces": "056964647acbdd3f3573cf6058da48fc969dadbcc92f71b340b8f74455a14e8a",
        "series": "dae8d85d10622e395a38d91a55fddf5ba4d4f49e8eeb409e36e62caa63a5ceef",
        "alerts": "8e8c762ecf501a0100653ff7a217de159725cf11eff1d60b267d36eed25b7ad1",
        "stats": "c30c7d127c82ac9b4dcfa939872c48f28eed9ec5541aa54d89b1d72b42db47ef",
    },
    "rr-restart": {
        "server_stats": "281a48fecbf57aed51ffaf0e410842598485a2a36f1ef8b3c84928be577e004c",
        "traces": "649a87c31aa37abd98dd0d364d843479cfba1fb0d3e54d9467961e446e269543",
        "series": "58d59f0f7c4b4a489e562cc3739d7e228d820d303f35980d3e2e95c33306d400",
        "alerts": "8284abe4a88e7a4a2d4428e2c3cf4e8c49b5437e0df8d2b3c3817db2c42ee8df",
        "stats": "5f4e74108b44b6dbcd07766564abb5f35750e9a9ede2554a93d20a01b19b58d3",
    },
    "lc-restart": {
        "server_stats": "8efcfd5695b92fb9343e10e607f0d6cdad0daff3fc625eb408c8095449fba69a",
        "traces": "c90a54dfce1dd053b58fe156fafffe2d9fdacd8a4cf82f48e1d1c22144499d42",
        "series": "3f8c329c9613983245a2fe2e0ae2d9ee3c34109489df58124cdfbba629670e1d",
        "alerts": "b6cd2f11b175067341540b1cea8941637c203c1de0c54512d5f8d843f65b0fc1",
        "stats": "6fd6bd37a74af00f4302b537bb7a34e38715c5f743ced4134f89f140f9dcd8a7",
    },
}


def _cluster(label):
    policy, scenario = CLUSTER[label]
    cluster = dataclasses.replace(
        straggler_cluster(policy=policy), observe=True, slos=default_slos()
    )
    if scenario == "flash":
        point = flash_point(
            cluster, clients=24, surge_clients=60,
            duration=2.0, warmup=1.0, seed=7,
        )
    else:
        point = restart_point(
            cluster, clients=24, duration=2.0, warmup=1.0, seed=7
        )
    experiment = point.experiment()
    metrics = experiment.run()
    telemetry = experiment.telemetry
    return {
        "traces": _sha(traces_to_jsonl(telemetry.tracer.traces)),
        "series": _sha(
            [telemetry.series.exposition_text()]
            + [
                [name, telemetry.tier_series[name].exposition_text()]
                for name in sorted(telemetry.tier_series)
            ]
        ),
        "alerts": _sha(
            [
                [m.spec.name, [[a.fired_at, a.resolved_at] for a in m.alerts]]
                for m in telemetry.monitors
            ]
        ),
        "stats": _sha(sorted(telemetry.stats().items())),
        "server_stats": _sha(sorted(metrics.server_stats.items())),
    }


@pytest.mark.parametrize("label", list(CLUSTER))
def test_cluster_obs_digests(label):
    assert _cluster(label) == CLUSTER_DIGESTS[label]
