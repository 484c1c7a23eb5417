"""Row pinning: RunMetrics rows captured before the kernel went heap-only.

The kernel once staged long timers on a hierarchical timing wheel, could
flush wheel slots in numpy bulk batches, and had an optional compiled
dispatch core.  All three promised the dispatch order of a plain
``(time, seq)`` heap, and all three were deleted in favour of that heap.
The digests below were captured at commit ``1ce95f7`` (the last commit
with the timing wheel, run in its default wheel mode; heap-only mode gave
the same digests), so these tests prove the deletion moved no result:
every complete experiment — client workload, TCP model, server
architecture, CPU model, metrics pipeline — must produce the
byte-identical RunMetrics row it produced then.

Digest: sha256 of ``json.dumps(metrics.row(), sort_keys=True)``.
"""

import hashlib
import json

import pytest

from repro.core.experiment import Experiment
from repro.core.params import ServerSpec, WorkloadSpec
from repro.core.scenarios import OVERLOAD_UP, UP_FAST_ETHERNET
from repro.net.topology import NetworkSpec
from repro.osmodel.machine import MachineSpec
from repro.workload.fluid import FluidClass, FluidConfig

UP, SMP = MachineSpec(cpus=1), MachineSpec(cpus=4)
DSL = FluidClass("dsl", weight=1.0, bandwidth_bps=8e6, rtt_s=0.06)
LAN = FluidClass("lan", weight=2.0)

#: label -> (server, machine, network, fluid config).  The 2 x 2 grid of
#: architecture x scenario: httpd arms a reap timer per idle connection,
#: nio arms none of its own; a uniprocessor gigabit testbed and a 4-way
#: SMP fast-ethernet one give different interleavings, link congestion
#: and CPU timer churn.  Then the pinned-fluid points of
#: tests/test_fluid_equivalence.py and the other two architectures.
POINTS = {
    "httpd-up-1g": (ServerSpec.httpd(64), UP, "gigabit", None),
    "httpd-smp-100m": (ServerSpec.httpd(64), SMP, "fast_ethernet", None),
    "nio-up-1g": (ServerSpec.nio(1), UP, "gigabit", None),
    "nio-smp-100m": (ServerSpec.nio(1), SMP, "fast_ethernet", None),
    "httpd-up-1g/fluid": (ServerSpec.httpd(64), UP, "gigabit", FluidConfig()),
    "httpd-smp-100m/fluid": (
        ServerSpec.httpd(64), SMP, "fast_ethernet", FluidConfig()
    ),
    "nio-up-1g/fluid": (ServerSpec.nio(1), UP, "gigabit", FluidConfig()),
    "nio-smp-100m/fluid": (
        ServerSpec.nio(1), SMP, "fast_ethernet", FluidConfig()
    ),
    "nio-up-1g/fluid-classes": (
        ServerSpec.nio(1), UP, "gigabit",
        FluidConfig(classes=(DSL, LAN), budget=4096),
    ),
    "nio-up-1g/fluid-unbudgeted": (
        ServerSpec.nio(1), UP, "gigabit", FluidConfig(budget=None)
    ),
    "staged-up-1g": (ServerSpec.staged(1), UP, "gigabit", None),
    "amped-up-1g": (ServerSpec.amped(2), UP, "gigabit", None),
}

DIGESTS = {
    "httpd-up-1g":
        "cef7a850798de87c1e3fbd2a88ec2df14a497d4f5b81e1fb830002c72d96549d",
    "httpd-smp-100m":
        "948f276fafd505444ccc877da023f2139cdecc13e4af602a24cbe8f1db666136",
    "nio-up-1g":
        "64aeffa852613008850cc4a0be175bc25393d2604be10af041ed3ef79c9eae35",
    "nio-smp-100m":
        "dc1285b12e9b3c56956f0c86254cb0052d4b63790222b0fd57e9de401c8d565f",
    "httpd-up-1g/fluid":
        "cef7a850798de87c1e3fbd2a88ec2df14a497d4f5b81e1fb830002c72d96549d",
    "httpd-smp-100m/fluid":
        "948f276fafd505444ccc877da023f2139cdecc13e4af602a24cbe8f1db666136",
    "nio-up-1g/fluid":
        "64aeffa852613008850cc4a0be175bc25393d2604be10af041ed3ef79c9eae35",
    "nio-smp-100m/fluid":
        "dc1285b12e9b3c56956f0c86254cb0052d4b63790222b0fd57e9de401c8d565f",
    "nio-up-1g/fluid-classes":
        "d719ff4f1551898859487e592ae6f38f4e417088ac2dc29eb71918d7a0c59abe",
    "nio-up-1g/fluid-unbudgeted":
        "64aeffa852613008850cc4a0be175bc25393d2604be10af041ed3ef79c9eae35",
    "staged-up-1g":
        "6f84b4770865a75539438589216868a497008decc12248555042f9c0e87eaee1",
    "amped-up-1g":
        "17b0ba45a857caf97066caeeab88ecd7c2020f2262ebd008e8d8c47d8ba9c845",
}

#: Aggregate-regime fluid points (600 clients over a 512-session budget)
#: on saturated testbeds, from test_fluid_equivalence.py's tolerance
#: grid: the regime that leans hardest on long batch timers.
AGGREGATE = {
    "overload-httpd/fluid-aggregate": (
        ServerSpec.httpd(512), OVERLOAD_UP,
        "6419b7494f712fbf40cdb53109aff586b237a1ea9fd5e7d2c9aeb5dba785cf3d",
    ),
    "100m-nio/fluid-aggregate": (
        ServerSpec.nio(1), UP_FAST_ETHERNET,
        "b5a1c4413d437a500ea353ad18ad789235ec348060f748599eb8bafebb9a8e1f",
    ),
}


def _digest(row):
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(POINTS))
def test_row_matches_digest_captured_before_the_heap_kernel(label):
    spec, machine, network, fluid = POINTS[label]
    row = Experiment(
        server=spec,
        workload=WorkloadSpec(
            clients=96, duration=3.0, warmup=1.5, fluid=fluid
        ),
        machine=machine,
        network=getattr(NetworkSpec, network)(),
        seed=7,
    ).run().row()
    assert row["replies/s"] > 0  # a row of zeros would match vacuously
    assert _digest(row) == DIGESTS[label]


@pytest.mark.parametrize("label", sorted(AGGREGATE))
def test_aggregate_fluid_row_matches_captured_digest(label):
    spec, scenario, digest = AGGREGATE[label]
    row = Experiment(
        server=spec,
        workload=WorkloadSpec(
            clients=600, duration=4.0, warmup=6.0,
            fluid=FluidConfig(budget=512),
        ),
        machine=scenario.machine,
        network=scenario.network,
        seed=7,
    ).run().row()
    assert row["replies/s"] > 0
    assert _digest(row) == digest
