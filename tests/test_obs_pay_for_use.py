"""Pay-for-use pinning for the single-server observer.

Mounting the observer (``ServerSpec(observe=True)``) is bookkeeping on
timestamps the run already produces: it schedules no simulator events,
draws no random numbers and charges no modelled CPU.  So every
RunMetrics field must be equal with observe on and off, except the
server-stats keys that exist only because the observer is mounted.

With observe off the run must not pay for observability at all: not one
call into ``repro.obs``, counted exactly by :mod:`cProfile`.  This is
the guard that observability costs nothing when unmounted; it crosses
every instrumentation site of the transport, the servers and the
client workload.

The cluster twin of the first property is
``tests/test_cluster_observe_equivalence.py``.
"""

import cProfile
import dataclasses
import os
import pstats

import pytest

import repro.obs
from repro.core import Scenario, ServerSpec, WorkloadSpec
from repro.core.experiment import Experiment
from repro.net import NetworkSpec
from repro.osmodel import MachineSpec
from repro.workload.fluid import FluidConfig

POINTS = {
    "nio-1": ("nio", 1, None),
    "httpd-64": ("httpd", 64, None),
    "staged-2": ("staged", 2, None),
    "amped-2": ("amped", 2, None),
    "nio-1/fluid": ("nio", 1, FluidConfig()),
}

_OBS_DIR = os.path.dirname(os.path.abspath(repro.obs.__file__))


def _experiment(label, observe):
    kind, threads, fluid = POINTS[label]
    scenario = Scenario("t", MachineSpec(cpus=1), NetworkSpec.gigabit())
    return Experiment(
        server=ServerSpec(kind=kind, threads=threads, observe=observe),
        workload=WorkloadSpec(
            clients=60, duration=5.0, warmup=4.0, fluid=fluid
        ),
        machine=scenario.machine,
        network=scenario.network,
        seed=7,
    )


def _obs_only(key):
    return key == "spans_unfinished" or key.startswith("obs_")


@pytest.mark.parametrize("label", list(POINTS))
def test_run_metrics_equal_with_and_without_observe(label):
    plain = dataclasses.asdict(_experiment(label, observe=False).run())
    observed = dataclasses.asdict(_experiment(label, observe=True).run())
    stats = observed.pop("server_stats")
    assert any(_obs_only(k) for k in stats)  # the mount did attach
    assert {k: v for k, v in stats.items() if not _obs_only(k)} == (
        plain.pop("server_stats")
    )
    assert observed == plain
    assert plain["replies"] > 0


@pytest.mark.parametrize("label", list(POINTS))
def test_unobserved_run_makes_no_obs_calls(label):
    experiment = _experiment(label, observe=False)
    profile = cProfile.Profile()
    profile.enable()
    try:
        experiment.run()
    finally:
        profile.disable()
    table = pstats.Stats(profile).stats
    obs_calls = {
        f"{os.path.basename(path)}:{name}": ncalls
        for (path, _line, name), (_cc, ncalls, *_rest) in table.items()
        if os.path.dirname(os.path.abspath(path)) == _OBS_DIR
    }
    assert obs_calls == {}
    # The profile did see the run: the check is not vacuous.
    assert any("repro" in path for (path, _line, _name) in table)
