"""Equivalence pinning for the fluid client population.

The fluid generator's license to exist (DESIGN.md §13): it must change
the *cost* of the client population, not the results.  Two regimes, two
contracts:

* **pinned** (population fits the boundary budget): byte-identical
  RunMetrics rows against the discrete generator — same streams, same
  offsets, same link rotation — across architectures, scenarios and
  random class mixes;
* **aggregate** (population exceeds the budget): statistical agreement
  on saturated testbeds, pinned to explicit tolerances.  Saturation is
  part of the contract — the budget must exceed the server's useful
  concurrency for the marginal aggregated client's fate to match the
  discrete model's (see the budget contract in repro/workload/fluid.py).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.experiment import Experiment
from repro.core.params import ServerSpec, WorkloadSpec
from repro.core.scenarios import OVERLOAD_UP, UP_FAST_ETHERNET
from repro.net.topology import NetworkSpec
from repro.osmodel.machine import MachineSpec
from repro.workload.fluid import FluidClass, FluidConfig

#: Architecture x scenario grid, mirroring test_kernel_row_digests.py.
GRID = [
    ("httpd-up-1g", ServerSpec.httpd(64), MachineSpec(cpus=1), "gigabit"),
    ("httpd-smp-100m", ServerSpec.httpd(64), MachineSpec(cpus=4),
     "fast_ethernet"),
    ("nio-up-1g", ServerSpec.nio(1), MachineSpec(cpus=1), "gigabit"),
    ("nio-smp-100m", ServerSpec.nio(1), MachineSpec(cpus=4),
     "fast_ethernet"),
]


def _row(spec, machine, network, clients=96, fluid=None, seed=7,
         duration=3.0, warmup=1.5):
    metrics = Experiment(
        server=spec,
        workload=WorkloadSpec(
            clients=clients, duration=duration, warmup=warmup, fluid=fluid
        ),
        machine=machine,
        network=network if isinstance(network, NetworkSpec)
        else getattr(NetworkSpec, network)(),
        seed=seed,
    ).run()
    return metrics


# -- pinned regime: byte identity --------------------------------------------

@pytest.mark.parametrize(
    "label,spec,machine,network", GRID, ids=[g[0] for g in GRID]
)
def test_pinned_fluid_rows_identical_to_discrete(
    label, spec, machine, network
):
    discrete = _row(spec, machine, network).row()
    fluid = _row(spec, machine, network, fluid=FluidConfig()).row()
    assert fluid == discrete
    assert discrete["replies/s"] > 0  # not vacuously equal


def test_pinned_regime_ignores_the_budget_value():
    """96 clients under budget=4096 and budget=None are the same pin."""
    spec, machine = ServerSpec.nio(1), MachineSpec(cpus=1)
    capped = _row(spec, machine, "gigabit", fluid=FluidConfig()).row()
    uncapped = _row(
        spec, machine, "gigabit", fluid=FluidConfig(budget=None)
    ).row()
    assert capped == uncapped


def test_class_reorder_invariance_pinned_and_aggregate():
    """Class declaration order never matters, in either regime."""
    dsl = FluidClass("dsl", weight=1.0, bandwidth_bps=8e6, rtt_s=0.06)
    lan = FluidClass("lan", weight=2.0)
    spec, machine = ServerSpec.nio(1), MachineSpec(cpus=1)
    for budget in (4096, 64):  # 96 <= 4096 pins; 96 > 64 aggregates
        ab = _row(
            spec, machine, "gigabit",
            fluid=FluidConfig(classes=(dsl, lan), budget=budget),
        ).row()
        ba = _row(
            spec, machine, "gigabit",
            fluid=FluidConfig(classes=(lan, dsl), budget=budget),
        ).row()
        assert ab == ba, f"budget={budget}"
        assert ab["replies/s"] > 0


# -- property: random non-WAN class mixes stay pinned to discrete ------------

_names = st.lists(
    st.sampled_from(["a", "b", "c", "d", "e"]),
    min_size=1, max_size=4, unique=True,
)
_weights = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_random_class_mixes_without_wan_overrides_pin_to_discrete(data):
    names = data.draw(_names)
    classes = tuple(
        FluidClass(name, weight=data.draw(_weights)) for name in names
    )
    spec, machine = ServerSpec.nio(1), MachineSpec(cpus=1)
    discrete = _row(
        spec, machine, "gigabit", clients=24, duration=1.5, warmup=0.75
    ).row()
    fluid = _row(
        spec, machine, "gigabit", clients=24, duration=1.5, warmup=0.75,
        fluid=FluidConfig(classes=classes),
    ).row()
    # No class carries link overrides, so the pin is exact regardless of
    # how the population is split across classes.
    assert fluid == discrete


# -- aggregate regime: tolerance-pinned agreement on saturated testbeds ------

#: Relative tolerances for the aggregate-vs-discrete comparison.  The
#: throughput-class metrics agree to within ~8% on saturated testbeds
#: (measured: 5.9-7.3% for replies/s, <11% for MB/s and cpu%); response
#: time is structurally inflated in aggregate mode — materialized slots
#: run sessions back-to-back where discrete clients idle between
#: arrivals — so it is bounded, not matched (DESIGN.md §13).
THROUGHPUT_RTOL = 0.12
BYTES_RTOL = 0.15
CPU_RTOL = 0.15
RESP_FACTOR = 10.0

SATURATED = [
    ("overload-nio", ServerSpec.nio(1), OVERLOAD_UP),
    ("overload-httpd", ServerSpec.httpd(512), OVERLOAD_UP),
    ("100m-nio", ServerSpec.nio(1), UP_FAST_ETHERNET),
    ("100m-httpd", ServerSpec.httpd(512), UP_FAST_ETHERNET),
]


@pytest.mark.parametrize(
    "label,spec,scenario", SATURATED, ids=[s[0] for s in SATURATED]
)
def test_aggregate_matches_discrete_within_tolerance(label, spec, scenario):
    kwargs = dict(clients=600, duration=4.0, warmup=6.0)
    discrete = _row(
        spec, scenario.machine, scenario.network, **kwargs
    ).row()
    fluid = _row(
        spec, scenario.machine, scenario.network,
        fluid=FluidConfig(budget=512), **kwargs
    ).row()
    assert discrete["replies/s"] > 0

    def rel(key):
        return abs(fluid[key] - discrete[key]) / discrete[key]

    assert rel("replies/s") <= THROUGHPUT_RTOL, (fluid, discrete)
    assert rel("MB/s") <= BYTES_RTOL, (fluid, discrete)
    assert rel("cpu%") <= CPU_RTOL, (fluid, discrete)
    assert (
        discrete["resp_ms"] / RESP_FACTOR
        <= fluid["resp_ms"]
        <= discrete["resp_ms"] * RESP_FACTOR
    ), (fluid, discrete)
