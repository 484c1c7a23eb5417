"""The benchmark's three sweep points, and what each one is for.

Every workload is one sweep point of the reproduction, built through
the public ``repro`` API and run by calling ``Experiment.run`` /
``ClusterExperiment.run`` directly -- never through the ``RunStore``
backed runner, so a warm ``.repro-store`` can never serve a point.

The simulated clients are closed-loop httperf/SURGE sessions: each one
waits for its reply, thinks, and gives up after the 10 s client
timeout.  ``cluster-flash-obs`` adds an open-loop flash crowd on top.
All load is generated inside the one simulator process.

Input size is fixed per workload (client count and measurement window);
``--seed`` only re-draws the inputs.  The windows (a few simulated
seconds) are shorter than the figure suite's quick profile (warmup 16 s,
duration 8 s) so that one run of the benchmark repeats each point
several times within its time budget; the client counts and server
configurations are the paper's.  The price: the 10 s client timeout and
httpd's 15 s idle reaping never fire inside a point, so these points
show SYN drops and queueing but no timeouts or idle resets.
``smoke=True`` shrinks every point to a handful of clients for the
benchmark's own tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Tuple

__all__ = ["Workload", "WORKLOADS", "build"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a named, fixed-size sweep point."""

    name: str
    why: str
    stresses: Tuple[str, ...]
    bypasses: Tuple[str, ...]
    #: ``(seed, smoke) -> experiment`` with a ``run()`` method.
    factory: Callable
    #: A cluster point (aggregate histogram must merge from the tiers).
    cluster: bool = False
    #: The row must show no connection resets (the paper's finding 3).
    zero_resets: bool = False


def _up_nio_sat(seed: int, smoke: bool):
    from repro import Experiment, ServerSpec, WorkloadSpec
    from repro.core.scenarios import UP_GIGABIT

    clients, warmup, duration = (40, 2.0, 2.0) if smoke else (4800, 2.0, 3.0)
    return Experiment(
        ServerSpec.nio(1),
        WorkloadSpec(clients=clients, warmup=warmup, duration=duration),
        machine=UP_GIGABIT.machine,
        network=UP_GIGABIT.network,
        seed=seed,
    )


def _smp_httpd_sat(seed: int, smoke: bool):
    from repro import Experiment, ServerSpec, WorkloadSpec
    from repro.core.scenarios import SMP_GIGABIT

    pool, clients, warmup, duration = (
        (128, 192, 2.0, 3.0) if smoke else (4096, 6000, 2.0, 1.5)
    )
    return Experiment(
        ServerSpec.httpd(pool),
        WorkloadSpec(clients=clients, warmup=warmup, duration=duration),
        machine=SMP_GIGABIT.machine,
        network=SMP_GIGABIT.network,
        seed=seed,
    )


def _cluster_flash_obs(seed: int, smoke: bool):
    from repro.cluster import (
        CacheSpec,
        FlashCrowdSpec,
        restart_point,
        straggler_cluster,
    )
    from repro.obs import default_slos

    clients, surge, warmup, duration = (
        (48, 96, 2.0, 3.0) if smoke else (2400, 4800, 3.0, 2.0)
    )
    cluster = dataclasses.replace(
        straggler_cluster(
            policy="least_connections",
            cache=CacheSpec(capacity_bytes=32 * 1024 * 1024),
        ),
        observe=True,
        slos=default_slos(),
    )
    point = restart_point(
        cluster, clients=clients, duration=duration, warmup=warmup, seed=seed
    )
    point = dataclasses.replace(
        point,
        flash=FlashCrowdSpec(
            at=warmup + duration * 0.2, surge_clients=surge, decay=2.0
        ),
    )
    return point.experiment()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "up-nio-sat",
            "UP-1G nio-1 at 4800 clients, CPU saturated (paper Fig 1 best "
            "event-driven config): stresses sim, osmodel CPU station, net; "
            "bypasses obs, cluster",
            stresses=("sim", "osmodel", "net", "workload", "servers"),
            bypasses=("obs", "cluster", "overload"),
            factory=_up_nio_sat,
            zero_resets=True,
        ),
        Workload(
            "smp-httpd-sat",
            "SMP-1G httpd-4096 at 6000 clients (Fig 7): 4 CPUs share the PS "
            "station, thread processes, idle-timer churn, SYN drops; "
            "stresses sim, osmodel, net; bypasses obs, cluster",
            stresses=("sim", "osmodel", "net", "servers"),
            bypasses=("obs", "cluster", "overload"),
            factory=_smp_httpd_sat,
        ),
        Workload(
            "cluster-flash-obs",
            "observed lc straggler cluster, 32 MB cache, 2400 clients + "
            "4800 flash crowd + r0 rolling restart: stresses obs, cluster; "
            "bypasses osmodel, servers",
            stresses=("obs", "cluster", "workload", "net", "sim"),
            bypasses=("osmodel", "servers"),
            factory=_cluster_flash_obs,
            cluster=True,
        ),
    )
}


def build(name: str, seed: int, smoke: bool = False):
    """The experiment object for workload ``name`` at ``seed``."""
    return WORKLOADS[name].factory(seed, smoke)
