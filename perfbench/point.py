"""Run one benchmark sweep point in this fresh process; print its record.

Usage (from the repository root)::

    python3 perfbench/point.py --workload up-nio-sat --seed 42 [--trace]

Prints one JSON line.  Times are taken on the system-wide monotonic
clock, so ``--spawned`` (the parent's clock reading just before it
started this process) makes ``point_s`` and ``setup_s`` cover
interpreter start-up and imports too:

* ``setup_s`` -- spawn to the kernel's first dispatch: imports, the
  SURGE file population and tables, and testbed construction.  Taken by
  wrapping the public ``Simulator.run``.
* ``point_s`` -- spawn to the checked row.
* ``peak_rss_mb`` -- this process's ``ru_maxrss``.

With ``--trace`` the point runs under :mod:`cProfile` and the record adds
the per-layer attribution of :mod:`layers`.  The exit code is 0 when the
point ran, whatever its checks say: the record carries the failures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"


class _Probe:
    """What the wrappers installed by :func:`_install` saw."""

    def __init__(self) -> None:
        self.first_dispatch = None
        self.run_s = 0.0
        self.sims = []
        self.hubs = []
        self.tiers = []


def _install(probe: _Probe) -> None:
    """Wrap the kernel's ``run`` and record metric hubs and tiers."""
    from repro.cluster.clients import TierMetrics
    from repro.metrics.collectors import MetricsHub
    from repro.sim.core import Simulator
    from repro.sim.turbo import simulator_class

    for cls in {Simulator, simulator_class(None)}:
        original = cls.run

        def run(self, until=None, _original=original):
            start = time.monotonic()
            if probe.first_dispatch is None:
                probe.first_dispatch = start
            try:
                return _original(self, until)
            finally:
                probe.run_s += time.monotonic() - start
                probe.sims.append(self)

        cls.run = run

    for cls, sink in ((MetricsHub, probe.hubs), (TierMetrics, probe.tiers)):
        init = cls.__init__

        def __init__(self, *args, _init=init, _sink=sink, **kwargs):
            _init(self, *args, **kwargs)
            _sink.append(self)

        cls.__init__ = __init__


def _row(metrics) -> dict:
    """The model outputs, at full precision."""
    return {
        "clients": metrics.clients,
        "replies": metrics.replies,
        "replies/s": metrics.throughput_rps,
        "resp_ms": metrics.response_time_mean * 1e3,
        "p50_ms": metrics.response_time_p50 * 1e3,
        "p99_ms": metrics.response_time_p99 * 1e3,
        "conn_ms": metrics.connection_time_mean * 1e3,
        "timeout/s": metrics.client_timeout_rate,
        "reset/s": metrics.connection_reset_rate,
        "MB/s": metrics.bandwidth_mbytes_per_s,
        "cpu%": metrics.cpu_utilization * 100.0,
    }


def _downlink_util(workload, experiment, stats: dict) -> float:
    if not workload.cluster:
        return stats["downlink_utilization"]
    from repro.net.topology import WIRE_EFFICIENCY

    horizon = experiment.workload.warmup + experiment.workload.duration
    sent = sum(stats[f"wan.{c.name}.bytes_down"] for c in experiment.cluster.classes)
    capacity = sum(
        c.bandwidth_bps / 8.0 * WIRE_EFFICIENCY for c in experiment.cluster.classes
    )
    return sent / (capacity * horizon)


def _counters(workload, experiment, metrics, probe: _Probe) -> dict:
    """Deterministic per-layer counters read from the finished run."""
    stats = metrics.server_stats
    if workload.cluster:
        servers = [m.server_stats for m in experiment.replica_metrics.values()]
    else:
        servers = [stats]
    sim = probe.sims[0]
    timers = sim.timer_stats()
    return {
        # Every kernel entry takes one sequence number when scheduled.
        "sim.events": sim._seq,
        "sim.wheel_scheduled": timers["wheel_scheduled"],
        "sim.wheel_cancelled": timers["wheel_cancelled"],
        "sim.tombstones_compacted": timers["tombstones_compacted"],
        "osmodel.cpu_util": metrics.cpu_utilization,
        "osmodel.threads_peak": max(s["threads_peak"] for s in servers),
        "net.syns_dropped": sum(s["syns_dropped"] for s in servers),
        "net.accept_queue_peak": max(s["accept_queue_peak"] for s in servers),
        "net.downlink_util": _downlink_util(workload, experiment, stats),
        "servers.requests_served": sum(s["requests_served"] for s in servers),
        "servers.connections_handled": sum(
            s["connections_handled"] for s in servers
        ),
        "servers.requests_shed": sum(s["requests_shed"] for s in servers),
        "workload.sessions_completed": metrics.sessions_completed,
        "workload.connections_established": metrics.connections_established,
        "workload.client_timeouts": metrics.errors.get("client_timeout", 0),
        "workload.resets": metrics.errors.get("connection_reset", 0),
        "metrics.samples_dropped": sum(h.samples_dropped for h in probe.hubs),
        "obs.trace_requests": stats.get("trace.requests", 0),
        "obs.trace_dropped": stats.get("trace.dropped", 0),
        "cluster.cache_hit_rate": stats.get("cache.hit_rate", 0.0),
        "cluster.picks": stats.get("lb.picks", 0),
    }


def _histograms(experiment, probe: _Probe) -> dict:
    """The aggregate response-time histogram and the merge of the tiers.

    Bucket counts, min and max merge exactly; the running float total is
    summed in another order, so it is kept apart for a tolerance check.
    """
    from checks import row_digest
    from repro.obs.hist import Registry

    merged = Registry()
    for tier in probe.tiers:
        merged.merge(tier.registry)

    def fold(registry) -> dict:
        hist = registry.histogram("response_time_s")
        exact = [
            hist.count, hist.underflow, sorted(hist.buckets.items()),
            hist.min, hist.max,
        ]
        return {"exact": row_digest({"h": exact}), "total": hist.total}

    return {
        "aggregate": fold(experiment.aggregate_registry),
        "merged_tiers": fold(merged),
    }


def _regime(stats: dict) -> str:
    if "fluid.aggregate" not in stats:
        return "discrete"
    return "fluid-aggregate" if stats["fluid.aggregate"] else "fluid-pinned"


def run_point(name: str, seed: int, spawned: float, trace: bool, smoke: bool) -> dict:
    """Build, run and check one point; return its record."""
    import repro
    from checks import bandwidth_ratio, check_record, row_digest
    from workloads import WORKLOADS, build

    if not Path(repro.__file__).resolve().is_relative_to(_SRC):
        raise SystemExit(f"repro imported from {repro.__file__}, not {_SRC}")
    from repro.http.files import FilePopulation
    from repro.http.protocol import HttpSemantics

    workload = WORKLOADS[name]
    probe = _Probe()
    _install(probe)
    experiment = build(name, seed, smoke=smoke)
    if trace:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        metrics = experiment.run()
        profiler.disable()
    else:
        metrics = experiment.run()
    if probe.first_dispatch is None or len(probe.sims) != 1:
        raise SystemExit("the kernel was not run exactly once")

    row = _row(metrics)
    population = FilePopulation.shared(seed, n_files=experiment.workload.n_files)
    record = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "row": row,
        "digest": row_digest(row),
        "mean_transfer_bytes": population.mean_transfer_size()
        + HttpSemantics().response_head_bytes,
    }
    if workload.cluster:
        record["histograms"] = _histograms(experiment, probe)
    record["failures"] = check_record(workload, record)
    record["bandwidth_law_ratio"] = bandwidth_ratio(record)
    done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    sim = probe.sims[0]
    record.update(
        point_s=done - spawned,
        setup_s=probe.first_dispatch - spawned,
        sim_run_s=probe.run_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        counters=_counters(workload, experiment, metrics, probe),
        regime={
            "backend": sim.backend,
            "wheel": sim.wheel_enabled,
            "fluid": _regime(metrics.server_stats),
        },
    )
    if trace:
        import pstats

        import layers

        stats = pstats.Stats(profiler)
        record["layers"] = layers.attribute(stats, os.path.dirname(repro.__file__))
        record["counters"].update(layers.counted_calls(stats))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    spawned = time.monotonic() if args.spawned is None else args.spawned
    record = run_point(args.workload, args.seed, spawned, args.trace, args.smoke)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(_SRC))
    sys.exit(main())
