"""Attribute a traced point's host time to the ``repro`` layers.

The traced run profiles one sweep point with :mod:`cProfile` and groups
every function by the ``repro/<layer>/`` package it is defined in.  Time
spent in code that belongs to no layer -- builtins, the standard library,
numpy -- is charged to the layer that called it, split over its call
sites by the time each site spent there, and followed up the call graph
until a ``repro`` function is reached.  Everything else (``repro.core``,
``repro.analysis``, this benchmark) is ``other``.

Call counts of a few hot functions are exact, deterministic per seed,
and serve as the per-layer work counters (``COUNTED``).

``PREDICTS`` records, for every per-layer metric, the end-to-end metric
and workloads it should move, in the order of expected effect.  A later
performance change cites these names when it states its prediction.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

__all__ = [
    "LAYERS",
    "COUNTED",
    "PREDICTS",
    "attribute",
    "counted_calls",
]

LAYERS: Tuple[str, ...] = (
    "sim", "osmodel", "net", "servers", "workload",
    "http", "metrics", "obs", "cluster", "overload",
)

#: Per-layer counters read from the traced run's exact call counts:
#: metric name -> ((module, qualified name), ...) whose calls are summed.
COUNTED: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sim.process_resumes": (("repro.sim.core", "Process._resume"),),
    "sim.processes_created": (("repro.sim.core", "Process.__init__"),),
    "osmodel.cpu_bursts": (("repro.osmodel.cpu", "CPU._submit"),),
    "osmodel.timer_arms": (("repro.osmodel.cpu", "CPU._arm_timer"),),
    "net.transmissions": (
        ("repro.net.link", "Link.transmit"),
        ("repro.net.link", "Link.transmit_call"),
    ),
    "net.connections": (("repro.net.tcp", "Connection.__init__"),),
}

_ALL = ("up-nio-sat", "smp-httpd-sat", "cluster-flash-obs")
_NIO_HTTPD = ("up-nio-sat", "smp-httpd-sat")
_SIM_ORDER = ("smp-httpd-sat", "up-nio-sat", "cluster-flash-obs")

#: per-layer metric -> (end-to-end metrics it should move, workloads,
#: most affected first).  ``<layer>.self_s`` moves ``point_s`` by about
#: its share of the untimed run.
PREDICTS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    **{
        f"{layer}.{kind}": (("point_s",), _ALL)
        for layer in LAYERS
        for kind in ("self_s", "share", "calls")
    },
    "sim.events": (("point_s",), _SIM_ORDER),
    "sim.run_s": (("point_s",), _SIM_ORDER),
    "sim.us_per_event": (("point_s",), _SIM_ORDER),
    "sim.process_resumes": (("point_s",), _SIM_ORDER),
    "sim.processes_created": (
        ("point_s", "setup_s", "peak_rss_mb"), _SIM_ORDER
    ),
    "sim.wheel_scheduled": (("point_s",), _SIM_ORDER),
    "sim.wheel_cancelled": (("point_s",), _SIM_ORDER),
    "sim.tombstones_compacted": (("point_s",), _SIM_ORDER),
    "osmodel.cpu_bursts": (("point_s",), _NIO_HTTPD),
    "osmodel.timer_arms": (("point_s",), _NIO_HTTPD),
    "osmodel.arms_per_burst": (("point_s",), _NIO_HTTPD),
    "osmodel.cpu_util": (("point_s",), _NIO_HTTPD),
    "osmodel.threads_peak": (("point_s",), _NIO_HTTPD),
    "net.transmissions": (("point_s",), ("smp-httpd-sat", "up-nio-sat")),
    "net.connections": (("point_s",), ("smp-httpd-sat", "up-nio-sat")),
    "net.syns_dropped": (("point_s",), ("smp-httpd-sat", "up-nio-sat")),
    "net.accept_queue_peak": (("point_s",), ("smp-httpd-sat", "up-nio-sat")),
    "net.downlink_util": (("point_s",), ("smp-httpd-sat", "up-nio-sat")),
    "servers.requests_served": (("point_s",), _NIO_HTTPD),
    "servers.connections_handled": (("point_s",), _NIO_HTTPD),
    "servers.requests_shed": (("point_s",), _NIO_HTTPD),
    "workload.sessions_completed": (("point_s",), _ALL),
    "workload.connections_established": (("point_s",), _ALL),
    "workload.client_timeouts": (("point_s",), _ALL),
    "workload.resets": (("point_s",), _ALL),
    "metrics.samples_dropped": (("point_s",), ("cluster-flash-obs",)),
    "obs.trace_requests": (("point_s",), ("cluster-flash-obs",)),
    "obs.trace_dropped": (("point_s",), ("cluster-flash-obs",)),
    "cluster.cache_hit_rate": (("point_s",), ("cluster-flash-obs",)),
    "cluster.picks": (("point_s",), ("cluster-flash-obs",)),
    "trace.overhead": (("point_s",), _ALL),
}


def _layer_of(filename: str, root: str) -> str:
    """``sim``/``net``/... for a file under ``repro/<layer>/``, else ``""``.

    ``other`` for any other ``repro`` or benchmark file; ``""`` marks
    code that is charged to its caller (builtins, stdlib, numpy).
    """
    if filename == "~":  # builtins
        return ""
    filename = os.path.abspath(filename)
    if filename.startswith(root):
        head = filename[len(root):].split(os.sep, 1)
        if len(head) == 2 and head[0] in LAYERS:
            return head[0]
        return "other"
    if filename.startswith(os.path.dirname(os.path.abspath(__file__))):
        return "other"
    return ""


def attribute(stats: pstats.Stats, repro_dir: str) -> Dict[str, dict]:
    """Per-layer ``self_s``, ``share`` and ``calls`` of a profiled run.

    ``repro_dir`` is the directory of the imported ``repro`` package.
    Shares are of the total profiled time, ``other`` included.
    """
    root = os.path.join(os.path.abspath(repro_dir), "")
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    owner = {func: _layer_of(func[0], root) for func in table}
    weights: Dict[tuple, Dict[str, float]] = {}

    def split(func, visiting: frozenset) -> Dict[str, float]:
        """Fractions of ``func``'s time owed to each layer."""
        if owner.get(func):
            return {owner[func]: 1.0}
        if func in weights:
            return weights[func]
        callers = table[func][4] if func in table else {}
        edges = [
            (caller, edge[2]) for caller, edge in callers.items()
            if caller not in visiting
        ]
        total = sum(w for _, w in edges)
        if total <= 0.0:
            edges = [
                (caller, float(edge[0])) for caller, edge in callers.items()
                if caller not in visiting
            ]
            total = sum(w for _, w in edges)
        out: Dict[str, float] = {}
        if total <= 0.0:
            out["other"] = 1.0
        else:
            inner = visiting | {func}
            for caller, w in edges:
                for layer, frac in split(caller, inner).items():
                    out[layer] = out.get(layer, 0.0) + frac * w / total
        if not visiting:
            weights[func] = out
        return out

    self_s = {layer: 0.0 for layer in LAYERS + ("other",)}
    calls = {layer: 0 for layer in LAYERS + ("other",)}
    for func, (_cc, nc, tt, _ct, _callers) in table.items():
        for layer, frac in split(func, frozenset()).items():
            self_s[layer] += tt * frac
        if owner[func]:
            calls[owner[func]] += nc
    total = sum(self_s.values())
    return {
        layer: {
            "self_s": self_s[layer],
            "share": self_s[layer] / total if total > 0 else 0.0,
            "calls": calls[layer],
        }
        for layer in self_s
    }


def counted_calls(stats: pstats.Stats) -> Dict[str, int]:
    """Exact call counts of the ``COUNTED`` functions in a profile."""
    import importlib

    table = stats.stats
    out: Dict[str, int] = {}
    for name, targets in COUNTED.items():
        total = 0
        for module, qualname in targets:
            obj = importlib.import_module(module)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            code = obj.__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            if key in table:
                total += table[key][1]
        out[name] = total
    return out

