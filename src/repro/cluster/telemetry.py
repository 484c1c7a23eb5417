"""Cluster telemetry: the run's observer, mounted on a whole front end.

``ClusterSpec(observe=True)`` mounts one :class:`~repro.obs.Observer`
with the cluster sinks (see :meth:`~repro.obs.Observer.for_cluster`):
every replica listener, the balancer, the clients and the
:class:`~repro.cluster.clients.FanoutMetrics` feed it directly, so a
routed connection's span becomes per-request causal traces with exact
per-tier attribution, replies/errors/picks/sheds land in the aggregate
and per-tier time series, and the SLO monitors burn in sim time.  The
replica a listener event belongs to travels as the listener's name.

Everything is pure bookkeeping driven by events the cluster already
generates: an observed run leaves RunMetrics byte-identical to an
unobserved one (pinned by
``tests/test_cluster_observe_equivalence.py``).  This module reads the
balancer's state history back as figure-ready replica-state bands.
"""

from __future__ import annotations

from typing import List, Tuple

from ..obs import Observer

__all__ = ["state_bands"]


def state_bands(
    obs: Observer, rid: str, t0: float, t1: float
) -> List[Tuple[str, float, float]]:
    """(state, start, end) bands for replica ``rid`` over ``[t0, t1]``.

    Replicas start UP; the observer's ``state_changes`` is chronological
    because it is appended at event time.
    """
    bands: List[Tuple[str, float, float]] = []
    state = "up"
    start = t0
    for t, r, s in obs.state_changes:
        if r != rid:
            continue
        if t >= t1:
            break
        if t <= t0:
            state = s
            continue
        bands.append((state, start, t))
        state = s
        start = t
    bands.append((state, start, t1))
    return bands
