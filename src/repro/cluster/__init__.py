"""repro.cluster: a replica tier in front of the paper's single SUT.

N replica servers (any of the four architectures, heterogeneous machine
mixes allowed) behind a pluggable load balancer, with an optional LRU
front cache and per-class WAN client links — plus the three hostile-
traffic scenarios (flash crowd, slowloris, rolling restart).  With
``ClusterSpec(observe=True)`` the run's one
:class:`~repro.obs.Observer` adds causal request tracing, windowed time
series, and SLO burn-rate monitors over the whole front end.  See DESIGN.md §11 for the layering and
determinism guarantees and §12 for the observability model.
"""

from .balancer import (
    DOWN,
    DRAINING,
    UP,
    WARMING,
    ConsistentHashBalancer,
    LeastConnectionsBalancer,
    LoadBalancer,
    RoundRobinBalancer,
    make_balancer,
)
from .cache import LruCache, hit_rate_sweep
from .clients import (
    ClusterClient,
    ClusterLoadGenerator,
    FanoutMetrics,
    SlowlorisClient,
    TierMetrics,
    apportion,
    flash_offsets,
)
from .experiment import ClusterExperiment, ReplicaRuntime, sweep_cluster
from .scenarios import (
    flash_point,
    replica,
    restart_point,
    slowloris_point,
    steady_point,
    straggler_cluster,
    uniform_cluster,
)
from .spec import (
    BalancerSpec,
    CacheSpec,
    ClientClassSpec,
    ClusterPointSpec,
    ClusterSpec,
    FlashCrowdSpec,
    ReplicaSpec,
    RollingRestartSpec,
)
from .telemetry import state_bands

__all__ = [
    "UP",
    "DRAINING",
    "DOWN",
    "WARMING",
    "LoadBalancer",
    "RoundRobinBalancer",
    "LeastConnectionsBalancer",
    "ConsistentHashBalancer",
    "make_balancer",
    "LruCache",
    "hit_rate_sweep",
    "TierMetrics",
    "FanoutMetrics",
    "ClusterClient",
    "SlowlorisClient",
    "ClusterLoadGenerator",
    "apportion",
    "flash_offsets",
    "ClusterExperiment",
    "ReplicaRuntime",
    "sweep_cluster",
    "ReplicaSpec",
    "BalancerSpec",
    "CacheSpec",
    "ClientClassSpec",
    "ClusterSpec",
    "FlashCrowdSpec",
    "RollingRestartSpec",
    "ClusterPointSpec",
    "state_bands",
    "replica",
    "uniform_cluster",
    "straggler_cluster",
    "steady_point",
    "flash_point",
    "slowloris_point",
    "restart_point",
]
