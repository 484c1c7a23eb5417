"""Cluster-aware WAN clients: routed sessions, cache hits, adversaries.

:class:`ClusterClient` extends the httperf-semantics
:class:`~repro.workload.httperf.EmulatedClient` with the front-end hops:
every new connection first asks the :class:`~repro.cluster.balancer.
LoadBalancer` for a replica (consuming a routing key from a dedicated
``route`` RNG stream, so routing never perturbs workload sampling), and
when a cache tier is mounted, requests whose file is resident are served
at the cache box without touching any replica.

:class:`FanoutMetrics` keeps the per-replica/cluster-aggregate metrics
invariant by construction: every recorded reply lands in the aggregate
hub *and* the hub of the tier (replica or cache) that served it, and the
aggregate ``response_time_s`` histogram receives exactly the samples the
per-tier histograms receive — so the aggregate equals the exact merge of
the tiers (pinned in ``tests/test_cluster_experiment.py``).

:class:`SlowlorisClient` is the hostile class: connect, then hold the
connection silently (never sending a request) until the server reaps it,
and reconnect.  Against the paper's httpd-style servers this pins worker
threads; the PR 3 admission policies are the defence being measured.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..metrics.collectors import CLIENT_TIMEOUT, MetricsHub
from ..net.link import DuplexLink
from ..net.tcp import ConnectTimeout, Connection
from ..obs.hist import Registry
from ..sim.core import Simulator
from ..sim.rng import RandomStreams
from ..workload.httperf import EmulatedClient, HttperfConfig
from ..workload.surge import SessionPlan, SurgeWorkload
from .balancer import LoadBalancer
from .cache import LruCache
from .spec import ClientClassSpec, ClusterSpec, FlashCrowdSpec

__all__ = [
    "TierMetrics",
    "FanoutMetrics",
    "ClusterClient",
    "SlowlorisClient",
    "ClusterLoadGenerator",
    "apportion",
    "flash_offsets",
]

#: First TCP segment of a response (for the cache tier's TTFB model).
_FIRST_SEGMENT_BYTES = 1460


class TierMetrics:
    """One serving tier's metrics: a hub plus a mergeable registry."""

    __slots__ = ("name", "hub", "registry")

    def __init__(self, name: str, hub: MetricsHub, registry: Registry) -> None:
        self.name = name
        self.hub = hub
        self.registry = registry


class FanoutMetrics:
    """MetricsHub facade that mirrors records into the serving tier.

    Quacks like a :class:`~repro.metrics.collectors.MetricsHub` for the
    recording methods the client calls.  ``tier`` is set by the client
    around each serve (the replica that got the connection, or the cache
    tier); replies/errors/connections land in the aggregate *and* the
    tier, sessions are an aggregate-only concept.
    """

    __slots__ = ("aggregate", "registry", "tier", "obs")

    def __init__(self, aggregate: MetricsHub, registry: Registry) -> None:
        self.aggregate = aggregate
        self.registry = registry
        self.tier: Optional[TierMetrics] = None
        #: The run's :class:`~repro.obs.Observer` (or ``None``):
        #: replies/errors/connections also feed its time series and SLO
        #: monitors (pure bookkeeping — pay-for-use).
        self.obs = None

    def record_reply(
        self, response_time: float, ttfb: float, nbytes: int
    ) -> None:
        """One successful reply: aggregate + serving tier + histograms."""
        self.aggregate.record_reply(response_time, ttfb, nbytes)
        if self.tier is not None:
            self.tier.hub.record_reply(response_time, ttfb, nbytes)
        if self.aggregate.in_window():
            # Same sample into the aggregate and the tier histogram, so
            # aggregate == exact merge of tiers by construction.
            self.registry.histogram("response_time_s").observe(response_time)
            if self.tier is not None:
                self.tier.registry.histogram("response_time_s").observe(
                    response_time
                )
        if self.obs is not None:
            self.obs.reply(
                self.aggregate.sim.now,
                response_time,
                self.tier.name if self.tier is not None else "?",
            )

    def record_error(self, kind: str) -> None:
        """One failed interaction, mirrored into the serving tier."""
        self.aggregate.record_error(kind)
        if self.tier is not None:
            self.tier.hub.record_error(kind)
        if self.obs is not None:
            self.obs.error(
                self.aggregate.sim.now,
                kind,
                self.tier.name if self.tier is not None else None,
            )

    def record_connection(self, connection_time: float) -> None:
        """One established connection, mirrored into the serving tier."""
        self.aggregate.record_connection(connection_time)
        if self.tier is not None:
            self.tier.hub.record_connection(connection_time)
        if self.obs is not None:
            self.obs.connection(
                self.aggregate.sim.now,
                self.tier.name if self.tier is not None else None,
            )

    def record_session(self) -> None:
        """One completed session (an aggregate-only concept)."""
        self.aggregate.record_session()

    def in_window(self, t: Optional[float] = None) -> bool:
        """Whether ``t`` (default now) is inside the measurement window."""
        return self.aggregate.in_window(t)


class ClusterClient(EmulatedClient):
    """An emulated WAN client whose connections go through the balancer.

    It runs the base session engine and changes only where a connection
    comes from and what ending one releases: :meth:`_connect` asks the
    balancer for a replica per connection and keeps the lease on
    ``self.replica``; :meth:`_finish` returns the balancer slot and the
    replica's ``live_conns`` entry, through which the rolling-restart
    driver resets in-flight connections.  The session and collection
    overrides add the cache tier.
    """

    def __init__(
        self,
        sim: Simulator,
        index: int,
        duplex: DuplexLink,
        workload: SurgeWorkload,
        metrics: FanoutMetrics,
        rng: np.random.Generator,
        balancer: LoadBalancer,
        route_rng: np.random.Generator,
        config: Optional[HttperfConfig] = None,
        cache: Optional[LruCache] = None,
        cache_tier: Optional[TierMetrics] = None,
        sessions_limit: Optional[int] = None,
        obs=None,
        wan_class: str = "",
    ) -> None:
        super().__init__(
            sim, index, None, duplex, workload, metrics, rng, config,
            sessions_limit,
        )
        self.balancer = balancer
        self.route_rng = route_rng
        self.cache = cache
        self.cache_tier = cache_tier
        #: The run's :class:`~repro.obs.Observer` (or ``None``): it
        #: learns each connection's route, cache lookups and cache hits.
        self.obs = obs
        self.wan_class = wan_class
        #: The replica holding the current connection's lease.
        self.replica = None

    # ------------------------------------------------------------------
    def _connect(self) -> object:
        """Generator: pick a replica and connect; the connection or None."""
        self.metrics.tier = None
        key = self.balancer.make_key(self.route_rng)
        replica = self.replica = self.balancer.pick(key)
        if replica is None:
            # Whole cluster unroutable: the front end cannot even open a
            # backend connection — the client sees a connect timeout.
            yield self.sim.timeout(self.config.client_timeout)
            self.metrics.record_error(CLIENT_TIMEOUT)
            return None
        self.metrics.tier = replica.metrics
        conn = Connection(self.sim, self.duplex, replica.listener)
        if self.obs is not None:
            self.obs.routed(conn.span, replica.rid, self.wan_class)
        try:
            conn_time = yield from conn.connect(self.config.client_timeout)
        except ConnectTimeout:
            self.metrics.record_error(CLIENT_TIMEOUT)
            self._finish(conn, "connect_timeout")
            self.metrics.tier = None
            return None
        self.metrics.record_connection(conn_time)
        replica.live_conns[conn] = None
        return conn

    def _finish(self, conn: Connection, status: str) -> None:
        """End the span, then return the balancer slot and replica lease."""
        conn.finish_span(status)
        self.balancer.release(self.replica)
        self.replica.live_conns.pop(conn, None)

    def _serve_from_cache(self, request) -> object:
        """Generator: answer ``request`` at the cache box (it is a hit)."""
        t0 = self.sim.now
        yield self.duplex.up.transmit(request.wire_bytes)
        t_arrive = self.sim.now
        if self.cache.hit_service_s > 0.0:
            yield self.sim.timeout(self.cache.hit_service_s)
        t_service = self.sim.now
        total = request.total_response_wire_bytes
        first = min(_FIRST_SEGMENT_BYTES, total)
        yield self.duplex.down.transmit(first)
        ttfb = self.sim.now - t0
        if total > first:
            yield self.duplex.down.transmit(total - first)
        saved = self.metrics.tier
        self.metrics.tier = self.cache_tier
        if self.obs is not None:
            # Same event as record_reply: the trace's timestamps are the
            # identical floats the response-time measurement uses.
            self.obs.tracer.record_cache_hit(
                self.wan_class, t0, t_arrive, t_service, self.sim.now
            )
        self.metrics.record_reply(self.sim.now - t0, ttfb, total)
        self.metrics.tier = saved

    def _run_session(self, plan: SessionPlan) -> object:
        """Generator: one session through cache + balancer.

        Cache hits are answered at the cache box; a group's misses go to
        a replica over a connection opened for the first group that has
        any.
        """
        conn = None
        ok = True
        for group_index, group in enumerate(plan.groups):
            misses = []
            for request in group:
                cacheable = (
                    self.cache is not None and request.file_id is not None
                )
                hit = cacheable and self.cache.lookup(request.file_id)
                if cacheable and self.obs is not None:
                    self.obs.cache_lookup(self.sim.now, hit)
                if hit:
                    yield from self._serve_from_cache(request)
                else:
                    misses.append(request)
            if misses:
                if conn is None:
                    conn = yield from self._connect()
                    if conn is None:
                        return False
                conn, pendings = yield from self._send_group(conn, misses)
                if pendings is None:
                    ok = False
                    break
                failed = yield from self._collect_replies(conn, pendings)
                if failed:
                    conn = None
                    ok = False
                    break
            if group_index < len(plan.groups) - 1:
                yield self.sim.timeout(plan.think_times[group_index])
        if conn is not None:
            conn.client_close()
            self._finish(conn, "closed")
        return ok

    def _collect_replies(self, conn: Connection, pendings: List) -> object:
        """Generator: base collection, plus cache fill on success."""
        failed = yield from super()._collect_replies(conn, pendings)
        if not failed and self.cache is not None:
            for pending in pendings:
                request = pending.request
                if request.file_id is not None:
                    self.cache.insert(
                        request.file_id, request.total_response_wire_bytes
                    )
        return failed


class SlowlorisClient:
    """Adversary: connect, hold silently, reconnect when reaped.

    Never sends a byte after the handshake, so thread-per-connection
    servers burn a worker on it until the idle reaper fires; event-driven
    servers only burn a connection slot.  Counters (not MetricsHub: the
    attacker's 'latency' is meaningless) feed the aggregate stats.
    """

    def __init__(
        self,
        sim: Simulator,
        index: int,
        balancer: LoadBalancer,
        duplex: DuplexLink,
        route_rng: np.random.Generator,
        config: Optional[HttperfConfig] = None,
        hold_s: float = 120.0,
        poll_s: float = 1.0,
        reconnect_delay: float = 0.5,
    ) -> None:
        self.sim = sim
        self.index = index
        self.balancer = balancer
        self.duplex = duplex
        self.route_rng = route_rng
        self.config = config or HttperfConfig()
        self.hold_s = hold_s
        self.poll_s = poll_s
        self.reconnect_delay = reconnect_delay
        self.connects = 0
        self.connect_failures = 0
        self.reaped = 0

    def run(self, start_delay: float = 0.0):
        """Generator: the eternal connect-and-hold loop."""
        if start_delay > 0.0:
            yield self.sim.timeout(start_delay)
        while True:
            key = self.balancer.make_key(self.route_rng)
            replica = self.balancer.pick(key)
            if replica is None:
                yield self.sim.timeout(self.reconnect_delay)
                continue
            conn = Connection(self.sim, self.duplex, replica.listener)
            if conn.span is not None:
                conn.span.mark("routed")
            try:
                yield from conn.connect(self.config.client_timeout)
            except ConnectTimeout:
                self.connect_failures += 1
                conn.finish_span("connect_timeout")
                self.balancer.release(replica)
                yield self.sim.timeout(self.reconnect_delay)
                continue
            self.connects += 1
            replica.live_conns[conn] = None
            held = 0.0
            while held < self.hold_s:
                if conn.server_closed or conn.dead:
                    self.reaped += 1
                    break
                yield self.sim.timeout(self.poll_s)
                held += self.poll_s
            conn.client_close()
            conn.finish_span("slowloris")
            self.balancer.release(replica)
            replica.live_conns.pop(conn, None)
            yield self.sim.timeout(self.reconnect_delay)


def apportion(n: int, classes) -> List[int]:
    """Split ``n`` clients over classes by weight, deterministically.

    Error diffusion in class order: exact integer totals, no RNG, and
    stable assignment of *which* index goes to which class — so client
    ``i`` keeps its class (and therefore its RNG stream's meaning) when
    unrelated spec fields change.
    """
    weights = [c.weight for c in classes]
    total = sum(weights)
    counts = [0] * len(classes)
    credits = [0.0] * len(classes)
    for _ in range(n):
        for k, w in enumerate(weights):
            credits[k] += w / total
        best = max(range(len(classes)), key=lambda k: credits[k])
        credits[best] -= 1.0
        counts[best] += 1
    return counts


def flash_offsets(flash: FlashCrowdSpec) -> List[float]:
    """Start offsets (relative to ``flash.at``) of the surge clients.

    Quantiles of Exponential(mean=decay) via the inverse CDF — a
    deterministic arrival profile that steps up at ``at`` and decays
    away, with no RNG consumed.
    """
    n = flash.surge_clients
    return [
        -flash.decay * math.log(1.0 - (j + 1) / (n + 1.0)) for j in range(n)
    ]


def _class_of(classes, counts: List[int], position: int) -> ClientClassSpec:
    """The class of the ``position``-th client when ``classes`` take
    ``counts`` consecutive indices each."""
    for spec, count in zip(classes, counts):
        if position < count:
            return spec
        position -= count
    return classes[-1]  # pragma: no cover


class ClusterLoadGenerator:
    """Builds the whole client population: classes, adversaries, surge."""

    def __init__(
        self,
        sim: Simulator,
        cluster: ClusterSpec,
        balancer: LoadBalancer,
        class_links: dict,
        workload: SurgeWorkload,
        metrics: FanoutMetrics,
        n_clients: int,
        streams: RandomStreams,
        config: Optional[HttperfConfig] = None,
        cache: Optional[LruCache] = None,
        cache_tier: Optional[TierMetrics] = None,
        flash: Optional[FlashCrowdSpec] = None,
        obs=None,
    ) -> None:
        if n_clients < 1:
            raise ValueError("need at least one client")
        self.sim = sim
        self.cluster = cluster
        self.balancer = balancer
        self.class_links = class_links
        self.workload = workload
        self.metrics = metrics
        self.n_clients = n_clients
        self.streams = streams
        self.config = config or HttperfConfig()
        self.cache = cache
        self.cache_tier = cache_tier
        self.flash = flash
        self.obs = obs
        self.attackers: List[SlowlorisClient] = []

    # ------------------------------------------------------------------
    def _spawn_legit(
        self, i: int, spec: ClientClassSpec, offset: float,
        sessions_limit: Optional[int],
    ) -> None:
        client = ClusterClient(
            self.sim,
            i,
            self.class_links[spec.name],
            self.workload,
            self.metrics,
            self.streams.spawn("cluster-client", i),
            self.balancer,
            self.streams.spawn("route", i),
            self.config,
            cache=self.cache,
            cache_tier=self.cache_tier,
            sessions_limit=sessions_limit,
            obs=self.obs,
            wan_class=spec.name,
        )
        self.sim.process(client.run(start_delay=offset), name=f"client-{i}")

    def _spawn_attacker(
        self, i: int, spec: ClientClassSpec, offset: float
    ) -> None:
        attacker = SlowlorisClient(
            self.sim,
            i,
            self.balancer,
            self.class_links[spec.name],
            self.streams.spawn("route", i),
            self.config,
        )
        self.attackers.append(attacker)
        self.sim.process(
            attacker.run(start_delay=offset), name=f"attacker-{i}"
        )

    def start(self, ramp: float = 2.0) -> None:
        """Spawn the steady population, plus the surge if configured."""
        classes = self.cluster.classes
        counts = apportion(self.n_clients, classes)
        for i in range(self.n_clients):
            spec = _class_of(classes, counts, i)
            offset = ramp * i / self.n_clients
            if spec.adversary == "slowloris":
                self._spawn_attacker(i, spec, offset)
            else:
                self._spawn_legit(i, spec, offset, None)
        if self.flash is not None:
            legit = [c for c in classes if not c.adversary]
            surge_counts = apportion(self.flash.surge_clients, legit)
            offsets = flash_offsets(self.flash)
            for j in range(self.flash.surge_clients):
                spec = _class_of(legit, surge_counts, j)
                self._spawn_legit(
                    self.n_clients + j,
                    spec,
                    self.flash.at + offsets[j],
                    self.flash.sessions_per_client,
                )

    def stats(self) -> dict:
        """Attack-side counters for the aggregate server_stats."""
        if not self.attackers:
            return {}
        return {
            "attack.clients": len(self.attackers),
            "attack.connects": sum(a.connects for a in self.attackers),
            "attack.connect_failures": sum(
                a.connect_failures for a in self.attackers
            ),
            "attack.reaped": sum(a.reaped for a in self.attackers),
        }
