"""Pluggable load balancers and the replica availability state machine.

A balancer routes each new client connection to one replica.  Three
policies, selected by :class:`~repro.cluster.spec.BalancerSpec`:

round_robin
    Cycle through the replicas in rid order, skipping unavailable ones.
least_connections
    Route to the replica with the fewest balancer-opened connections
    (ties broken by rid order) — the policy that automatically steers
    load away from a slow or draining straggler.
consistent_hash
    A hash ring with ``vnodes`` virtual nodes per replica (positions are
    sha256 of ``"rid#v"``, so the ring depends only on rids).  Each
    connection carries a routing key; hot-key skew is applied at key
    *generation* time (see :meth:`LoadBalancer.make_key`).

Replica availability is a four-state machine driven by the rolling-
restart scenario: ``up`` (routable), ``draining`` (no *new* connections;
existing sessions finish), ``down`` (dead), ``warming`` (routable at a
linearly increasing fraction over the warm-up window).  Warm-up
admission uses deterministic error diffusion — a credit accumulates by
the ramp fraction on every pick and the replica is eligible whenever the
credit reaches one — so replay is byte-identical: no RNG anywhere in
routing.

The invariant the rolling-restart scenario is measured against: a pick
never returns a ``draining`` or ``down`` replica.  ``routed_unavailable``
counts violations (always 0) and ``picks_after_drain`` per rid is
snapshotted at drain time so tests can assert zero post-drain routes.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Sequence

from .spec import BalancerSpec

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
]

UP = "up"
DRAINING = "draining"
DOWN = "down"
WARMING = "warming"


def _hash64(text: str) -> int:
    """Stable 64-bit hash (independent of PYTHONHASHSEED)."""
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
    )


class LoadBalancer:
    """Base policy: replica bookkeeping, state machine, counters.

    ``replicas`` is any sequence of objects exposing a stable ``.rid``;
    the cluster experiment passes its runtime objects, unit tests pass
    stubs.  The sequence must already be in rid order (ClusterSpec
    normalises it), and every policy iterates in that order, so routing
    depends only on rids — never on spec listing order.
    """

    #: Whether :meth:`pick` consumes a routing key (only consistent
    #: hashing does; the other policies never touch the key RNG).
    needs_key = False

    def __init__(
        self,
        replicas: Sequence,
        spec: Optional[BalancerSpec] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if not replicas:
            raise ValueError("balancer needs at least one replica")
        self.replicas = list(replicas)
        self.spec = spec if spec is not None else BalancerSpec()
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.state: Dict[str, str] = {r.rid: UP for r in self.replicas}
        self.open_conns: Dict[str, int] = {r.rid: 0 for r in self.replicas}
        self.open_peak: Dict[str, int] = {r.rid: 0 for r in self.replicas}
        self.picks_by_rid: Dict[str, int] = {r.rid: 0 for r in self.replicas}
        self.picks = 0
        self.no_replica = 0
        self.routed_unavailable = 0
        #: The run's :class:`~repro.obs.Observer` (or ``None``): picks
        #: and state transitions feed its time series and the figure's
        #: replica-state bands.  Assigned by the experiment.
        self.obs = None
        #: rid -> [warm_start, warm_duration, credit] while WARMING.
        self._warming: Dict[str, List[float]] = {}
        #: rid -> picks_by_rid value at the moment the rid started
        #: draining (for the zero-post-drain-routes assertion).
        self._drain_marks: Dict[str, int] = {}
        #: rid -> picks accumulated during *closed* drain windows (a
        #: replica brought back up stops accruing).
        self._drain_totals: Dict[str, int] = {}

    # -- state machine ------------------------------------------------------
    def set_state(self, rid: str, state: str, warm_s: float = 0.0) -> None:
        """Move ``rid`` to ``state`` (``warm_s`` sizes the WARMING ramp)."""
        if rid not in self.state:
            raise KeyError(f"unknown replica rid {rid!r}")
        if state not in (UP, DRAINING, DOWN, WARMING):
            raise ValueError(f"unknown replica state {state!r}")
        self.state[rid] = state
        self._warming.pop(rid, None)
        if state in (UP, WARMING) and rid in self._drain_marks:
            # The replica is routable again: close its drain window so
            # legitimate post-warm-up picks don't count against it.
            window = self.picks_by_rid[rid] - self._drain_marks.pop(rid)
            self._drain_totals[rid] = self._drain_totals.get(rid, 0) + window
        if state == DRAINING:
            self._drain_marks[rid] = self.picks_by_rid[rid]
        elif state == DOWN:
            self._drain_marks.setdefault(rid, self.picks_by_rid[rid])
        elif state == WARMING:
            if warm_s <= 0:
                raise ValueError("WARMING needs warm_s > 0")
            self._warming[rid] = [self.clock(), warm_s, 0.0]
        if self.obs is not None:
            self.obs.state_change(self.clock(), rid, state)

    def _eligible(self) -> List:
        """Routable replicas right now, in rid order.

        Mutates warm-up credits, so call exactly once per pick.
        """
        now = self.clock()
        out = []
        for replica in self.replicas:
            state = self.state[replica.rid]
            if state == UP:
                out.append(replica)
            elif state == WARMING:
                ramp = self._warming[replica.rid]
                start, duration, _credit = ramp
                if now >= start + duration:
                    self.state[replica.rid] = UP
                    del self._warming[replica.rid]
                    if self.obs is not None:
                        self.obs.state_change(now, replica.rid, UP)
                    out.append(replica)
                    continue
                # Error-diffusion admission: eligible on the picks where
                # the accumulated ramp fraction crosses one whole unit.
                ramp[2] += (now - start) / duration
                if ramp[2] >= 1.0:
                    ramp[2] -= 1.0
                    out.append(replica)
        return out

    # -- routing ------------------------------------------------------------
    def make_key(self, rng) -> Optional[int]:
        """Routing key for one connection (None for key-less policies).

        Key-less policies must not touch ``rng``: adding a policy that
        draws keys must never perturb the streams of one that does not.
        """
        if not self.needs_key:
            return None
        spec = self.spec
        if spec.hot_fraction > 0.0 and rng.random() < spec.hot_fraction:
            return int(rng.integers(spec.hot_keys))
        return int(rng.integers(1 << 32))

    def pick(self, key: Optional[int] = None):
        """Route one new connection; returns a replica or ``None``."""
        eligible = self._eligible()
        self.picks += 1
        if not eligible:
            self.no_replica += 1
            if self.obs is not None:
                self.obs.pick(self.clock(), None)
            return None
        replica = self._select(eligible, key)
        rid = replica.rid
        if self.state[rid] in (DRAINING, DOWN):  # pragma: no cover
            self.routed_unavailable += 1
        self.picks_by_rid[rid] += 1
        opened = self.open_conns[rid] + 1
        self.open_conns[rid] = opened
        if opened > self.open_peak[rid]:
            self.open_peak[rid] = opened
        if self.obs is not None:
            self.obs.pick(self.clock(), rid)
        return replica

    def release(self, replica) -> None:
        """The connection routed to ``replica`` ended (any way)."""
        self.open_conns[replica.rid] -= 1

    def _select(self, eligible: List, key: Optional[int]):
        raise NotImplementedError

    # -- reporting ----------------------------------------------------------
    def picks_after_drain(self, rid: str) -> int:
        """New connections routed to ``rid`` while drained/down.

        Counts picks inside drain windows only — from drain (or down)
        until the replica is routable again — so the rolling-restart
        invariant stays assertable after the replica returns to service.
        """
        total = self._drain_totals.get(rid, 0)
        mark = self._drain_marks.get(rid)
        if mark is not None:
            total += self.picks_by_rid[rid] - mark
        return total

    def stats(self) -> Dict[str, float]:
        """Flat counters for the cluster-aggregate ``server_stats``."""
        out: Dict[str, float] = {
            "lb.policy": self.spec.policy,
            "lb.picks": self.picks,
            "lb.no_replica": self.no_replica,
            "lb.routed_unavailable": self.routed_unavailable,
        }
        for replica in self.replicas:
            rid = replica.rid
            out[f"lb.{rid}.picks"] = self.picks_by_rid[rid]
            out[f"lb.{rid}.open_peak"] = self.open_peak[rid]
            out[f"lb.{rid}.state"] = self.state[rid]
            if rid in self._drain_marks or rid in self._drain_totals:
                out[f"lb.{rid}.picks_after_drain"] = self.picks_after_drain(
                    rid
                )
        return out


class RoundRobinBalancer(LoadBalancer):
    """Cycle through the replicas in rid order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._cursor = 0

    def _select(self, eligible: List, key: Optional[int]):
        eligible_rids = {r.rid for r in eligible}
        n = len(self.replicas)
        for _ in range(n):
            replica = self.replicas[self._cursor % n]
            self._cursor += 1
            if replica.rid in eligible_rids:
                return replica
        return eligible[0]  # pragma: no cover - eligible is non-empty


class LeastConnectionsBalancer(LoadBalancer):
    """Route to the replica with the fewest open connections."""

    def _select(self, eligible: List, key: Optional[int]):
        # min() keeps the first of equals, and `eligible` is in rid
        # order, so ties break deterministically by rid.
        return min(eligible, key=lambda r: self.open_conns[r.rid])


class ConsistentHashBalancer(LoadBalancer):
    """Hash-ring routing with virtual nodes and hot-key skew."""

    needs_key = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        ring = []
        for replica in self.replicas:
            for v in range(self.spec.vnodes):
                ring.append((_hash64(f"{replica.rid}#{v}"), replica))
        ring.sort(key=lambda pair: pair[0])
        self._ring = ring
        self._positions = [pos for pos, _ in ring]

    def _select(self, eligible: List, key: Optional[int]):
        eligible_rids = {r.rid for r in eligible}
        h = _hash64(str(key))
        start = bisect_right(self._positions, h)
        n = len(self._ring)
        for step in range(n):
            replica = self._ring[(start + step) % n][1]
            if replica.rid in eligible_rids:
                return replica
        return eligible[0]  # pragma: no cover - eligible is non-empty


_POLICIES = {
    "round_robin": RoundRobinBalancer,
    "least_connections": LeastConnectionsBalancer,
    "consistent_hash": ConsistentHashBalancer,
}


def make_balancer(
    spec: BalancerSpec,
    replicas: Sequence,
    clock: Optional[Callable[[], float]] = None,
) -> LoadBalancer:
    """Instantiate the balancer ``spec`` names over ``replicas``."""
    return _POLICIES[spec.policy](replicas, spec=spec, clock=clock)
