"""Cross-shard routing policies: the *policy* half of the cluster tier.

Same policy/mechanism discipline as :mod:`repro.runtime.policy` and
:mod:`repro.runtime.allocator`: the mechanism — the consistent-hash
ring, connection piping, affinity, failure re-mapping — lives in
:mod:`repro.cluster.fleet`; every *placement decision* is delegated to
a string-keyed :class:`RoutingPolicy` through one hook:

* ``choose_shard(key, view)`` — which shard a new connection should be
  pinned to, given the flow key and a :class:`FleetView` snapshot
  (mirroring the :class:`~repro.runtime.allocator.AllocView` pattern:
  per-shard liveness, active connection counts, scheduler backlog and
  the live per-shard :class:`~repro.sim.stats.SloScoreboard`); the
  mechanism falls back to the ring if the answer is dead or out of
  range, so a buggy policy degrades instead of black-holing flows.

A decision is made **once per connection** (at accept) and never
revisited — connection affinity is mechanism-enforced, so a flow's
requests stay on one shard for the connection's lifetime.

Three policies ship built in: ``hash-affinity`` (the default: pure ring
lookup — deterministic, stateless, minimal disruption on membership
change), ``least-loaded`` (power-of-two-choices over the ring's two
clockwise candidates, breaking the tie toward fewer active
connections) and ``rebalance-watermark`` (hash affinity until the home
shard saturates — backlog per active worker above a watermark, or
recent latency eating the SLO headroom — then new connections divert
to the least-backlogged live shard).  Unknown names get near-miss
suggestions, like every other registry in the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cluster.ring import HashRing
from repro.core.errors import ConfigError
from repro.core.registry import Registry


@dataclass(frozen=True)
class ShardSnapshot:
    """What a routing policy may observe about one shard.

    ``backlog`` is the shard scheduler's total queued-task count and
    ``active_workers`` its unparked core count (so watermarks can be
    phrased per worker and stay meaningful under an elastic allocator);
    ``scoreboard`` is the shard's live per-class SLO accounting.  All
    fields are read-only snapshots taken at decision time.
    """

    index: int
    alive: bool
    #: Router-side connections currently pinned to this shard.
    connections: int
    #: Connections ever routed here (monotonic).
    routed: int
    #: Queued tasks across the shard scheduler's workers.
    backlog: int
    #: Unparked workers (the elastic allocator may have shrunk this).
    active_workers: int
    #: Platform-wide SLO of the shard (µs), if one is configured.
    slo_us: Optional[float]
    #: The shard's :class:`~repro.sim.stats.SloScoreboard` (read-only).
    scoreboard: object


@dataclass(frozen=True)
class FleetView:
    """One routing decision's worth of fleet state (read-only).

    ``ring`` only ever contains live shards — the mechanism removes a
    dead shard's segment before the next decision — so pure ring
    lookups are failure-safe by construction.
    """

    now_us: float
    ring: HashRing
    shards: Tuple[ShardSnapshot, ...]

    @property
    def alive(self) -> Tuple[ShardSnapshot, ...]:
        return tuple(s for s in self.shards if s.alive)


class RoutingPolicy:
    """Base class: route by pure ring lookup (subclasses override)."""

    #: Registry key; subclasses must override.
    name = "abstract"

    def choose_shard(self, key: str, view: FleetView) -> int:
        """Index of the shard the connection keyed ``key`` should join.

        The mechanism clamps the answer onto a live shard (falling back
        to ``view.ring.lookup(key)``), so policies may assume but need
        not guarantee liveness.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Drop learned state; called when a fleet adopts the policy."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.name!r}>"


# -- registry ----------------------------------------------------------------

ROUTINGS = Registry(
    "routing policy",
    RoutingPolicy,
    ConfigError,
    first=("hash-affinity",),
    title="Cross-shard routing policies",
    decorator="register_routing",
    consumed_by="`ShardRouter(routing=...)`; `Scenario(routing=...)` (needs `shards` > 1)",
)
register_routing = ROUTINGS.register
registered_routings = ROUTINGS.names
make_routing = ROUTINGS.make
resolve_routing = ROUTINGS.resolve


# -- built-in policies -------------------------------------------------------


@register_routing
class HashAffinityRouting(RoutingPolicy):
    """Pure consistent-hash placement: the ring's owner, nothing else.

    Stateless and deterministic, so a shard join/leave remaps exactly
    the segment that changed hands (the ring's minimal-disruption
    property) and two routers with the same seed agree on every flow.
    """

    name = "hash-affinity"

    def choose_shard(self, key: str, view: FleetView) -> int:
        return view.ring.lookup(key)


@register_routing
class LeastLoadedRouting(RoutingPolicy):
    """Power-of-two-choices over the ring's clockwise candidates.

    The ring nominates the first two distinct shards for the key; the
    one with fewer active router-side connections wins (the ring owner
    on ties).  Classic d=2 balancing: near-exponential improvement in
    the max load over pure hashing, while keeping placement mostly
    hash-local so a membership change still disrupts minimally.
    """

    name = "least-loaded"

    def choose_shard(self, key: str, view: FleetView) -> int:
        first, *rest = view.ring.lookup_chain(key, 2)
        if not rest:
            return first
        second = rest[0]
        if view.shards[second].connections < view.shards[first].connections:
            return second
        return first


@register_routing
class RebalanceWatermarkRouting(RoutingPolicy):
    """Hash affinity until the home shard saturates, then divert.

    A shard counts as *saturated* when its scheduler backlog per active
    worker exceeds ``queue_watermark``, or when the mean latency of its
    last ``window`` completed busy periods eats more than ``headroom``
    of the shard's SLO.  Saturation only redirects **new** connections
    (affinity of established flows is mechanism-owned and never
    revoked): they go to the live shard with the smallest backlog,
    ties broken by fewest connections, then lowest index.
    """

    name = "rebalance-watermark"

    def __init__(
        self,
        queue_watermark: float = 8.0,
        headroom: float = 0.9,
        window: int = 64,
    ):
        if queue_watermark <= 0:
            raise ConfigError(
                f"queue_watermark must be positive, got {queue_watermark:g}"
            )
        if not 0 < headroom <= 1:
            raise ConfigError(
                f"headroom must be in (0, 1], got {headroom:g}"
            )
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        self.queue_watermark = float(queue_watermark)
        self.headroom = float(headroom)
        self.window = int(window)

    def _saturated(self, shard: ShardSnapshot) -> bool:
        workers = max(1, shard.active_workers)
        if shard.backlog / workers > self.queue_watermark:
            return True
        if shard.slo_us is not None:
            records = getattr(shard.scoreboard, "records", ())
            recent = records[-self.window:]
            if recent:
                mean_us = sum(r.latency_us for r in recent) / len(recent)
                if mean_us > self.headroom * shard.slo_us:
                    return True
        return False

    def choose_shard(self, key: str, view: FleetView) -> int:
        home = view.ring.lookup(key)
        if not self._saturated(view.shards[home]):
            return home
        spare = min(
            view.alive,
            key=lambda s: (s.backlog, s.connections, s.index),
        )
        return spare.index
