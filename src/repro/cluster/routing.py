"""Cross-shard routing policies: the *policy* half of the cluster tier.

Same policy/mechanism discipline as :mod:`repro.runtime.policy` and
:mod:`repro.runtime.allocator`: the mechanism — the consistent-hash
ring, connection piping, affinity, failure re-mapping — lives in
:mod:`repro.cluster.fleet`; every *placement decision* is delegated to
a string-keyed :class:`RoutingPolicy` through one hook:

* ``choose_shard(key, view)`` — which shard a new connection should be
  pinned to, given the flow key and a :class:`FleetView` snapshot
  (mirroring the :class:`~repro.runtime.allocator.AllocView` pattern:
  the live ring and each shard's active connection count); the
  mechanism falls back to the ring if the answer is dead or out of
  range, so a buggy policy degrades instead of black-holing flows.

A decision is made **once per connection** (at accept) and never
revisited — connection affinity is mechanism-enforced, so a flow's
requests stay on one shard for the connection's lifetime.

Two policies ship built in: ``hash-affinity`` (the default: pure ring
lookup — deterministic, stateless, minimal disruption on membership
change; ``http-fleet-failover`` pins it) and ``least-loaded``
(power-of-two-choices over the ring's two clockwise candidates,
breaking the tie toward fewer active connections; the
``http-fleet-scale-*`` scenarios pin it).  Unknown names get near-miss
suggestions, like every other registry in the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.cluster.ring import HashRing
from repro.core.errors import ConfigError
from repro.core.registry import Registry


@dataclass(frozen=True)
class ShardSnapshot:
    """What a routing policy may observe about one shard, taken at
    decision time."""

    #: Router-side connections currently pinned to this shard.
    connections: int


@dataclass(frozen=True)
class FleetView:
    """One routing decision's worth of fleet state (read-only).

    ``ring`` only ever contains live shards — the mechanism removes a
    dead shard's segment before the next decision — so pure ring
    lookups are failure-safe by construction.  ``shards`` is
    index-aligned with the fleet, dead shards included.
    """

    ring: HashRing
    shards: Tuple[ShardSnapshot, ...]


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
