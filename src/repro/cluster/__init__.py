"""Cluster tier: consistent-hash shard routing over N FLICK platforms.

:mod:`repro.cluster.ring` — the seeded consistent-hash ring (mechanism
substrate); :mod:`repro.cluster.routing` — the string-keyed
:class:`RoutingPolicy` registry (policy); :mod:`repro.cluster.fleet` —
the :class:`ShardRouter` front end piping client connections to shard
platforms with connection affinity and mid-run shard-failure injection
(mechanism).
"""

from repro.cluster.fleet import ShardRouter
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.routing import (
    ROUTINGS,
    FleetView,
    RoutingPolicy,
    ShardSnapshot,
    make_routing,
    register_routing,
    registered_routings,
    resolve_routing,
)
