"""The cluster tier's mechanism: a front-end shard router over N platforms.

One :class:`~repro.runtime.platform.FlickPlatform` is one middlebox;
this module scales the data plane *out*.  A :class:`ShardRouter` is an
L4 front end living on its own simulated host: it accepts client
connections on the public port, picks a shard **once per connection**
(delegated to a :class:`~repro.cluster.routing.RoutingPolicy`; the
seeded consistent-hash ring of :mod:`repro.cluster.ring` is the
default placement), opens an upstream connection to the chosen shard's
platform and pipes bytes both ways for the connection's lifetime —
connection affinity is mechanism-enforced, never policy-revocable.

Every hop is on the simulated network, so the router's NIC serialises
the fleet's aggregate traffic exactly like any other host's; the
router burns no modeled CPU (it is a cut-through L4 proxy, not a FLICK
program).

Each shard keeps its own scheduler, allocator, service classes and
:class:`~repro.sim.stats.SloScoreboard`; the testbed hands every
shard's records, in shard order, to
:func:`~repro.sim.stats.class_summary`, the same function a single
platform's records go through, so scenario JSON is shard-count-agnostic.

**Failure**: :meth:`ShardRouter.fail_shard` kills a shard mid-run — its
ring segment is released to the clockwise survivors, every connection
pinned to it is severed (both pipe ends closed, so clients observe EOF
after any in-flight bytes), and new connections route over the
surviving ring.  The dead platform keeps draining whatever it already
holds; its responses land on closed sockets and are dropped with
byte accounting, exactly like a real host vanishing mid-flight.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.routing import (
    FleetView,
    ShardSnapshot,
    resolve_routing,
)
from repro.core.errors import SimulationError
from repro.net.simnet import Host
from repro.net.tcp import TcpNetwork, TcpSocket
from repro.sim.engine import Engine


class _Shard:
    """Router-side state for one platform in the fleet."""

    __slots__ = (
        "index", "host", "port", "platform", "alive",
        "connections", "routed", "failed_at_us",
    )

    def __init__(self, index: int, host: Host, port: int, platform):
        self.index = index
        self.host = host
        self.port = port
        self.platform = platform
        self.alive = True
        #: Connections currently pinned here (live pipes).
        self.connections = 0
        #: Connections ever routed here (monotonic).
        self.routed = 0
        self.failed_at_us: Optional[float] = None


class _ProxiedConnection:
    """One client flow: downstream socket piped to a pinned shard."""

    __slots__ = (
        "router", "down", "up", "shard_index", "_pending",
        "_released", "_severed",
    )

    def __init__(self, router: "ShardRouter", down: TcpSocket, shard_index: int):
        self.router = router
        self.down = down
        self.up: Optional[TcpSocket] = None
        self.shard_index = shard_index
        #: Client bytes that arrived before the upstream connected.
        self._pending: List[bytes] = []
        self._released = False
        self._severed = False
        shard = router._shards[shard_index]
        shard.connections += 1
        shard.routed += 1
        down.on_receive(self._from_client)
        down.on_close(self._client_closed)
        router.tcpnet.connect(
            router.host, shard.host, shard.port, self._upstream_ready
        )

    def _upstream_ready(self, up: TcpSocket) -> None:
        shard = self.router._shards[self.shard_index]
        if self._severed or self.down.closed or not shard.alive:
            # The world moved on while the handshake was in flight
            # (shard failed / client gone): tear both ends down so the
            # client re-routes instead of talking to a corpse.
            up.close()
            if not self.down.closed:
                self.down.close()
            self._release()
            return
        self.up = up
        up.on_receive(self._from_shard)
        up.on_close(self._shard_closed)
        pending, self._pending = self._pending, []
        for chunk in pending:
            up.send(chunk)

    # -- byte pipe -----------------------------------------------------------

    def _from_client(self, data: bytes) -> None:
        if self._severed:
            return
        if self.up is None:
            self._pending.append(data)
        elif not self.up.closed:
            self.up.send(data)

    def _from_shard(self, data: bytes) -> None:
        if not self.down.closed:
            self.down.send(data)

    # -- teardown ------------------------------------------------------------

    def _client_closed(self) -> None:
        if self.up is not None and not self.up.closed:
            self.up.close()
        self._release()

    def _shard_closed(self) -> None:
        if not self.down.closed:
            self.down.close()
        self._release()

    def sever(self) -> None:
        """Failure path: cut both pipe ends (in-flight bytes drop)."""
        if self._severed:
            return
        self._severed = True
        if self.up is not None and not self.up.closed:
            self.up.close()
        if not self.down.closed:
            self.down.close()
        self._release()

    def _release(self) -> None:
        if self._released:
            return
        self._released = True
        self.router._shards[self.shard_index].connections -= 1
        self.router._pipes.pop(self, None)


class ShardRouter:
    """Front-end router: the fleet's public endpoint and its mechanism.

    Build the shard platforms first (each on its own host, program
    registered and started on ``shard_port``), :meth:`add_shard` them,
    then :meth:`start` the router; clients connect to
    ``(router host, port)`` exactly as they would to one middlebox.

    ``routing`` is a registered policy name
    (:func:`~repro.cluster.routing.registered_routings`) or a ready
    :class:`~repro.cluster.routing.RoutingPolicy`; ``seed`` keys the
    consistent-hash ring, so placement is deterministic per seed.
    """

    def __init__(
        self,
        engine: Engine,
        tcpnet: TcpNetwork,
        host: Host,
        port: int,
        routing="hash-affinity",
        vnodes: int = DEFAULT_VNODES,
        seed: int = 0xF11C,
    ):
        self.engine = engine
        self.tcpnet = tcpnet
        self.host = host
        self.port = port
        self.policy = resolve_routing(routing)
        self.routing_name = self.policy.name
        self._ring = HashRing(vnodes=vnodes, seed=seed)
        self._shards: List[_Shard] = []
        #: Live pipes in accept order.  A dict-as-ordered-set, NOT a
        #: set: failure injection iterates this, and set order varies
        #: with object addresses — severing must replay identically
        #: across processes for run results to be byte-stable.
        self._pipes: Dict[_ProxiedConnection, None] = {}
        self._started = False
        #: Connections accepted by the router (any shard).
        self.connections_routed = 0
        #: Connections refused because no shard was alive.
        self.connections_refused = 0
        #: Connections severed by shard failures (their flows re-home).
        self.failed_over_connections = 0
        #: Indices of shards killed via :meth:`fail_shard`, in order.
        self.failed_shards: List[int] = []

    # -- fleet membership ----------------------------------------------------

    def add_shard(self, platform, port: int) -> int:
        """Register ``platform`` (listening on its host's ``port``)."""
        if platform.host is self.host:
            raise SimulationError(
                "a shard cannot share the router's host "
                f"({self.host.name}); give each shard its own"
            )
        index = len(self._shards)
        self._ring.add(index)
        self._shards.append(_Shard(index, platform.host, port, platform))
        return index

    def start(self) -> None:
        if self._started:
            return
        if not self._shards:
            raise SimulationError("router needs at least one shard")
        self._started = True
        self.tcpnet.listen(self.host, self.port, self._on_client)

    @property
    def shards(self) -> int:
        return len(self._shards)

    @property
    def alive_shards(self) -> int:
        return sum(1 for s in self._shards if s.alive)

    # -- routing -------------------------------------------------------------

    def _view(self) -> FleetView:
        return FleetView(
            ring=self._ring,
            shards=tuple(
                ShardSnapshot(connections=shard.connections)
                for shard in self._shards
            ),
        )

    def _on_client(self, down: TcpSocket) -> None:
        if not len(self._ring):
            # Total fleet loss: refuse at the door (EOF), don't hang.
            self.connections_refused += 1
            down.close()
            return
        choice = self.policy.choose_shard(down.conn_id, self._view())
        if (
            not isinstance(choice, int)
            or not 0 <= choice < len(self._shards)
            or not self._shards[choice].alive
        ):
            # Mechanism guard: a policy answer that is dead or out of
            # range degrades to the ring owner instead of black-holing.
            choice = self._ring.lookup(down.conn_id)
        self.connections_routed += 1
        self._pipes[_ProxiedConnection(self, down, choice)] = None

    # -- failure injection ---------------------------------------------------

    def fail_shard(self, index: int) -> int:
        """Kill shard ``index`` now; returns how many flows it severed."""
        shard = self._shards[index]
        if not shard.alive:
            return 0  # already dead: failing twice is a no-op
        shard.alive = False
        shard.failed_at_us = self.engine.now
        self._ring.remove(index)
        severed = [p for p in self._pipes if p.shard_index == index]
        for pipe in severed:
            pipe.sever()
        self.failed_over_connections += len(severed)
        self.failed_shards.append(index)
        return len(severed)

    def fail_shard_at(self, index: int, at_us: float) -> None:
        """Schedule :meth:`fail_shard` at virtual time ``at_us``."""
        if not 0 <= index < len(self._shards):
            raise SimulationError(f"no shard {index} to fail")
        self.engine.at(at_us, lambda: self.fail_shard(index))

    # -- reporting -----------------------------------------------------------

    def shard_report(self) -> Dict[str, Dict[str, float]]:
        """Per-shard routing/completion counters (JSON-ready)."""
        return {
            f"shard{shard.index}": {
                "alive": bool(shard.alive),
                "routed_connections": int(shard.routed),
                "completions": int(
                    shard.platform.scoreboard.total_completions
                ),
                "failed_at_us": (
                    float(shard.failed_at_us)
                    if shard.failed_at_us is not None
                    else None
                ),
            }
            for shard in self._shards
        }
