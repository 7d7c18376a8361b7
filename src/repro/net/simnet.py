"""Simulated data-centre network: hosts, NICs, links, switch trunk.

Replaces the paper's physical testbed (section 6.2): client and backend
machines with 1 Gbps NICs on one switch, the middlebox with a 10 Gbps NIC
on another, and a 20 Gbps inter-switch trunk.

Model: every transmission serialises through (a) the sender's NIC, (b)
the inter-segment trunk if the endpoints sit on different switches, and
(c) the receiver's NIC.  Each of those is a :class:`RateLimiter` — a
store-and-forward pipe that is busy for ``bytes/rate`` and hands the
frame onward when free.  Propagation/switching latency is a constant per
hop.  TCP/IP framing overhead inflates on-wire bytes by
``WIRE_OVERHEAD`` (1448 payload bytes per 1538-byte Ethernet frame),
which is what caps the Hadoop experiment at the paper's ~7.5 Gbps of
goodput over 8 x 1 Gbps ingress links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.errors import SimulationError
from repro.core.units import GBPS, SECONDS
from repro.sim.engine import Engine

#: Ethernet + IP + TCP framing: 1448 payload bytes per 1538 wire bytes.
WIRE_OVERHEAD = 1538.0 / 1448.0

#: One-way propagation + switching latency per segment hop (µs).
HOP_LATENCY_US = 18.0


class RateLimiter:
    """A serialising resource (NIC or trunk): busy for bytes/rate."""

    __slots__ = ("rate_bps", "_free_at")

    def __init__(self, rate_bps: float):
        if rate_bps <= 0:
            raise SimulationError(f"rate must be positive, got {rate_bps}")
        self.rate_bps = rate_bps
        self._free_at = 0.0

    def transmit(self, now_us: float, nbytes: int) -> float:
        """Claim the resource; returns the time the last bit leaves.

        The frame starts when both it and the resource are ready and
        takes its wire bytes' bits over ``rate_bps``, in µs.
        """
        free_at = self._free_at
        start = free_at if free_at > now_us else now_us
        end = start + nbytes * WIRE_OVERHEAD * 8.0 / self.rate_bps * SECONDS
        self._free_at = end
        return end


@dataclass
class Host:
    """A simulated machine: a named NIC attached to a switch segment."""

    name: str
    nic_rate_bps: float = 10 * GBPS
    segment: str = "core"
    tx: RateLimiter = field(init=False)
    rx: RateLimiter = field(init=False)

    def __post_init__(self):
        self.tx = RateLimiter(self.nic_rate_bps)
        self.rx = RateLimiter(self.nic_rate_bps)


_Path = Tuple[RateLimiter, Optional[RateLimiter], RateLimiter]


class Network:
    """Hosts plus inter-segment trunks; computes delivery times.

    Each NIC has separate ``tx`` and ``rx`` limiters, so a host sends
    and receives at full rate at once.  The trunk between two segments
    is one :class:`RateLimiter` serving both directions: a frame from
    segment A to B queues behind frames from B to A.
    """

    def __init__(self, engine: Engine, trunk_rate_bps: float = 20 * GBPS):
        self.engine = engine
        self._hosts: Dict[str, Host] = {}
        self._trunks: Dict[frozenset, RateLimiter] = {}
        self._trunk_rate = trunk_rate_bps
        # (src name, dst name) -> (src.tx, trunk or None, dst.rx).
        self._paths: Dict[Tuple[str, str], _Path] = {}

    # -- topology -----------------------------------------------------------

    def add_host(
        self,
        name: str,
        nic_rate_bps: float = 10 * GBPS,
        segment: str = "core",
    ) -> Host:
        if name in self._hosts:
            raise SimulationError(f"duplicate host {name!r}")
        host = Host(name, nic_rate_bps, segment)
        self._hosts[name] = host
        return host

    def _path(self, src: Host, dst: Host) -> _Path:
        """The limiters a frame from ``src`` to ``dst`` crosses, built
        on the pair's first frame and kept."""
        trunk = None
        if src.segment != dst.segment:
            key = frozenset((src.segment, dst.segment))
            trunk = self._trunks.get(key)
            if trunk is None:
                trunk = self._trunks[key] = RateLimiter(self._trunk_rate)
        path = self._paths[src.name, dst.name] = (src.tx, trunk, dst.rx)
        return path

    # -- transfer ------------------------------------------------------------

    def deliver(
        self, src: Host, dst: Host, nbytes: int, callback: Callable, *args
    ) -> float:
        """File ``callback(*args)`` for when ``nbytes`` from src arrive
        at dst; returns the arrival time (µs).

        The frame crosses the sender's NIC, the trunk when the hosts sit
        on different segments, and the receiver's NIC, paying
        ``HOP_LATENCY_US`` between hops; the pair's path is looked up
        once and kept.  Zero-byte control exchanges (SYN, FIN) still
        pay per-hop latency and — like any other frame — claim their
        place in the sender's NIC queue, so a FIN can never leave the
        host ahead of data still serialising behind
        ``src.tx._free_at``.
        """
        try:
            tx, trunk, rx = self._paths[src.name, dst.name]
        except KeyError:
            tx, trunk, rx = self._path(src, dst)
        depart = tx.transmit(self.engine.now, nbytes)
        if trunk is not None:
            depart = trunk.transmit(depart + HOP_LATENCY_US, nbytes)
        arrival = rx.transmit(depart + HOP_LATENCY_US, nbytes)
        self.engine.at(arrival, callback, *args)
        return arrival
