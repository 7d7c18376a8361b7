"""TCP stack cost profiles: kernel vs mTCP/DPDK.

This module is the substitution for the paper's mTCP + DPDK port
(section 5, last paragraph): instead of running a user-space TCP stack,
we model a stack as the CPU time its operations cost the middlebox.
The paper's relative results follow from the cost structure:

* the kernel stack pays heavily per connection (socket/VFS setup, §5:
  "high overhead for creating and destroying sockets") and per syscall
  (user/kernel crossings);
* mTCP pays a fraction of both, which is why the non-persistent HTTP
  experiment (Figure 4c) shows a ~4x gap while the persistent one
  (Figure 4a) shows a moderate one;
* beyond 8 cores the kernel stack charges every operation a contention
  term that grows with the core count (§6.3: "threads compete over
  common data structures").  The term is uniform, not a saturating
  shared table, so it slows kernel scaling without capping it: kernel
  FLICK still gains from 8 to 16 cores in Figure 5, a known deviation
  that docs/reproduction.md notes.

The absolute numbers are calibrated so single-system peaks land near the
paper's reported values on a simulated 16-core middlebox;
docs/reproduction.md records paper-vs-measured for every figure.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StackProfile:
    """CPU cost (µs) charged to the middlebox for stack operations.

    Connection set-up is charged on the accept side only: an outbound
    connect (a backend leg) costs the middlebox nothing.
    """

    name: str
    #: server-side cost to accept + register a new connection
    accept_us: float
    #: cost to tear down a connection (FIN handling, socket release)
    teardown_us: float
    #: cost of one read from a socket (syscall / ring dequeue)
    read_op_us: float
    #: cost of one write to a socket
    write_op_us: float
    #: copy cost per payload byte crossing the stack
    per_byte_us: float
    #: event-notification dispatch cost per socket wakeup (epoll vs ring poll)
    event_us: float
    #: extra cost per stack operation per active core beyond
    #: ``contention_free_cores`` — shared-structure lock contention
    contention_us_per_core: float
    contention_free_cores: int = 8

    def op_overhead_us(self, cores: int) -> float:
        """Per-operation contention penalty when running on ``cores``."""
        excess = max(0, cores - self.contention_free_cores)
        return excess * self.contention_us_per_core

    def read_cost_us(self, nbytes: int, cores: int = 1) -> float:
        return (
            self.read_op_us
            + self.event_us
            + nbytes * self.per_byte_us
            + self.op_overhead_us(cores)
        )

    def write_cost_us(self, nbytes: int, cores: int = 1) -> float:
        return (
            self.write_op_us
            + nbytes * self.per_byte_us
            + self.op_overhead_us(cores)
        )


#: Linux kernel TCP stack (sockets + epoll through the VFS).
KERNEL = StackProfile(
    name="kernel",
    accept_us=120.0,
    teardown_us=90.0,
    read_op_us=2.3,
    write_op_us=2.1,
    per_byte_us=0.0020,
    event_us=1.0,
    contention_us_per_core=0.25,
    contention_free_cores=8,
)

#: mTCP user-space stack over DPDK (per-core TCB tables, batched I/O).
MTCP = StackProfile(
    name="mtcp",
    accept_us=10.0,
    teardown_us=6.0,
    read_op_us=0.9,
    write_op_us=0.85,
    per_byte_us=0.0018,
    event_us=0.35,
    contention_us_per_core=0.0,
    contention_free_cores=16,
)

PROFILES = {profile.name: profile for profile in (KERNEL, MTCP)}


def profile(name: str) -> StackProfile:
    """Look up a stack profile by name ('kernel' or 'mtcp')."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown stack profile {name!r}; choose from {sorted(PROFILES)}"
        ) from None


@dataclass(frozen=True)
class CoreTopology:
    """Socket layout of the middlebox's cores.

    The paper's testbed is a two-socket Xeon; its scheduler treats all
    cores as equidistant, which is exactly the scenario the ``numa``
    scheduling policy improves on.  Cores are numbered in socket-major
    (blocked) order, as Linux enumerates them: cores ``0..c-1`` are
    socket 0, ``c..2c-1`` socket 1, and so on; a worker count beyond
    ``sockets * cores_per_socket`` wraps around.

    The sockets form a ring: :meth:`socket_hops` counts the interconnect
    hops between two of them — adjacent sockets are one QPI hop apart,
    opposite corners of a four-socket box two.
    ``remote_steal_penalty_us`` is the extra cost the mechanism charges
    a steal *per hop* between the thief's and the victim's sockets (cold
    remote cache lines + interconnect forwarding), on top of the flat
    ``STEAL_US``; on a two-socket box every remote pair is one hop, so
    this degenerates to the flat penalty of the paper's testbed.
    """

    name: str
    sockets: int
    cores_per_socket: int
    remote_steal_penalty_us: float

    def __post_init__(self):
        if self.sockets < 1:
            raise ValueError(f"need at least one socket, got {self.sockets}")
        if self.cores_per_socket < 1:
            raise ValueError(
                f"need at least one core per socket, got "
                f"{self.cores_per_socket}"
            )
        if self.remote_steal_penalty_us < 0:
            raise ValueError(
                f"remote steal penalty cannot be negative, got "
                f"{self.remote_steal_penalty_us}"
            )

    def socket_of(self, core: int) -> int:
        """Socket that core index ``core`` lives on."""
        return (core // self.cores_per_socket) % self.sockets

    def socket_hops(self, a: int, b: int) -> int:
        """Interconnect hops between sockets ``a`` and ``b`` around the
        ring: 0 for the same socket, 1 for every remote pair on a
        two-socket box."""
        if a == b:
            return 0
        span = abs(a - b)
        return min(span, self.sockets - span)


#: Everything on one socket: no remote steals, the paper's implicit model.
UNIFORM = CoreTopology(
    name="uniform", sockets=1, cores_per_socket=16,
    remote_steal_penalty_us=0.0,
)

#: The paper's testbed shape: two 8-core sockets.
TWO_SOCKET = CoreTopology(
    name="two-socket", sockets=2, cores_per_socket=8,
    remote_steal_penalty_us=1.8,
)

#: A denser NUMA box: four 4-core sockets on a ring interconnect —
#: adjacent sockets are one hop, opposite ones two, so far steals cost
#: twice the per-hop penalty.
FOUR_SOCKET = CoreTopology(
    name="four-socket", sockets=4, cores_per_socket=4,
    remote_steal_penalty_us=2.6,
)

TOPOLOGIES = {t.name: t for t in (UNIFORM, TWO_SOCKET, FOUR_SOCKET)}


def core_topology(name: str) -> CoreTopology:
    """Look up a core topology by name."""
    try:
        return TOPOLOGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown core topology {name!r}; choose from {sorted(TOPOLOGIES)}"
        ) from None
