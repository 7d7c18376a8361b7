"""Simulated TCP connections over the simulated network.

A :class:`TcpSocket` is one endpoint of an established connection: a
reliable, ordered byte stream.  Data hand-off pays the network costs
(sender NIC, trunk, receiver NIC, hop latency) modelled by
:class:`repro.net.simnet.Network`; CPU costs of the middlebox's stack are
*not* charged here — they are charged by the platform's I/O tasks using a
:class:`repro.net.stackprofiles.StackProfile`, mirroring where those
cycles are burned in the real system.

Connection establishment models the three-way handshake as one RTT of
wire latency before both endpoints exist; teardown delivers an EOF event
to the peer (section 5's application-dispatcher close handling keys off
this).

An endpoint lets go of every reference it will never use again, so a
closed connection is freed by reference counting even though the two
endpoints point at each other and the owners' callbacks usually capture
their socket: a closed endpoint drops its ``peer`` (it never sends
again); an endpoint drops its callbacks once it has delivered EOF (the
last thing it ever delivers); and when the second end of a connection
closes, the first end, closed and never to hear from it again, drops
its callbacks too.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import SimulationError
from repro.core.ids import IdAllocator
from repro.net.simnet import Host, Network
from repro.sim.engine import Engine


class TcpSocket:
    """One endpoint of an established simulated TCP connection."""

    def __init__(self, net: "TcpNetwork", host: Host, conn_id: str, role: str):
        self._net = net
        self.host = host
        self.conn_id = conn_id
        self.role = role  # 'client' or 'server'
        self.peer: Optional["TcpSocket"] = None
        self.closed = False
        self._recv_buffer: List[bytes] = []
        self._recv_callback: Optional[Callable[[bytes], None]] = None
        self._close_callback: Optional[Callable[[], None]] = None
        self._peer_closed = False
        self._flush_scheduled = False
        self._close_delivered = False

    # -- sending ------------------------------------------------------------

    def send(self, data: bytes) -> None:
        """Transmit ``data`` to the peer (arrives after network delays)."""
        if self.closed:
            raise SimulationError(f"send on closed socket {self.conn_id}")
        if not data:
            return
        peer = self.peer
        self._net.network.deliver(
            self.host, peer.host, len(data), peer._on_data, data
        )

    def close(self) -> None:
        """Close this endpoint; the peer sees EOF after one hop latency."""
        if self.closed:
            return
        self.closed = True
        peer, self.peer = self.peer, None
        if peer is None:
            return
        if not peer.closed:
            self._net.network.deliver(
                self.host, peer.host, 0, peer._on_peer_close
            )
        elif not peer._recv_buffer:
            # Both ends closed.  The peer closed first, so this end sends
            # it no EOF, and bytes still in flight to it are dropped
            # unread: none of its callbacks can fire again.
            peer._recv_callback = None
            peer._close_callback = None

    # -- receiving -------------------------------------------------------------

    def on_receive(self, callback: Callable[[bytes], None]) -> None:
        """Register the data callback.

        Buffered bytes flush on a deferred engine tick (never
        synchronously inside the registration call), so data and EOF
        delivery are both engine-ordered regardless of which callback
        the application registers first.
        """
        self._recv_callback = callback
        if self._recv_buffer and not self._flush_scheduled:
            self._flush_scheduled = True
            self._net.engine.schedule(0.0, self._flush_recv)

    def on_close(self, callback: Callable[[], None]) -> None:
        self._close_callback = callback
        self._maybe_deliver_close()

    def _flush_recv(self) -> None:
        self._flush_scheduled = False
        callback = self._recv_callback
        if callback is None:
            return  # keep buffering; a later on_receive reschedules
        pending, self._recv_buffer = self._recv_buffer, []
        for chunk in pending:
            callback(chunk)
        self._maybe_deliver_close()

    def _on_data(self, data: bytes) -> None:
        if self.closed:
            return  # locally closed: bytes still in flight are dropped
        if self._recv_callback is not None and not self._recv_buffer:
            self._recv_callback(data)
        else:
            self._recv_buffer.append(data)

    def _on_peer_close(self) -> None:
        if self._peer_closed:
            return
        self._peer_closed = True
        self._maybe_deliver_close()

    def _maybe_deliver_close(self) -> None:
        """Deliver EOF exactly once, deferred, and never while earlier
        bytes sit undelivered in the receive buffer (stream order)."""
        if (
            not self._peer_closed
            or self._close_delivered
            or self._close_callback is None
            or self._recv_buffer
        ):
            return
        self._close_delivered = True
        self._net.engine.schedule(0.0, self._close_callback)
        # EOF is the last event an endpoint delivers.
        self._recv_callback = None
        self._close_callback = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TcpSocket({self.conn_id}:{self.role}@{self.host.name})"


class TcpNetwork:
    """Listener registry and connection establishment over a Network."""

    def __init__(self, engine: Engine, network: Optional[Network] = None):
        self.engine = engine
        self.network = network if network is not None else Network(engine)
        self._listeners: Dict[Tuple[str, int], Callable[[TcpSocket], None]] = {}
        self._conn_ids = IdAllocator("conn")
        self.connections_established = 0

    # -- topology passthrough -------------------------------------------------

    def add_host(self, name: str, nic_rate_bps: float, segment: str = "core") -> Host:
        return self.network.add_host(name, nic_rate_bps, segment)

    # -- listening ---------------------------------------------------------------

    def listen(
        self, host: Host, port: int, on_accept: Callable[[TcpSocket], None]
    ) -> None:
        """Register an accept callback for (host, port)."""
        key = (host.name, port)
        if key in self._listeners:
            raise SimulationError(f"port {port} already bound on {host.name}")
        self._listeners[key] = on_accept

    # -- connecting ----------------------------------------------------------------

    def connect(
        self,
        src: Host,
        dst: Host,
        port: int,
        on_connected: Callable[[TcpSocket], None],
    ) -> None:
        """Three-way handshake: after ~1 RTT the acceptor receives the
        server socket and the caller receives the client socket."""
        key = (dst.name, port)
        acceptor = self._listeners.get(key)
        if acceptor is None:
            raise SimulationError(
                f"connection refused: nothing listening on {dst.name}:{port}"
            )
        conn_id = self._conn_ids.next_id()
        client = TcpSocket(self, src, conn_id, "client")
        server = TcpSocket(self, dst, conn_id, "server")
        client.peer = server
        server.peer = client

        def syn_arrived():
            # SYN-ACK travels back; connection usable at the client after
            # the full round trip, at the server on the final ACK.
            self.network.deliver(dst, src, 0, established)

        def established():
            self.connections_established += 1
            acceptor(server)
            on_connected(client)

        self.network.deliver(src, dst, 0, syn_arrived)
