"""Simulated backend servers (never the bottleneck, per section 6.2).

The evaluation deploys 10 Apache web servers / 10 Memcached servers
behind the middlebox; their own CPU is explicitly provisioned so they do
not limit throughput, so these models respond after a small fixed service
delay rather than contending for simulated cores.

Fault injection (:mod:`repro.net.faults`) hooks in at two points shared
by both servers via :class:`_FaultableBackend`: ``service_scale`` (a
callable of the virtual clock multiplying the service delay — the
``slow-backend`` injector) and ``set_up`` (up/down state that resets
every accepted connection on the way down and refuses connects while
down — the ``flapping-backend`` injector).  Both default to the
fault-free behaviour the paper models.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.grammar.protocols import http
from repro.grammar.protocols import memcached as mc
from repro.net.simnet import Host
from repro.net.tcp import TcpNetwork, TcpSocket
from repro.sim.engine import Engine


class _FaultableBackend:
    """Shared up/down state + service-time scaling for backend models.

    The live set holds exactly the accepted sockets neither side has
    closed: a socket leaves it when the peer's EOF arrives *or* when the
    server closes it itself (:meth:`_close`).  The second half matters
    because an endpoint that closed first never hears the peer's EOF —
    with ``Connection: close`` the server always closes first, and a
    socket remembered past that point pins the peer socket, its input
    task and through them the whole finished task graph.

    The server's data and close callbacks capture their socket, a cycle
    that the socket itself breaks (:mod:`repro.net.tcp`): it drops both
    callbacks once it has delivered the peer's EOF, or, when the server
    closed first, once the peer closes too.  So a socket the server has
    let go of is freed by reference counting, with its parser.
    """

    def __init__(self, engine: Engine, service_us: float):
        self.engine = engine
        self.service_us = service_us
        self.requests_served = 0
        #: Fault hook: virtual-clock → service-time multiplier (``None``
        #: = nominal service).  Set by the ``slow-backend`` injector.
        self.service_scale: Optional[Callable[[float], float]] = None
        #: Responses ``service_scale`` slowed (multiplier above 1).
        self.inflated_responses = 0
        #: Whether the server accepts and answers (``set_up`` flips it).
        self.up = True
        #: Connections reset by going down / refused while down.
        self.connections_reset = 0
        #: Open accepted sockets, in accept order (dict as ordered set).
        self._live_sockets: Dict[TcpSocket, None] = {}

    def _service_delay(self) -> float:
        if self.service_scale is None:
            return self.service_us
        scale = self.service_scale(self.engine.now)
        if scale != 1.0:
            self.inflated_responses += 1
        return self.service_us * scale

    def _track(self, socket: TcpSocket) -> bool:
        """Admit ``socket`` into the live set; reset it if down."""
        if not self.up:
            self.connections_reset += 1
            socket.close()
            return False
        self._live_sockets[socket] = None
        socket.on_close(lambda: self._live_sockets.pop(socket, None))
        return True

    def _close(self, socket: TcpSocket) -> None:
        """Close ``socket`` from the server side and let go of it."""
        self._live_sockets.pop(socket, None)
        socket.close()

    def set_up(self, up: bool) -> None:
        """Flip server availability; going down resets live connections."""
        if up == self.up:
            return
        self.up = up
        if not up:
            live, self._live_sockets = self._live_sockets, {}
            for socket in live:
                self.connections_reset += 1
                socket.close()


class BackendWebServer(_FaultableBackend):
    """Responds to every HTTP request with a fixed payload."""

    def __init__(
        self,
        engine: Engine,
        tcpnet: TcpNetwork,
        host: Host,
        port: int = 8080,
        body: bytes = b"x" * 137,
        service_us: float = 15.0,
    ):
        super().__init__(engine, service_us)
        self.host = host
        self.body = body
        self._response = http.make_response(body=body).raw  # the same every time
        tcpnet.listen(host, port, self._accept)

    def _accept(self, socket: TcpSocket) -> None:
        if not self._track(socket):
            return
        parser = http.request_codec(http.KEEP_ALIVE_FIELDS).parser()

        def on_data(data: bytes) -> None:
            parser.feed(data)
            for request in parser.messages():
                self.requests_served += 1
                close = not http.wants_keep_alive(request)
                self.engine.schedule(
                    self._service_delay(),
                    self._respond,
                    socket,
                    self._response,
                    close,
                )

        socket.on_receive(on_data)

    def _respond(self, socket: TcpSocket, raw: bytes, close: bool) -> None:
        if socket.closed:
            return
        socket.send(raw)
        if close:
            self._close(socket)


class BackendMemcachedServer(_FaultableBackend):
    """A Memcached server owning one shard of the key space.

    GETK requests are answered with a value derived from the key via
    ``value_fn`` (deterministic, so tests can verify end-to-end content).
    """

    def __init__(
        self,
        engine: Engine,
        tcpnet: TcpNetwork,
        host: Host,
        port: int = 11211,
        value_fn: Optional[Callable[[str], bytes]] = None,
        service_us: float = 8.0,
    ):
        super().__init__(engine, service_us)
        self.host = host
        self.value_fn = value_fn or (lambda key: f"value-of-{key}".encode())
        self.store: Dict[str, bytes] = {}
        tcpnet.listen(host, port, self._accept)

    def _accept(self, socket: TcpSocket) -> None:
        if not self._track(socket):
            return
        parser = mc.full_codec().parser()

        def on_data(data: bytes) -> None:
            parser.feed(data)
            for request in parser.messages():
                self.requests_served += 1
                self.engine.schedule(
                    self._service_delay(), self._respond, socket, request
                )

        socket.on_receive(on_data)

    def _respond(self, socket: TcpSocket, request) -> None:
        if socket.closed:
            return
        fields = request._fields
        opcode = fields["opcode"]
        key = fields["key"]
        if opcode == mc.OP_SET:
            self.store[key] = bytes(fields["value"])
            response = mc.make_response(
                opcode, key, b"", opaque=fields["opaque"]
            )
        else:
            value = self.store.get(key)
            if value is None:
                value = self.value_fn(key)
            response = mc.make_response(
                opcode, key, value, opaque=fields["opaque"]
            )
        socket.send(mc.encode(response))
