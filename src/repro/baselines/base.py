"""Shared machinery for baseline (comparator) server models.

The paper compares FLICK against Apache, Nginx and Moxi — large C
programs we cannot run inside the simulator.  Each baseline is therefore
an explicit queueing/cost model of its concurrency architecture (see
docs/reproduction.md): a :class:`CorePool` of k FCFS cores serves requests whose
service time is the model's calibrated per-request CPU cost plus
architecture-specific overheads (thread context switching for Apache,
lock contention for Moxi, ...).

Unlike the FLICK platform, baselines keep **persistent backend
connections** (both Apache's ``mod_proxy`` and Nginx pool upstream
connections).  The paper gives this asymmetry as why kernel-FLICK loses
the non-persistent experiment (Figure 4c) while winning the persistent
one.  In this model a FLICK backend leg costs its first request the
handshake round trip, and the middlebox no connect CPU.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from repro.grammar.protocols import http
from repro.net.simnet import Host
from repro.net.tcp import TcpNetwork, TcpSocket
from repro.sim.engine import Engine


class CorePool:
    """k identical cores serving jobs FCFS (earliest-free-core)."""

    def __init__(self, engine: Engine, cores: int):
        if cores < 1:
            raise ValueError("need at least one core")
        self.engine = engine
        self.cores = cores
        self._free_at = [0.0] * cores

    def submit(self, service_us: float, callback: Callable[[], None]) -> float:
        """Queue a job of ``service_us``; returns its completion time."""
        now = self.engine.now
        idx = min(range(self.cores), key=self._free_at.__getitem__)
        start = max(now, self._free_at[idx])
        end = start + service_us
        self._free_at[idx] = end
        self.engine.at(end, callback)
        return end


class BaselineHttpServer:
    """Cost-model HTTP server/load-balancer base class.

    Subclasses (Apache, Nginx) supply the calibrated cost parameters via
    constructor arguments and their concurrency-model overhead via
    :meth:`request_overhead_us`.

    In **static** mode every request is answered locally with ``body``;
    in **lb** mode requests are forwarded to backends over persistent
    upstream connections chosen round-robin per client connection.
    """

    name = "baseline"

    def __init__(
        self,
        engine: Engine,
        tcpnet: TcpNetwork,
        host: Host,
        port: int,
        cores: int,
        request_us: float,
        conn_setup_us: float,
        lb_extra_us: float = 0.0,
        backends: Optional[List] = None,
        body: bytes = b"x" * 137,
    ):
        self.engine = engine
        self.tcpnet = tcpnet
        self.host = host
        self.cores = cores
        self.pool = CorePool(engine, cores)
        self.request_us = request_us
        self.conn_setup_us = conn_setup_us
        self.lb_extra_us = lb_extra_us
        self.backends = backends or []
        self.body = body
        self._response = http.make_response(body=body).raw  # the same every time
        self.active_connections = 0
        self.requests_served = 0
        self._upstreams = [
            Upstream(self, target, http.response_codec(()).parser())
            for target in self.backends
        ]
        self._next_backend = 0
        tcpnet.listen(host, port, self._accept)

    # -- concurrency-model hook ----------------------------------------------

    def request_overhead_us(self) -> float:
        """Extra per-request cost from the server's concurrency model."""
        return 0.0

    # -- connection handling -----------------------------------------------------

    def _accept(self, socket: TcpSocket) -> None:
        self.active_connections += 1
        parser = http.request_codec(http.KEEP_ALIVE_FIELDS).parser()
        # Each client connection sticks to one upstream, like a round-robin
        # balancer with keep-alive upstream pools.
        backend_idx = (
            self._next_backend % len(self.backends) if self.backends else -1
        )
        self._next_backend += 1
        state = {"setup_done": False}

        def on_data(data: bytes) -> None:
            parser.feed(data)
            for request in parser.messages():
                service = self.request_us + self.request_overhead_us()
                if not state["setup_done"]:
                    state["setup_done"] = True
                    service += self.conn_setup_us
                keep = http.wants_keep_alive(request)
                if backend_idx >= 0:
                    service += self.lb_extra_us
                    self.pool.submit(
                        service,
                        lambda k=keep: self._forward(socket, backend_idx, k),
                    )
                else:
                    self.pool.submit(
                        service, lambda k=keep: self._respond(socket, k)
                    )

        socket.on_receive(on_data)
        socket.on_close(self._on_close)

    def _on_close(self) -> None:
        self.active_connections = max(0, self.active_connections - 1)

    def _respond(self, socket: TcpSocket, keep_alive: bool) -> None:
        if socket.closed:
            return
        self.requests_served += 1
        socket.send(self._response)
        if not keep_alive:
            socket.close()

    # -- upstream (LB) path ----------------------------------------------------------

    def _forward(self, client: TcpSocket, backend_idx: int, keep: bool) -> None:
        if not client.closed:
            self._upstreams[backend_idx].forward(client, _UPSTREAM_REQUEST, keep)


#: What every upstream leg sends per forwarded request.
_UPSTREAM_REQUEST = http.make_request("GET", "/upstream", keep_alive=True).raw


class Upstream:
    """One persistent upstream connection with FIFO response matching,
    opened on the first :meth:`forward`, for any protocol: ``parser`` is
    a fresh reply parser.  Each reply goes back raw to the oldest waiting
    client (closed after it unless ``keep``) and counts in ``server``'s
    ``requests_served``; ``server`` also supplies ``tcpnet`` and ``host``.
    """

    def __init__(self, server, target, parser) -> None:
        self._server = server
        self._target = target  # OutboundTarget-like: .host / .port
        self._socket: Optional[TcpSocket] = None
        self._connecting = False
        self._send_queue: deque = deque()
        self._pending: deque = deque()  # (client socket, keep)
        self._parser = parser

    def forward(self, client: TcpSocket, raw: bytes, keep: bool = True) -> None:
        self._pending.append((client, keep))
        if self._socket is None:
            self._send_queue.append(raw)
            self._connect()
        else:
            self._socket.send(raw)

    def _connect(self) -> None:
        if self._connecting:
            return
        self._connecting = True

        def connected(socket: TcpSocket) -> None:
            self._socket = socket
            socket.on_receive(self._on_response)
            while self._send_queue:
                socket.send(self._send_queue.popleft())

        self._server.tcpnet.connect(
            self._server.host, self._target.host, self._target.port, connected
        )

    def _on_response(self, data: bytes) -> None:
        self._parser.feed(data)
        for response in self._parser.messages():
            if not self._pending:
                return
            client, keep = self._pending.popleft()
            if client.closed:
                continue
            self._server.requests_served += 1
            client.send(response.raw)
            if not keep:
                client.close()
