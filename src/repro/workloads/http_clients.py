"""ApacheBench-style closed-loop HTTP client population (section 6.2).

``N`` concurrent clients each issue one request, wait for the complete
response, then immediately issue the next (ab's concurrency model).  Two
modes match the paper's experiments:

* **persistent** — one connection per client, requests pipelined
  back-to-back over it (HTTP keep-alive);
* **non-persistent** — a fresh TCP connection per request (Figure 4c/4d),
  closed by the client after each response.

The population warms up for ``warmup_requests`` per client before the
measurement meter starts, and reports throughput/latency for the
measured window.
"""

from __future__ import annotations

from typing import List, Optional

from repro.grammar.protocols import http
from repro.net.simnet import Host
from repro.net.tcp import TcpNetwork, TcpSocket
from repro.sim.engine import Engine
from repro.sim.stats import LatencySeries, Meter


#: A client reads a response's status and body, nothing else.
_new_parser = http.response_codec(("status", "body")).parser


class HttpClientPopulation:
    """Closed-loop clients driving one target host:port."""

    def __init__(
        self,
        engine: Engine,
        tcpnet: TcpNetwork,
        client_hosts: List[Host],
        target: Host,
        port: int,
        concurrency: int,
        persistent: bool = True,
        requests_per_client: int = 50,
        warmup_requests: int = 5,
        path: str = "/index.html",
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.engine = engine
        self.tcpnet = tcpnet
        self.client_hosts = client_hosts
        self.target = target
        self.port = port
        self.concurrency = concurrency
        self.persistent = persistent
        self.requests_per_client = requests_per_client
        self.warmup_requests = warmup_requests
        self.path = path
        self.latency = LatencySeries()
        self.meter = Meter()
        self.errors = 0
        self._done_clients = 0
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise RuntimeError("population already started")
        self._started = True
        self.meter.begin(self.engine.now)
        for index in range(self.concurrency):
            host = self.client_hosts[index % len(self.client_hosts)]
            _Client(self, index, host).start()

    @property
    def finished(self) -> bool:
        return self._done_clients == self.concurrency

    def _client_done(self) -> None:
        self._done_clients += 1
        if self.finished:
            self.meter.finish(self.engine.now)

    # -- results -------------------------------------------------------------

    def kreqs_per_sec(self) -> float:
        return self.meter.kreqs_per_sec()

    def mean_latency_ms(self) -> float:
        return self.latency.mean_ms()


class _Client:
    """One closed-loop client."""

    def __init__(self, population: HttpClientPopulation, index: int, host: Host):
        self.pop = population
        self.index = index
        self.host = host
        self.sent = 0
        self.socket: Optional[TcpSocket] = None
        self.parser = _new_parser()
        self.request_started = 0.0

    def start(self) -> None:
        if self.pop.persistent:
            self._connect(self._send_next)
        else:
            self._next_request()

    # -- connection management -------------------------------------------------

    def _connect(self, then) -> None:
        def connected(socket: TcpSocket) -> None:
            self.socket = socket
            socket.on_receive(self._on_data)
            then()

        self.pop.tcpnet.connect(
            self.host, self.pop.target, self.pop.port, connected
        )

    # -- request loop --------------------------------------------------------------

    def _next_request(self) -> None:
        if self.sent >= self.pop.requests_per_client:
            self.pop._client_done()
            return
        if self.pop.persistent:
            self._send_next()
        else:
            self.parser = _new_parser()
            self._connect(self._send_next)

    def _send_next(self) -> None:
        request = http.make_request(
            "GET",
            f"{self.pop.path}?c={self.index}&n={self.sent}",
            keep_alive=self.pop.persistent,
        )
        self.request_started = self.pop.engine.now
        self.sent += 1
        self.socket.send(request.raw)

    def _on_data(self, data: bytes) -> None:
        self.parser.feed(data)
        for response in self.parser.messages():
            latency = self.pop.engine.now - self.request_started
            fields = response._fields
            if fields["status"] != 200:
                self.pop.errors += 1
            if self.sent > self.pop.warmup_requests:
                self.pop.latency.record(latency)
                self.pop.meter.add(len(fields["body"]))
            if not self.pop.persistent:
                self.socket.close()
                self.socket = None
            self._next_request()
            return
