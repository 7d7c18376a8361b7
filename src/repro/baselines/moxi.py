"""Moxi cost model (multi-threaded Memcached proxy).

Moxi is multi-threaded with shared proxy state (the paper chose it
because "it supports the binary Memcached protocol and is
multi-threaded").  Its defining behaviour in Figure 5 is that throughput
peaks at 4 cores (~82k requests/s) and then *degrades* as threads contend
on common data structures; latency rises past the peak.  We model that
with a per-request lock-contention term that grows with the core count
beyond 4.
"""

from __future__ import annotations

from typing import List

from repro.baselines.base import CorePool, Upstream
from repro.core.ids import stable_hash
from repro.grammar.protocols import memcached as mc
from repro.net.simnet import Host
from repro.net.tcp import TcpNetwork, TcpSocket
from repro.sim.engine import Engine

#: Calibrated parameters (µs); fitted to §6's peaks, see docs/reproduction.md.
REQUEST_US = 44.0
CONN_SETUP_US = 120.0
CONTENTION_US_PER_CORE = 15.0
CONTENTION_FREE_CORES = 4


class MoxiProxy:
    """Multi-threaded Memcached proxy with shared-state contention."""

    name = "moxi"

    def __init__(
        self,
        engine: Engine,
        tcpnet: TcpNetwork,
        host: Host,
        port: int,
        backends: List,
        cores: int = 4,
    ):
        self.engine = engine
        self.tcpnet = tcpnet
        self.host = host
        self.cores = cores
        self.pool = CorePool(engine, cores)
        self.backends = backends
        self.requests_served = 0
        self._upstreams = [
            Upstream(self, target, mc.full_codec().parser())
            for target in backends
        ]
        tcpnet.listen(host, port, self._accept)

    def request_cost_us(self) -> float:
        contention = max(0, self.cores - CONTENTION_FREE_CORES)
        return REQUEST_US + contention * CONTENTION_US_PER_CORE

    def _accept(self, socket: TcpSocket) -> None:
        parser = mc.full_codec().parser()
        state = {"setup_done": False}

        def on_data(data: bytes) -> None:
            parser.feed(data)
            for request in parser.messages():
                service = self.request_cost_us()
                if not state["setup_done"]:
                    state["setup_done"] = True
                    service += CONN_SETUP_US
                self.pool.submit(
                    service, lambda r=request: self._route(socket, r)
                )

        socket.on_receive(on_data)

    def _route(self, client: TcpSocket, request) -> None:
        if client.closed:
            return
        raw = request.raw if request.raw is not None else mc.encode(request)
        index = stable_hash(request._fields["key"]) % len(self.backends)
        self._upstreams[index].forward(client, raw)
