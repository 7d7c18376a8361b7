"""Nginx cost model (event-driven worker processes).

Architecture: one event-loop worker per core, epoll-driven, so the
per-request cost is lower than Apache's and nearly independent of the
number of connections; concurrency only adds mild bookkeeping.  Nginx
pools upstream keep-alive connections, which keeps its non-persistent
numbers ahead of kernel-FLICK (Figure 4c) — exactly the comparison the
paper draws.
"""

from __future__ import annotations

from repro.baselines.base import BaselineHttpServer

#: Calibrated parameters (µs); fitted to §6's peaks, see docs/reproduction.md.
REQUEST_US = 59.0
CONN_SETUP_US = 180.0
LB_EXTRA_US = 55.0
EVENT_OVERHEAD_US_PER_CONN = 0.004


class NginxServer(BaselineHttpServer):
    """Event-driven server model."""

    name = "nginx"

    def __init__(self, engine, tcpnet, host, port, cores=16, backends=None,
                 body=b"x" * 137):
        super().__init__(
            engine,
            tcpnet,
            host,
            port,
            cores,
            request_us=REQUEST_US,
            conn_setup_us=CONN_SETUP_US,
            lb_extra_us=LB_EXTRA_US,
            backends=backends,
            body=body,
        )

    def request_overhead_us(self) -> float:
        return self.active_connections * EVENT_OVERHEAD_US_PER_CONN
