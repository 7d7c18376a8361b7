"""Apache httpd cost model (worker MPM + mod_proxy_balancer).

Architecture: a thread per connection.  Beyond a comfortable thread
count, per-request cost grows with the number of active connections —
context switches, run-queue pressure and per-thread cache footprint —
which is why Apache's latency curve bends hardest of the three systems
at 800-1600 concurrent connections (Figure 4b/4d) and why it saturates
lowest (§6.3: 159k requests/s static, 35k/s non-persistent).
"""

from __future__ import annotations

from repro.baselines.base import BaselineHttpServer

#: Calibrated parameters (µs); fitted to §6's peaks, see docs/reproduction.md.
REQUEST_US = 80.0
CONN_SETUP_US = 180.0
LB_EXTRA_US = 110.0
THREAD_OVERHEAD_US_PER_CONN = 0.012


class ApacheServer(BaselineHttpServer):
    """Thread-per-connection server model."""

    name = "apache"

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
        # Context-switch and scheduling pressure grows with the number of
        # live threads (= active connections in the worker MPM).
        return self.active_connections * THREAD_OVERHEAD_US_PER_CONN * (
            1.0 + self.active_connections / 1200.0
        )
