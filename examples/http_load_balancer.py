#!/usr/bin/env python
"""HTTP load balancer on FLICK vs the Nginx cost model (Figure 4 slice).

Stands up the compiled FLICK balancer (kernel and mTCP stacks) and the
Nginx baseline in identical simulated testbeds — 10 web backends, 200
closed-loop keep-alive clients — and prints the throughput/latency
comparison with per-backend request counts demonstrating connection
stickiness.

Run:  python examples/http_load_balancer.py
"""

from repro.bench.testbeds import run_http_experiment
from repro.core.units import GBPS
from repro.net.tcp import TcpNetwork
from repro.runtime.costs import RuntimeConfig
from repro.runtime.graph import OutboundTarget
from repro.runtime.platform import FlickPlatform
from repro.apps import http_lb
from repro.sim.engine import Engine
from repro.workloads.backends import BackendWebServer
from repro.workloads.arrivals import ClientPopulation, HttpRequestCodec


def show_stickiness() -> None:
    """Each client connection sticks to one backend (hash of 4-tuple)."""
    engine = Engine()
    tcpnet = TcpNetwork(engine)
    mbox = tcpnet.add_host("mbox", 10 * GBPS, "core")
    clients = [tcpnet.add_host(f"c{i}", 1 * GBPS, "edge") for i in range(4)]
    backend_hosts = [
        tcpnet.add_host(f"b{i}", 1 * GBPS, "edge") for i in range(10)
    ]
    servers = [
        BackendWebServer(engine, tcpnet, host, 8080) for host in backend_hosts
    ]
    platform = FlickPlatform(
        engine, tcpnet, mbox, RuntimeConfig(cores=4),
        http_lb.http_codec_registry(),
    )
    platform.register_program(
        http_lb.compile_http_lb(), "HttpBalancer", 80,
        http_lb.lb_bindings(
            [OutboundTarget(host, 8080) for host in backend_hosts]
        ),
    )
    platform.start()
    population = ClientPopulation(
        engine, tcpnet, clients, mbox, 80, HttpRequestCodec(),
        connections=12, n_requests=15, warmup_requests=1,
    )
    population.start()
    engine.run()
    counts = [s.requests_served for s in servers]
    print("per-backend requests:", counts)
    print("(each count is a multiple of 15: connections stick to one backend)")


def compare_systems() -> None:
    print(f"{'system':14s} {'throughput':>12s} {'mean latency':>14s}")
    for system in ("flick-kernel", "flick-mtcp", "nginx", "apache"):
        result = run_http_experiment(
            system, 200, persistent=True, mode="lb", cores=16,
            requests_per_client=25,
        )
        print(
            f"{system:14s} {result.throughput:9.1f} k/s "
            f"{result.latency_ms:11.3f} ms"
        )


def main() -> None:
    print("== connection stickiness ==")
    show_stickiness()
    print("\n== throughput comparison (200 persistent clients, 16 cores) ==")
    compare_systems()


if __name__ == "__main__":
    main()
