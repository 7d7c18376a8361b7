#!/usr/bin/env python
"""The paper's flagship example: the Memcached cache router (Listing 1).

Runs the full Listing-1 program — GETK responses are cached in
process-global state; future hits are answered from inside the network —
against 4 Memcached backend shards and a population of clients with a
skewed key space, then reports the cache's effect on backend traffic.

Run:  python examples/memcached_router.py
"""

from repro import Engine, FlickPlatform, RuntimeConfig
from repro.apps import memcached_proxy
from repro.core.units import GBPS
from repro.net.tcp import TcpNetwork
from repro.runtime.graph import OutboundTarget
from repro.workloads.backends import BackendMemcachedServer
from repro.workloads.arrivals import ClientPopulation, MemcachedRequestCodec

N_BACKENDS = 4
N_CLIENTS = 32
REQUESTS_PER_CLIENT = 30
KEY_SPACE = 40  # hot keys: every key is requested ~24 times


def run(cache_router: bool):
    engine = Engine()
    tcpnet = TcpNetwork(engine)
    mbox = tcpnet.add_host("mbox", 10 * GBPS, "core")
    client_hosts = [
        tcpnet.add_host(f"client{i}", 1 * GBPS, "edge") for i in range(8)
    ]
    backend_hosts = [
        tcpnet.add_host(f"backend{i}", 1 * GBPS, "edge")
        for i in range(N_BACKENDS)
    ]
    servers = [
        BackendMemcachedServer(engine, tcpnet, host, 11211)
        for host in backend_hosts
    ]

    if cache_router:
        program = memcached_proxy.compile_cache_router()
        proc_name = "memcached"
    else:
        program = memcached_proxy.compile_proxy()
        proc_name = "Memcached"

    platform = FlickPlatform(
        engine, tcpnet, mbox, RuntimeConfig(cores=4),
        memcached_proxy.memcached_codec_registry(program),
    )
    platform.register_program(
        program, proc_name, 11211,
        memcached_proxy.proxy_bindings(
            [OutboundTarget(host, 11211) for host in backend_hosts]
        ),
    )
    platform.start()

    population = ClientPopulation(
        engine, tcpnet, client_hosts, mbox, 11211,
        MemcachedRequestCodec(KEY_SPACE), connections=N_CLIENTS,
        n_requests=REQUESTS_PER_CLIENT, warmup_requests=2,
    )
    population.start()
    engine.run()
    assert population.finished and population.errors == 0
    backend_requests = sum(s.requests_served for s in servers)
    return population, backend_requests


def main() -> None:
    total = N_CLIENTS * REQUESTS_PER_CLIENT
    print(f"workload: {N_CLIENTS} clients x {REQUESTS_PER_CLIENT} GETK "
          f"requests over {KEY_SPACE} hot keys, {N_BACKENDS} backend shards")
    for label, cache_router in (("plain proxy", False), ("cache router", True)):
        population, backend_requests = run(cache_router)
        hit_rate = 1.0 - backend_requests / total
        print(
            f"{label:13s} backend requests: {backend_requests:4d} / {total}"
            f"  (cache hit rate {hit_rate:5.1%})"
            f"  mean latency {population.latency.mean_us():6.1f} us"
        )


if __name__ == "__main__":
    main()
