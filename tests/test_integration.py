"""End-to-end integration tests: the three use cases through the full
platform (compiled FLICK programs, codecs, scheduler, simulated TCP)."""

from repro.apps import hadoop_agg, http_lb, memcached_proxy
from repro.core.units import GBPS
from repro.net.tcp import TcpNetwork
from repro.runtime.costs import GRAPH_RECYCLE_US, RuntimeConfig
from repro.runtime.graph import OutboundTarget
from repro.runtime.platform import FlickPlatform
from repro.sim.engine import Engine
from repro.workloads.backends import BackendMemcachedServer, BackendWebServer
from repro.workloads.hadoop_mappers import (
    Mapper,
    ReducerSink,
    generate_mapper_output,
    reference_wordcount,
)
from repro.workloads.arrivals import (
    ClientPopulation,
    HttpRequestCodec,
    MemcachedRequestCodec,
)


def _topology(n_clients=4, n_backends=4):
    engine = Engine()
    net = TcpNetwork(engine)
    mbox = net.add_host("mbox", 10 * GBPS, "core")
    clients = [net.add_host(f"c{i}", 1 * GBPS, "edge") for i in range(n_clients)]
    backends = [net.add_host(f"b{i}", 1 * GBPS, "edge") for i in range(n_backends)]
    return engine, net, mbox, clients, backends


class TestStaticWeb:
    def _run(self, stack="kernel", persistent=True, concurrency=12):
        engine, net, mbox, clients, _ = _topology()
        platform = FlickPlatform(
            engine, net, mbox, RuntimeConfig(cores=4, stack=stack),
            http_lb.http_codec_registry(),
        )
        platform.register_program(http_lb.compile_static_web(), "StaticWeb", 80)
        platform.start()
        pop = ClientPopulation(
            engine, net, clients, mbox, 80, HttpRequestCodec(), 12,
            connections=concurrency, warmup_requests=2, persistent=persistent,
        )
        pop.start()
        engine.run()
        return pop

    def test_all_requests_answered(self):
        pop = self._run()
        assert pop.finished and pop.errors == 0
        assert pop.latency.count > 0

    def test_response_body_is_static_content(self):
        engine, net, mbox, clients, _ = _topology()
        platform = FlickPlatform(
            engine, net, mbox, RuntimeConfig(cores=2),
            http_lb.http_codec_registry(),
        )
        platform.register_program(http_lb.compile_static_web(), "StaticWeb", 80)
        platform.start()
        from repro.grammar.protocols import http as hp

        bodies = []

        def go(sock):
            parser = hp.HttpResponseParser()

            def on_data(d):
                parser.feed(d)
                for r in parser.messages():
                    bodies.append(r.body)

            sock.on_receive(on_data)
            sock.send(hp.make_request("GET", "/x").raw)

        net.connect(clients[0], mbox, 80, go)
        engine.run()
        assert len(bodies) == 1
        assert len(bodies[0]) == 137

    def test_non_persistent_mode(self):
        pop = self._run(persistent=False, concurrency=6)
        assert pop.finished and pop.errors == 0

    def test_mtcp_is_faster(self):
        kernel = self._run(stack="kernel")
        mtcp = self._run(stack="mtcp")
        assert mtcp.kreqs_per_sec() > kernel.kreqs_per_sec()


class TestHttpLoadBalancer:
    def _run(self, concurrency=10, persistent=True):
        engine, net, mbox, clients, backend_hosts = _topology()
        servers = [BackendWebServer(engine, net, b, 8080) for b in backend_hosts]
        platform = FlickPlatform(
            engine, net, mbox, RuntimeConfig(cores=4),
            http_lb.http_codec_registry(),
        )
        targets = [OutboundTarget(b, 8080) for b in backend_hosts]
        platform.register_program(
            http_lb.compile_http_lb(), "HttpBalancer", 80,
            http_lb.lb_bindings(targets),
        )
        platform.start()
        pop = ClientPopulation(
            engine, net, clients, mbox, 80, HttpRequestCodec(), 10,
            connections=concurrency, warmup_requests=1, persistent=persistent,
        )
        pop.start()
        engine.run()
        return pop, servers

    def test_requests_reach_backends_and_return(self):
        pop, servers = self._run()
        assert pop.finished and pop.errors == 0
        assert sum(s.requests_served for s in servers) == 10 * 10

    def test_connection_stickiness(self):
        """All requests of one connection go to one backend (§6.1)."""
        pop, servers = self._run(concurrency=8)
        for served in (s.requests_served for s in servers):
            assert served % 10 == 0

    def test_load_spreads_over_backends(self):
        pop, servers = self._run(concurrency=40)
        used = sum(1 for s in servers if s.requests_served > 0)
        assert used >= 2

    def test_non_persistent_connections(self):
        pop, servers = self._run(concurrency=6, persistent=False)
        assert pop.finished and pop.errors == 0


class TestHostileInput:
    """Malformed bytes cost their own connection, never the platform:
    the input task that cannot parse them ends that connection through
    the graph's close, as an EOF on it would."""

    def test_a_chunked_request_ends_only_its_connection(self):
        from repro.grammar.protocols import http

        engine, net, mbox, (good_host, bad_host), _ = _topology(2, 0)
        platform = FlickPlatform(
            engine, net, mbox, RuntimeConfig(cores=2), http_lb.http_codec_registry()
        )
        platform.register_program(http_lb.compile_static_web(), "StaticWeb", 80)
        platform.start()
        replies, bad_closed = [], []

        def good(sock):
            parser = http.HttpResponseParser()

            def on_data(data):
                parser.feed(data)
                replies.extend(parser.messages())

            sock.on_receive(on_data)
            sock.send(http.make_request("GET", "/0").raw)
            for i in range(1, 50):  # 100 us apart on the clock
                engine.at(i * 100.0, sock.send, http.make_request("GET", f"/{i}").raw)

        def bad(sock):
            hostile = b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            sock.on_close(lambda: bad_closed.append(engine.now))
            engine.at(2000.0, sock.send, hostile)

        net.connect(good_host, mbox, 80, good)
        net.connect(bad_host, mbox, 80, bad)
        engine.run()
        # Before, the ParseError escaped engine.run() at t = 2036.45 µs
        # with 20 of the good client's 50 replies in.  Now the platform
        # closes the bad connection, once, and serves the good one.
        assert len(replies) == 50
        assert [round(at, 1) for at in bad_closed] == [2166.2]


class TestMemcachedProxy:
    def _run(self, cache_router=False, key_space=40, requests=15):
        engine, net, mbox, clients, backend_hosts = _topology()
        servers = [
            BackendMemcachedServer(engine, net, b, 11211) for b in backend_hosts
        ]
        program = (
            memcached_proxy.compile_cache_router()
            if cache_router
            else memcached_proxy.compile_proxy()
        )
        proc = "memcached" if cache_router else "Memcached"
        platform = FlickPlatform(
            engine, net, mbox, RuntimeConfig(cores=4),
            memcached_proxy.memcached_codec_registry(program),
        )
        platform.register_program(
            program, proc, 11211,
            memcached_proxy.proxy_bindings(
                [OutboundTarget(b, 11211) for b in backend_hosts]
            ),
        )
        platform.start()
        pop = ClientPopulation(
            engine, net, clients, mbox, 11211,
            MemcachedRequestCodec(key_space), connections=16,
            n_requests=requests, warmup_requests=2,
        )
        pop.start()
        engine.run()
        return pop, servers

    def test_proxy_routes_all_requests(self):
        pop, servers = self._run()
        assert pop.finished and pop.errors == 0
        assert sum(s.requests_served for s in servers) == 16 * 15

    def test_key_space_partitioned(self):
        """Each key is always served by the same backend shard."""
        pop, servers = self._run(key_space=8)
        # 8 distinct keys over 4 backends: at most 8 shards touched, and
        # every request for a key lands on one backend (hash-stable).
        assert sum(s.requests_served for s in servers) == 16 * 15

    def test_cache_router_reduces_backend_traffic(self):
        plain, plain_servers = self._run(cache_router=False, key_space=10)
        cached, cached_servers = self._run(cache_router=True, key_space=10)
        plain_hits = sum(s.requests_served for s in plain_servers)
        cached_hits = sum(s.requests_served for s in cached_servers)
        assert cached_hits < plain_hits / 3
        assert cached.errors == 0

    def test_cache_router_cuts_unloaded_latency(self):
        """Serving hits from the in-network cache removes the backend
        round trip, so an unloaded client sees lower latency (the point
        of Listing 1).  Under proxy *saturation* the plain proxy can win
        on throughput because its response path is raw-forwarded, so the
        assertion is on light-load latency."""
        plain = self._run_single_client(cache_router=False)
        cached = self._run_single_client(cache_router=True)
        assert cached < plain * 0.9

    def _run_single_client(self, cache_router):
        engine, net, mbox, clients, backend_hosts = _topology(n_clients=1)
        servers = [
            BackendMemcachedServer(engine, net, b, 11211) for b in backend_hosts
        ]
        program = (
            memcached_proxy.compile_cache_router()
            if cache_router
            else memcached_proxy.compile_proxy()
        )
        proc = "memcached" if cache_router else "Memcached"
        platform = FlickPlatform(
            engine, net, mbox, RuntimeConfig(cores=4),
            memcached_proxy.memcached_codec_registry(program),
        )
        platform.register_program(
            program, proc, 11211,
            memcached_proxy.proxy_bindings(
                [OutboundTarget(b, 11211) for b in backend_hosts]
            ),
        )
        platform.start()
        pop = ClientPopulation(
            engine, net, clients, mbox, 11211, MemcachedRequestCodec(1),
            connections=1, n_requests=20, warmup_requests=2,
        )
        pop.start()
        engine.run()
        del servers
        return pop.latency.mean_us()


class TestHadoopAggregator:
    def _run(self, n_mappers=4, cores=4, native=True, kb=12):
        engine = Engine()
        net = TcpNetwork(engine)
        mbox = net.add_host("mbox", 10 * GBPS, "core")
        reducer = net.add_host("reducer", 10 * GBPS, "core")
        mhosts = [net.add_host(f"m{i}", 1 * GBPS, "edge") for i in range(n_mappers)]
        sink = ReducerSink(engine, net, reducer, 9000)
        platform = FlickPlatform(
            engine, net, mbox, RuntimeConfig(cores=cores),
            hadoop_agg.hadoop_codec_registry(),
        )
        platform.register_program(
            hadoop_agg.compile_hadoop(), "hadoop", 9100,
            hadoop_agg.hadoop_bindings(reducer, 9000, n_mappers, native=native),
        )
        platform.start()
        outputs = [
            generate_mapper_output(i, kb * 1024, 8, vocabulary=64)
            for i in range(n_mappers)
        ]
        mappers = [
            Mapper(engine, net, h, mbox, 9100, out)
            for h, out in zip(mhosts, outputs)
        ]
        for m in mappers:
            m.start()
        engine.run()
        return sink, outputs

    def test_wordcount_exact(self):
        sink, outputs = self._run()
        assert sink.counts() == reference_wordcount(outputs)

    def test_output_sorted_unique(self):
        sink, _ = self._run()
        keys = [k for k, _ in sink.pairs]
        assert keys == sorted(set(keys))

    def test_interpreted_combine_matches_native(self):
        native_sink, outputs = self._run(native=True)
        interp_sink, outputs2 = self._run(native=False)
        assert native_sink.counts() == interp_sink.counts()

    def test_odd_mapper_count(self):
        sink, outputs = self._run(n_mappers=3)
        assert sink.counts() == reference_wordcount(outputs)

    def test_single_mapper(self):
        sink, outputs = self._run(n_mappers=1)
        assert sink.counts() == reference_wordcount(outputs)

    def test_data_reduction(self):
        sink, outputs = self._run(n_mappers=4)
        total_in = sum(len(o) for o in outputs)
        assert len(sink.pairs) < total_in  # combiner shrank the stream


class TestPlatformBehaviour:
    def test_graph_pool_reused_across_connections(self):
        engine, net, mbox, clients, _ = _topology()
        platform = FlickPlatform(
            engine, net, mbox,
            RuntimeConfig(cores=2, graph_pool_size=4),
            http_lb.http_codec_registry(),
        )
        instance = platform.register_program(
            http_lb.compile_static_web(), "StaticWeb", 80
        )
        dispatcher = instance.graph_dispatcher
        costs = []
        assign_cost_us = dispatcher.assign_cost_us

        def recorded():
            costs.append(assign_cost_us())
            return costs[-1]

        dispatcher.assign_cost_us = recorded
        platform.start()
        pop = ClientPopulation(
            engine, net, clients, mbox, 80, HttpRequestCodec(), connections=3,
            n_requests=6, warmup_requests=1, persistent=False,
        )
        pop.start()
        engine.run()
        # More connections than pooled graphs, and every one recycled:
        # finished graphs went back to the pool.
        assert len(costs) > 4
        assert set(costs) == {GRAPH_RECYCLE_US}

    def test_globals_shared_across_graphs(self):
        """The Listing 1 cache is per-process: a response cached via one
        client connection serves hits arriving on another."""
        engine, net, mbox, clients, backend_hosts = _topology()
        servers = [
            BackendMemcachedServer(engine, net, b, 11211) for b in backend_hosts
        ]
        program = memcached_proxy.compile_cache_router()
        platform = FlickPlatform(
            engine, net, mbox, RuntimeConfig(cores=2),
            memcached_proxy.memcached_codec_registry(program),
        )
        platform.register_program(
            program, "memcached", 11211,
            memcached_proxy.proxy_bindings(
                [OutboundTarget(b, 11211) for b in backend_hosts]
            ),
        )
        platform.start()
        pop = ClientPopulation(
            engine, net, clients, mbox, 11211, MemcachedRequestCodec(1),
            connections=8, n_requests=20, warmup_requests=1,
        )
        pop.start()
        engine.run()
        # One key: exactly one backend fetch, everything else cache hits.
        assert sum(s.requests_served for s in servers) <= 8
        assert pop.errors == 0

    def test_deterministic_runs(self):
        def run_once():
            engine, net, mbox, clients, _ = _topology()
            platform = FlickPlatform(
                engine, net, mbox, RuntimeConfig(cores=2),
                http_lb.http_codec_registry(),
            )
            platform.register_program(
                http_lb.compile_static_web(), "StaticWeb", 80
            )
            platform.start()
            pop = ClientPopulation(
                engine, net, clients, mbox, 80, HttpRequestCodec(), 8,
                connections=6, warmup_requests=1,
            )
            pop.start()
            engine.run()
            return engine.now, pop.kreqs_per_sec()

        assert run_once() == run_once()
