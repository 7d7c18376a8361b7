"""Baseline server models and workload generators."""

import hashlib

import pytest

from repro.baselines.apache import ApacheServer
from repro.baselines.base import CorePool
from repro.baselines.moxi import MoxiProxy
from repro.baselines.nginx import NginxServer
from repro.bench import testbeds
from repro.core.ids import stable_hash
from repro.core.units import GBPS
from repro.grammar.protocols import hadoop
from repro.net.tcp import TcpNetwork
from repro.runtime.graph import OutboundTarget
from repro.sim.engine import Engine
from repro.workloads.arrivals import (
    ClientPopulation,
    HttpRequestCodec,
    MemcachedRequestCodec,
)
from repro.workloads.backends import BackendMemcachedServer, BackendWebServer
from repro.workloads.hadoop_mappers import (
    generate_mapper_output,
    make_vocabulary,
    make_word,
    mapper_pairs,
)


class TestCorePool:
    def test_serial_on_one_core(self):
        engine = Engine()
        pool = CorePool(engine, 1)
        done = []
        pool.submit(10, lambda: done.append(engine.now))
        pool.submit(10, lambda: done.append(engine.now))
        engine.run()
        assert done == [10, 20]

    def test_parallel_on_two_cores(self):
        engine = Engine()
        pool = CorePool(engine, 2)
        done = []
        pool.submit(10, lambda: done.append(engine.now))
        pool.submit(10, lambda: done.append(engine.now))
        engine.run()
        assert done == [10, 10]

    def test_jobs_fill_every_core_before_queueing(self):
        engine = Engine()
        pool = CorePool(engine, 4)
        ends = [pool.submit(5, lambda: None) for _ in range(8)]
        engine.run()
        assert ends == [5] * 4 + [10] * 4


def _topology():
    engine = Engine()
    net = TcpNetwork(engine)
    mbox = net.add_host("mbox", 10 * GBPS, "core")
    clients = [net.add_host(f"c{i}", 1 * GBPS, "edge") for i in range(4)]
    backends = [net.add_host(f"b{i}", 1 * GBPS, "edge") for i in range(4)]
    return engine, net, mbox, clients, backends


class TestHttpBaselines:
    @pytest.mark.parametrize("server_cls", [ApacheServer, NginxServer])
    def test_static_mode_serves_requests(self, server_cls):
        engine, net, mbox, clients, _ = _topology()
        server = server_cls(engine, net, mbox, 80, cores=4)
        pop = ClientPopulation(
            engine, net, clients, mbox, 80, HttpRequestCodec(), 10,
            connections=8, warmup_requests=1,
        )
        pop.start()
        engine.run()
        assert pop.finished and pop.errors == 0
        assert server.requests_served == 8 * 10

    @pytest.mark.parametrize("server_cls", [ApacheServer, NginxServer])
    def test_lb_mode_forwards_to_backends(self, server_cls):
        engine, net, mbox, clients, backend_hosts = _topology()
        backends = [BackendWebServer(engine, net, b, 8080) for b in backend_hosts]
        targets = [OutboundTarget(b, 8080) for b in backend_hosts]
        server_cls(engine, net, mbox, 80, cores=4, backends=targets)
        pop = ClientPopulation(
            engine, net, clients, mbox, 80, HttpRequestCodec(), 8,
            connections=6, warmup_requests=1,
        )
        pop.start()
        engine.run()
        assert pop.finished and pop.errors == 0
        assert sum(b.requests_served for b in backends) == 6 * 8

    def test_nginx_faster_than_apache(self):
        def run(server_cls):
            engine, net, mbox, clients, _ = _topology()
            server_cls(engine, net, mbox, 80, cores=8)
            pop = ClientPopulation(
                engine, net, clients, mbox, 80, HttpRequestCodec(), 15,
                connections=40, warmup_requests=2,
            )
            pop.start()
            engine.run()
            return pop.kreqs_per_sec()

        assert run(NginxServer) > run(ApacheServer)

    def test_apache_degrades_with_concurrency(self):
        engine, net, mbox, clients, _ = _topology()
        server = ApacheServer(engine, net, mbox, 80, cores=4)
        server.active_connections = 1600
        high = server.request_overhead_us()
        server.active_connections = 100
        low = server.request_overhead_us()
        assert high > 10 * low

    def test_a_client_close_releases_its_connection(self):
        engine, net, mbox, clients, _ = _topology()
        server = NginxServer(engine, net, mbox, 80, cores=4)
        net.connect(clients[0], mbox, 80, lambda socket: socket.close())
        engine.run()
        assert server.active_connections == 0 and server.requests_served == 0


class TestMoxi:
    def test_routes_and_responds(self):
        engine, net, mbox, clients, backend_hosts = _topology()
        backends = [
            BackendMemcachedServer(engine, net, b, 11211)
            for b in backend_hosts
        ]
        targets = [OutboundTarget(b, 11211) for b in backend_hosts]
        MoxiProxy(engine, net, mbox, 11211, targets, cores=4)
        pop = ClientPopulation(
            engine, net, clients, mbox, 11211, MemcachedRequestCodec(32),
            10, connections=8, warmup_requests=1,
        )
        pop.start()
        engine.run()
        assert pop.finished and pop.errors == 0
        assert sum(b.requests_served for b in backends) == 8 * 10

    def test_contention_grows_past_four_cores(self):
        engine, net, mbox, _, backend_hosts = _topology()
        targets = [OutboundTarget(b, 11211) for b in backend_hosts]
        BackendMemcachedServer(engine, net, backend_hosts[0], 11211)
        four = MoxiProxy(engine, net, mbox, 11211, targets, cores=4)
        sixteen = MoxiProxy(engine, net, mbox, 11212, targets, cores=16)
        assert sixteen.request_cost_us() > four.request_cost_us()


class TestWorkloadGenerators:
    def test_make_word_length_and_determinism(self):
        """``make_word`` folds from prefixes; its words are the ones
        whole-tuple hashes give.  Past ~13 chars a word's hash runs out
        (26**14 > 2**64), so 16-char words take the ``"more"`` re-hash."""

        def tuple_word(index, word_len):
            h = stable_hash(("word", index, word_len))
            chars = []
            for _ in range(word_len):
                chars.append("abcdefghijklmnopqrstuvwxyz"[h % 26])
                h //= 26
                if h == 0:
                    h = stable_hash(("more", index, len(chars)))
            return "".join(chars)

        for n in (1, 8, 12, 13, 14, 16, 30):
            for index in (0, 7, 4095, 2 ** 63):
                word = make_word(index, n)
                assert len(word) == n and word == tuple_word(index, n)

    def test_mapper_output_sorted_unique(self):
        pairs = generate_mapper_output(0, 8_000, 8, vocabulary=64)
        keys = [k for k, _ in pairs]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_mapper_output_word_length(self):
        pairs = generate_mapper_output(1, 4_000, 12, vocabulary=32)
        assert all(len(k) == 12 for k, _ in pairs)

    def test_mapper_outputs_differ_by_index(self):
        a = generate_mapper_output(0, 4_000, 8, vocabulary=64)
        b = generate_mapper_output(1, 4_000, 8, vocabulary=64)
        assert a != b

    #: sha256 of eight mappers' wire payloads in mapper order, 48 KiB
    #: each over a 4,096-word vocabulary (the hadoop-agg job), pinned
    #: while every mapper still built the vocabulary itself and still
    #: hashed each pair's two tuples whole.
    MAPPER_INPUT_SHA256 = {
        8: "cbaea33e13864d547b803a0caa17901678510e34401fd06f683ffcb31383c77d",
        12: "fff439493105efcbf0f9275ff70d720bfaf466e620feaa41df06f939ea72f05c",
        16: "bcd6423afc8f9dae3c149bcd82cfdc02b3c12be0e0c997b840209a66c6a14a28",
    }

    @pytest.mark.parametrize("word_len", sorted(MAPPER_INPUT_SHA256))
    def test_mapper_input_is_pinned(self, word_len):
        """The synthesis (one vocabulary, then each mapper's pairs), the
        public generator and the job's mappers give the same bytes."""
        words = make_vocabulary(4096, word_len)
        synthesised, public = hashlib.sha256(), hashlib.sha256()
        for i in range(8):
            synthesised.update(hadoop.encode_pairs(
                mapper_pairs(i, 48 * 1024, words)
            ))
            public.update(hadoop.encode_pairs(
                generate_mapper_output(i, 48 * 1024, word_len, vocabulary=4096)
            ))
        assert synthesised.hexdigest() == self.MAPPER_INPUT_SHA256[word_len]
        assert public.hexdigest() == self.MAPPER_INPUT_SHA256[word_len]
        engine = Engine()
        net = TcpNetwork(engine)
        job = testbeds._MapperJob(
            testbeds.Scenario(app="hadoop_agg", word_len=word_len),
            engine, net, net.add_host("mbox", 10 * GBPS, "core"), 9100, None,
        )
        per_job = hashlib.sha256(b"".join(m.payload for m in job.mappers))
        assert per_job.hexdigest() == self.MAPPER_INPUT_SHA256[word_len]

    def test_backend_web_server_closes_non_keepalive(self):
        engine, net, mbox, clients, backend_hosts = _topology()
        server = BackendWebServer(engine, net, backend_hosts[0], 8080)
        from repro.grammar.protocols import http

        closed = []

        def go(sock):
            sock.on_receive(lambda d: None)
            sock.on_close(lambda: closed.append(True))
            sock.send(http.make_request("GET", "/", keep_alive=False).raw)

        net.connect(clients[0], backend_hosts[0], 8080, go)
        engine.run()
        assert closed == [True]
        assert server.requests_served == 1

    def test_memcached_backend_set_then_get(self):
        engine, net, mbox, clients, backend_hosts = _topology()
        _server = BackendMemcachedServer(engine, net, backend_hosts[0], 11211)
        from repro.grammar.protocols import memcached as mc

        got = []

        def go(sock):
            parser = mc.full_codec().parser()

            def on_data(d):
                parser.feed(d)
                for rec in parser.messages():
                    got.append(rec)

            sock.on_receive(on_data)
            sock.send(mc.encode(mc.make_request(mc.OP_SET, "k", b"stored")))
            sock.send(mc.encode(mc.make_request(mc.OP_GETK, "k")))

        net.connect(clients[0], backend_hosts[0], 11211, go)
        engine.run()
        assert len(got) == 2
        assert got[1].value == b"stored"
