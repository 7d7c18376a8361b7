"""Compiler tests: proc specs, rule lowering, foldt plans, Figure 3 shapes."""

import pytest

from repro.apps import hadoop_agg, http_lb, memcached_proxy
from repro.core.errors import FlickTypeError
from repro.lang.compiler import compile_source
from repro.lang.values import Record


class TestEndpointSpecs:
    def test_memcached_endpoints(self):
        prog = compile_source(memcached_proxy.PROXY_SOURCE)
        spec = prog.proc("Memcached")
        client = spec.endpoint("client")
        assert client.readable and client.writable and not client.is_array
        backends = spec.endpoint("backends")
        assert backends.is_array
        assert backends.read_type == "cmd"

    def test_value_params_not_endpoints(self):
        prog = http_lb.compile_http_lb()
        spec = prog.proc("HttpBalancer")
        names = [ep.name for ep in spec.endpoints]
        assert "info" not in names
        assert set(names) == {"client", "backends"}

    def test_hadoop_endpoint_directions(self):
        prog = hadoop_agg.compile_hadoop()
        spec = prog.proc("hadoop")
        mappers = spec.endpoint("mappers")
        assert mappers.readable and not mappers.writable and mappers.is_array
        reducer = spec.endpoint("reducer")
        assert reducer.writable and not reducer.readable


class TestRules:
    def test_forward_rule(self):
        prog = compile_source(memcached_proxy.PROXY_SOURCE)
        rules = prog.proc("Memcached").rules
        assert rules[0].source == "backends"
        assert rules[0].stages == ()
        assert rules[0].sink == "client"

    def test_function_stage_rule(self):
        prog = compile_source(memcached_proxy.PROXY_SOURCE)
        rule = prog.proc("Memcached").rules[1]
        assert rule.source == "client"
        assert rule.stages[0].func == "target_backend"
        assert rule.sink is None

    def test_stage_bound_args_preserved(self):
        prog = compile_source(memcached_proxy.CACHE_ROUTER_SOURCE)
        rules = prog.proc("memcached").rules
        update = rules[0]
        assert update.stages[0].func == "update_cache"
        assert len(update.stages[0].bound_args) == 1

    def test_globals_lowered(self):
        prog = compile_source(memcached_proxy.CACHE_ROUTER_SOURCE)
        spec = prog.proc("memcached")
        assert [g[0] for g in spec.globals] == ["cache"]

    def test_unknown_proc_rejected(self):
        prog = compile_source(memcached_proxy.PROXY_SOURCE)
        with pytest.raises(Exception):
            prog.proc("nope")


class TestFoldTPlan:
    def test_plan_extracted(self):
        prog = hadoop_agg.compile_hadoop()
        plan = prog.proc("hadoop").foldt
        assert plan is not None
        assert plan.source == "mappers"
        assert plan.sink == "reducer"

    def test_unguarded_foldt_rejected(self):
        src = """
type kv: record
    key : string
    value : string

proc bad: ([kv/-] mappers, -/kv reducer)
    let result = foldt on mappers ordering elem e1, e2 by elem.key as e_key:
        kv(e_key, e1.value)
    result => reducer
"""
        with pytest.raises(FlickTypeError):
            compile_source(src)


class TestAccessedFields:
    def test_proxy_accesses_opcode_and_key(self):
        prog = compile_source(memcached_proxy.CACHE_ROUTER_SOURCE)
        assert prog.accessed_fields("cmd") == frozenset({"opcode", "key"})

    def test_plain_proxy_accesses_key_only(self):
        prog = compile_source(memcached_proxy.PROXY_SOURCE)
        assert prog.accessed_fields("cmd") == frozenset({"key"})


class TestRuleHandler:
    def test_handler_runs_stages_and_sinks(self):
        from repro.lang.compiler import build_rule_handler

        prog = compile_source(memcached_proxy.CACHE_ROUTER_SOURCE)
        spec = prog.proc("memcached")

        class Chan:
            def __init__(self):
                self.sent = []

            def send(self, v):
                self.sent.append(v)

        client = Chan()
        cache = {}
        context = {"client": client, "cache": cache, "backends": []}
        update_rule = spec.rules[0]
        handler = build_rule_handler(prog, update_rule, context)
        getk_resp = Record("cmd", {"opcode": 0x0C, "key": "k1"})
        ops = handler(getk_resp)
        assert ops > 0
        assert client.sent == [getk_resp]
        assert cache["k1"] is getk_resp

    def test_cache_router_end_to_end_semantics(self):
        from repro.lang.compiler import build_rule_handler

        prog = compile_source(memcached_proxy.CACHE_ROUTER_SOURCE)
        spec = prog.proc("memcached")

        class Chan:
            def __init__(self):
                self.sent = []

            def send(self, v):
                self.sent.append(v)

        client = Chan()
        backends = [Chan() for _ in range(3)]
        cache = {}
        context = {"client": client, "cache": cache, "backends": backends}
        update = build_rule_handler(prog, spec.rules[0], context)
        test = build_rule_handler(prog, spec.rules[1], context)

        request = Record("cmd", {"opcode": 0x0C, "key": "hot"})
        test(request)  # miss: goes to a backend
        assert sum(len(b.sent) for b in backends) == 1
        response = Record("cmd", {"opcode": 0x0C, "key": "hot"})
        update(response)  # populates the cache, forwards to client
        assert client.sent[-1] is response
        test(request)  # hit: served from cache, no new backend traffic
        assert sum(len(b.sent) for b in backends) == 1
        assert client.sent[-1] is response


class TestFigure3Shapes:
    """The compiled task graphs must match Figure 3's task counts."""

    def _build_lb_graph(self):
        from repro.core.units import GBPS
        from repro.net.tcp import TcpNetwork
        from repro.runtime.costs import RuntimeConfig
        from repro.runtime.platform import FlickPlatform
        from repro.runtime.graph import OutboundTarget
        from repro.sim.engine import Engine
        from repro.workloads.backends import BackendWebServer

        engine = Engine()
        net = TcpNetwork(engine)
        mbox = net.add_host("mbox", 10 * GBPS, "core")
        client_host = net.add_host("c0", 1 * GBPS, "edge")
        backend_hosts = [net.add_host(f"b{i}", 1 * GBPS, "edge") for i in range(4)]
        servers = [BackendWebServer(engine, net, b, 8080) for b in backend_hosts]
        platform = FlickPlatform(
            engine, net, mbox, RuntimeConfig(cores=2),
            http_lb.http_codec_registry(),
        )
        targets = [OutboundTarget(b, 8080) for b in backend_hosts]
        instance = platform.register_program(
            http_lb.compile_http_lb(), "HttpBalancer", 80,
            http_lb.lb_bindings(targets),
        )
        graphs = []
        original = instance.graph_dispatcher._build_graph

        def capture():
            graph = original()
            graphs.append(graph)
            return graph

        instance.graph_dispatcher._build_graph = capture
        platform.start()
        sockets = []
        net.connect(client_host, mbox, 80, sockets.append)
        engine.run()
        del servers
        return engine, graphs, sockets[0]

    def test_lb_graph_initial_tasks(self):
        engine, graphs, sock = self._build_lb_graph()
        # Graph exists once the dispatcher processed the connection.
        assert len(graphs) == 1

    def test_hadoop_tree_shape(self):
        """8 mapper inputs -> 7 merges -> 1 output (Figure 3c)."""
        from repro.core.units import GBPS
        from repro.net.tcp import TcpNetwork
        from repro.runtime.costs import RuntimeConfig
        from repro.runtime.platform import FlickPlatform
        from repro.runtime.task import InputTask, MergeTask, OutputTask
        from repro.sim.engine import Engine
        from repro.workloads.hadoop_mappers import Mapper, ReducerSink

        engine = Engine()
        net = TcpNetwork(engine)
        mbox = net.add_host("mbox", 10 * GBPS, "core")
        reducer = net.add_host("reducer", 10 * GBPS, "core")
        mhosts = [net.add_host(f"m{i}", 1 * GBPS, "edge") for i in range(8)]
        sink = ReducerSink(engine, net, reducer, 9000)
        platform = FlickPlatform(
            engine, net, mbox, RuntimeConfig(cores=4),
            hadoop_agg.hadoop_codec_registry(),
        )
        instance = platform.register_program(
            hadoop_agg.compile_hadoop(), "hadoop", 9100,
            hadoop_agg.hadoop_bindings(reducer, 9000, 8),
        )
        platform.start()
        mappers = [
            Mapper(engine, net, h, mbox, 9100, [("a", "1")]) for h in mhosts
        ]
        graphs = []
        original = instance.graph_dispatcher._build_graph

        def capture():
            graph = original()
            graphs.append(graph)
            return graph

        instance.graph_dispatcher._build_graph = capture
        for m in mappers:
            m.start()
        engine.run()
        assert len(graphs) == 1
        tasks = graphs[0].tasks
        assert sum(1 for t in tasks if isinstance(t, InputTask)) == 8
        assert sum(1 for t in tasks if isinstance(t, MergeTask)) == 7
        assert sum(1 for t in tasks if isinstance(t, OutputTask)) == 1
        assert sink.pairs == [("a", "8")]
