"""Outside-in probes: a tight loop around one layer's public functions.

Every probe builds its inputs from the workload seed (untimed), then
times one pass with ``perf_counter``; the harness keeps the best of
``repeats`` passes.  Raw host time: probes have no bound and are never a
claim, they say which layer a change to an end-to-end number came from.
A probe whose target cannot be imported, or raises, reports ``null``
with a one-line reason.

A builder makes the inputs once and returns ``(fresh, units)``:
``fresh()`` does one pass's untimed preparation (a new engine, a new
platform) and returns the callable that is timed; ``units`` is how many
messages/calls/events one pass covers.
"""

from __future__ import annotations

import itertools
import random
import time

import adapter

_KEY_SPACE = 10_000


def _sized(base: int, scale: float) -> int:
    return max(16, round(base * scale))


# -- grammar -----------------------------------------------------------------


def _rerunnable(work):
    """``fresh`` for a pass that needs no preparation of its own."""
    return lambda: work


def _memcached_traffic(seed: int, scale: float):
    """GETK requests and responses as the proxy sees them: the records a
    client or backend builds, and their bytes on the wire."""
    mc = adapter.grammar_surface().memcached
    rng = random.Random(seed)
    built = []
    for i in range(_sized(800, scale)):
        key = f"key-{rng.randrange(_KEY_SPACE):06d}"
        built.append(mc.make_request(mc.OP_GETK, key, opaque=i))
        built.append(mc.make_response(mc.OP_GETK, key, b"v" * 64, opaque=i))
    return mc, built, [mc.encode(record) for record in built]


def memcached_parse(seed, scale):
    mc, _, wire = _memcached_traffic(seed, scale)
    codec = mc.specialized_codec(frozenset({"opcode", "key"}))

    def work():
        parser = codec.parser()
        for data in wire:
            parser.feed(data)
            parser.poll()

    return _rerunnable(work), len(wire)


def memcached_chunked_parse(seed, scale):
    mc, _, wire = _memcached_traffic(seed, scale / 4)
    codec = mc.specialized_codec(frozenset({"opcode", "key"}))
    chunks = [
        [data[i:i + 7] for i in range(0, len(data), 7)] for data in wire
    ]

    def work():
        parser = codec.parser()
        for message in chunks:
            for chunk in message:
                parser.feed(chunk)
                parser.poll()

    return _rerunnable(work), len(wire)


def memcached_serialize(seed, scale):
    """Half forwarded as parsed (the proxy), half encoded from fields
    (the clients and backends)."""
    mc, built, wire = _memcached_traffic(seed, scale)
    records = built[::2] + mc.full_codec().parse_all(b"".join(wire[1::2]))
    serialize = mc.full_codec().serialize

    def work():
        for record in records:
            serialize(record)

    return _rerunnable(work), len(records)


def codec_build(seed, scale):
    mc = adapter.grammar_surface().memcached
    n = _sized(40, scale)

    def work():
        for _ in range(n):
            mc.specialized_codec(frozenset({"opcode", "key"}))
            mc.full_codec()

    return _rerunnable(work), n


def _http_messages(seed: int, scale: float):
    http = adapter.grammar_surface().http
    rng = random.Random(seed)
    body = (b"FLICK static response. " * 6)[:137]
    requests, responses = [], []
    for _ in range(_sized(1000, scale)):
        requests.append(
            http.make_request("GET", f"/index.html?r={rng.randrange(1 << 20)}")
        )
        responses.append(http.make_response(body=body))
    return http, requests, responses


def http_parse(seed, scale):
    http, requests, responses = _http_messages(seed, scale)
    request_wire = [r.raw for r in requests]
    response_wire = [r.raw for r in responses]

    def work():
        parser = http.HttpRequestParser()
        for data in request_wire:
            parser.feed(data)
            parser.poll()
        parser = http.HttpResponseParser()
        for data in response_wire:
            parser.feed(data)
            parser.poll()

    return _rerunnable(work), len(request_wire) + len(response_wire)


def http_serialize(seed, scale):
    """Half forwarded unmodified (raw copy), half rendered from fields."""
    http, requests, responses = _http_messages(seed, scale)
    for record in requests[::2] + responses[::2]:
        record.raw = None
    records = requests + responses

    def work():
        for record in records:
            http.serialize(record)

    return _rerunnable(work), len(records)


def hadoop_parse(seed, scale):
    hadoop = adapter.grammar_surface().hadoop
    pairs = adapter.workloads_surface().generate_mapper_output(
        seed % 8, _sized(48 * 1024, scale), 8, vocabulary=4096
    )

    def work():
        data = hadoop.encode_pairs(pairs)
        parser = hadoop.codec().parser()
        for at in range(0, len(data), 8192):
            parser.feed(data[at:at + 8192])
            while parser.poll() is not None:
                pass

    return _rerunnable(work), len(pairs)


# -- lang ------------------------------------------------------------------


class _NullChannel:
    __slots__ = ()

    def send(self, value):
        pass


def _synth(lang, t, counter):
    """A deterministic value of FLICK type ``t`` (as bench_exec_tier)."""
    ty = lang.types
    t = ty.strip_ref(t)
    if isinstance(t, ty.IntType):
        return next(counter) % 13
    if isinstance(t, ty.StringType):
        return f"k{next(counter) % 8}"
    if isinstance(t, ty.BoolType):
        return next(counter) % 2 == 0
    if isinstance(t, ty.RecordType):
        return lang.Record(
            t.name, {name: _synth(lang, ft, counter) for name, ft in t.fields}
        )
    if isinstance(t, ty.DictMapType):
        return {}
    if isinstance(t, ty.ListSeqType):
        return [_synth(lang, t.element, counter) for _ in range(3)]
    if isinstance(t, ty.ChannelEndType):
        return [_NullChannel() for _ in range(4)] if t.is_array else _NullChannel()
    return None


def handler(seed, scale):
    """The request programs' rule handlers, compiled tier, round-robin."""
    lang = adapter.lang_surface()
    cases = []
    for compile_program in lang.request_programs:
        program = compile_program()
        checked = program.checked
        for pname in sorted(program.procs):
            spec = program.procs[pname]
            context = {
                name: _synth(lang, ptype, itertools.count(1))
                for name, ptype in checked.proc_params[pname]
            }
            for rule in spec.rules:
                read_type = spec.endpoint(rule.source).read_type
                record_type = checked.records.get(read_type) if read_type else None
                if record_type is None:
                    continue
                counter = itertools.count(seed % 97)
                cases.append((
                    lang.build_rule_handler(program, rule, dict(context), "compiled"),
                    [_synth(lang, record_type, counter) for _ in range(16)],
                ))
    if not cases:
        raise LookupError("no record-typed rule in the request programs")
    n = _sized(20_000, scale)
    plan = [
        (cases[i % len(cases)][0], cases[i % len(cases)][1][i % 16])
        for i in range(n)
    ]
    for call, message in plan[:500]:
        call(message)

    def work():
        for call, message in plan:
            call(message)

    return _rerunnable(work), n


def foldt(seed, scale):
    lang = adapter.lang_surface()
    program = lang.compile_hadoop()
    combine = lang.build_foldt_handler(
        program, program.procs["hadoop"].foldt, "compiled"
    ).combine_with_ops
    pool = [
        lang.Record("kv", {"key": f"k{i % 8}", "value": str((seed + i) % 23)})
        for i in range(16)
    ]
    n = _sized(20_000, scale)
    for i in range(500):
        combine(pool[i % 16], pool[(i + 1) % 16])

    def work():
        for i in range(n):
            combine(pool[i % 16], pool[(i + 1) % 16])

    return _rerunnable(work), n


def _compile(workload):
    def build(seed, scale):
        return _rerunnable(adapter.compile_surface()[workload]), 1

    return build


# -- sim ------------------------------------------------------------------


def engine_mix(seed, scale):
    """Self-rescheduling actors on the http-overload delay profile
    (``benchmarks/bench_engine.py:build_mix``)."""
    engine_type = adapter.sim_surface().Engine
    n = _sized(60_000, scale)

    def fresh():
        engine = engine_type()
        state = [n, 12345 + seed]

        def rnd():
            state[1] = (state[1] * 1103515245 + 12345) & 0x7FFFFFFF
            return state[1] / 0x7FFFFFFF

        def tick():
            if state[0] <= 0:
                return
            state[0] -= 1
            r = rnd()
            if r < 0.01:
                engine.schedule(0.0, tick)
            elif r < 0.36:
                engine.schedule(0.5 + rnd() * 15.5, tick)
            elif r < 0.65:
                engine.schedule(16.0 + rnd() * 984.0, tick)
            else:
                engine.schedule(1_000.0 + rnd() * 9_000.0, tick)

        for _ in range(64):
            engine.schedule(rnd() * 100.0, tick)
        return engine.run

    return fresh, n + 64


def engine_sametick(seed, scale):
    """Waves of callbacks that each post one zero-delay event."""
    engine_type = adapter.sim_surface().Engine
    waves = max(_sized(60_000, scale) // 1000, 1)

    def noop():
        pass

    def fresh():
        engine = engine_type()

        def fire():
            engine.schedule(0.0, noop)

        for wave in range(waves):
            for _ in range(500):
                engine.at(10.0 + wave * 50.0, fire)
        return engine.run

    return fresh, waves * 1000


def stats_record(seed, scale):
    series_type = adapter.sim_surface().LatencySeries
    rng = random.Random(seed)
    latencies = [rng.expovariate(1 / 700.0) for _ in range(_sized(16384, scale))]

    def work():
        series = series_type()
        for latency in latencies:
            series.record(latency)
        series.percentile_summary_ms()

    return _rerunnable(work), len(latencies)


# -- net ----------------------------------------------------------------------


def _two_hosts(surface):
    engine = surface.Engine()
    tcpnet = surface.TcpNetwork(engine)
    server = tcpnet.add_host("server", 10 * surface.GBPS, "core")
    client = tcpnet.add_host("client", 1 * surface.GBPS, "edge")
    return engine, tcpnet, server, client


def tcp_msg(seed, scale):
    surface = adapter.net_surface()
    n = _sized(6000, scale)
    payload = bytes(random.Random(seed).randrange(256) for _ in range(100))

    def fresh():
        engine, tcpnet, server, client = _two_hosts(surface)
        received = []
        tcpnet.listen(server, 9000, lambda sock: sock.on_receive(received.append))

        def on_connected(sock):
            for i in range(n):
                engine.schedule(i * 10.0, sock.send, payload)

        tcpnet.connect(client, server, 9000, on_connected)

        def work():
            engine.run()
            if len(received) != n:
                raise AssertionError(f"{len(received)} of {n} messages arrived")

        return work

    return fresh, n


def tcp_connect(seed, scale):
    surface = adapter.net_surface()
    n = _sized(3000, scale)

    def fresh():
        engine, tcpnet, server, client = _two_hosts(surface)
        tcpnet.listen(server, 9000, lambda sock: sock.on_close(sock.close))
        for i in range(n):
            engine.schedule(
                i * 50.0, tcpnet.connect, client, server, 9000, lambda s: s.close()
            )

        def work():
            engine.run()
            if tcpnet.connections_established != n:
                raise AssertionError("not every connection was established")

        return work

    return fresh, n


# -- runtime -----------------------------------------------------------------


def _resident_kb() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * 4.0


def _idle_connections(scale):
    """A static-web platform and ``n`` clients: ``(open_all, close_all, n)``."""
    rt = adapter.runtime_surface()
    engine, tcpnet, server, client = _two_hosts(rt)
    platform = rt.FlickPlatform(
        engine, tcpnet, server, rt.RuntimeConfig(cores=8),
        rt.http_codec_registry(),
    )
    platform.register_program(rt.compile_static_web(), "StaticWeb", 80)
    platform.start()
    n = _sized(500, scale)
    sockets = []

    def open_all():
        for i in range(n):
            engine.schedule(
                i * 20.0, tcpnet.connect, client, server, 80, sockets.append
            )
        engine.run()
        if len(sockets) != n:
            raise AssertionError("not every connection was accepted")

    def close_all():
        for sock in sockets:
            sock.close()
        engine.run()

    return open_all, close_all, n


def conn_setup(seed, scale):
    """Idle connections accepted by a static-web platform, then closed."""

    def fresh():
        open_all, close_all, _ = _idle_connections(scale)

        def work():
            open_all()
            close_all()

        return work

    return fresh, _sized(500, scale)


def conn_rss(scale) -> float:
    """Resident KiB per open idle connection.  Read once, and before any
    other probe: later passes reuse the pages this one freed."""
    open_all, close_all, n = _idle_connections(scale)
    before = _resident_kb()
    open_all()
    grown = (_resident_kb() - before) / n
    close_all()
    return grown


def channel(seed, scale):
    channel_type = adapter.runtime_surface().TaskChannel
    n = _sized(50_000, scale)
    items = [(seed, i) for i in range(64)]

    def work():
        chan = channel_type("probe")
        for i in range(n):
            chan.push(items[i & 63])
            chan.pop()

    return _rerunnable(work), n


# -- core, workloads, cluster ---------------------------------------------------


def stable_hash(seed, scale):
    """The memcached key strings and the mapper generator's tuples."""
    hash_fn = adapter.core_surface().stable_hash
    rng = random.Random(seed)
    keys = []
    for i in range(_sized(5_000, scale)):
        keys.append(f"key-{rng.randrange(_KEY_SPACE):06d}")
        keys.append((seed % 8, i))

    def work():
        for key in keys:
            hash_fn(key)

    return _rerunnable(work), len(keys)


def arrival_gap(seed, scale):
    make_arrival = adapter.workloads_surface().make_arrival
    n = _sized(16384, scale)

    def work():
        gaps = make_arrival("poisson", rate_rps=160_000.0).gaps(random.Random(seed))
        for _ in itertools.islice(gaps, n):
            pass

    return _rerunnable(work), n


def mapper_gen(seed, scale):
    generate = adapter.workloads_surface().generate_mapper_output
    nbytes = _sized(48 * 1024, scale)

    def work():
        generate(seed % 8, nbytes, 8, vocabulary=4096)

    return _rerunnable(work), 1


def ring_lookup(seed, scale):
    ring = adapter.cluster_surface().HashRing(range(8), seed=seed)
    keys = [f"client{i % 16}:conn-{i}" for i in range(_sized(10_000, scale))]

    def work():
        for key in keys:
            ring.lookup(key)

    return _rerunnable(work), len(keys)


#: name -> (what one unit's seconds are multiplied by, builder); a
#: multiplier of 0 asks for units per second instead.  ``run.py`` holds
#: the units (it cannot import this module: no ``repro`` on its path).
PROBES = {
    "grammar.memcached_parse_us": (1e6, memcached_parse),
    "grammar.memcached_serialize_us": (1e6, memcached_serialize),
    "grammar.memcached_chunked_parse_us": (1e6, memcached_chunked_parse),
    "grammar.codec_build_ms": (1e3, codec_build),
    "grammar.http_parse_us": (1e6, http_parse),
    "grammar.http_serialize_us": (1e6, http_serialize),
    "grammar.hadoop_parse_us": (1e6, hadoop_parse),
    "lang.handler_us": (1e6, handler),
    "lang.foldt_us": (1e6, foldt),
    "sim.engine_events_per_s": (0, engine_mix),
    "sim.engine_sametick_events_per_s": (0, engine_sametick),
    "sim.stats_record_ns": (1e9, stats_record),
    "net.tcp_msg_us": (1e6, tcp_msg),
    "net.tcp_connect_us": (1e6, tcp_connect),
    "runtime.conn_setup_us": (1e6, conn_setup),
    "runtime.channel_us": (1e6, channel),
    "core.stable_hash_ns": (1e9, stable_hash),
    "workloads.arrival_gap_ns": (1e9, arrival_gap),
    "workloads.mapper_gen_ms": (1e3, mapper_gen),
    "cluster.ring_lookup_us": (1e6, ring_lookup),
}

CONN_RSS = "runtime.conn_rss_kb"


def _failed(exc: Exception) -> dict:
    return {"value": None, "reason": f"{type(exc).__name__}: {exc}"[:160]}


def _timed(build, multiplier, seed, scale, repeats) -> dict:
    """Best seconds per unit over ``repeats`` passes, converted."""
    try:
        fresh, units = build(seed, scale)
        best = None
        for _ in range(repeats):
            work = fresh()
            start = time.perf_counter()
            work()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
    except Exception as exc:  # the run continues; the reason is reported
        return _failed(exc)
    per_unit = best / units
    return {"value": per_unit * multiplier if multiplier else 1.0 / per_unit}


def run_all(seed: int, scale: float, repeats: int) -> dict:
    """``{"common": {probe: reading}, "compile_ms": {workload: reading}}``."""
    try:
        common = {CONN_RSS: {"value": conn_rss(scale)}}
    except Exception as exc:
        common = {CONN_RSS: _failed(exc)}
    for name, (multiplier, build) in PROBES.items():
        common[name] = _timed(build, multiplier, seed, scale, repeats)
    compile_ms = {
        workload: _timed(_compile(workload), 1e3, seed, scale, repeats)
        for workload in adapter.WORKLOADS
    }
    return {"common": common, "compile_ms": compile_ms}
