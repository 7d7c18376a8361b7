"""Experiment testbeds: one spec, one runner.

A :class:`Scenario` is the whole description of one end-to-end run:
which app, which system serves it, the workload, every policy axis and
every size.  :func:`run_experiment` runs it on the paper's topology
(section 6.2: client and backend machines with 1 Gbps NICs on an edge
switch, the middlebox with a 10 Gbps NIC on a core switch, 20 Gbps
trunk), drives the workload to completion in virtual time, and returns
a :class:`repro.sim.stats.RunResult` — one plotted point of a figure,
and the measured sections of one entry of the scenario matrix
(:mod:`repro.bench.scenarios`).

Systems under test:

* ``flick-kernel`` / ``flick-mtcp`` — the real FLICK runtime (compiled
  programs on the cooperative scheduler) over the respective stack
  profile;
* ``apache`` / ``nginx`` / ``moxi`` — calibrated cost-model baselines.

:func:`run_http_experiment`, :func:`run_memcached_experiment` and
:func:`run_hadoop_experiment` are the figures' call signatures, with
each app's defaults, over the same spec.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.apps import hadoop_agg, http_lb, memcached_proxy
from repro.baselines.apache import ApacheServer
from repro.baselines.moxi import MoxiProxy
from repro.baselines.nginx import NginxServer
from repro.cluster import ROUTINGS, ShardRouter
from repro.core.errors import ConfigError, FlickError
from repro.core.registry import Registry, did_you_mean
from repro.core.units import GBPS, throughput_mbps
from repro.net.faults import FAULTS
from repro.net.tcp import TcpNetwork
from repro.runtime.admission import ADMISSIONS
from repro.runtime.allocator import ALLOCATORS
from repro.runtime.costs import RuntimeConfig
from repro.runtime.graph import OutboundTarget
from repro.runtime.platform import FlickPlatform
from repro.runtime.policy import POLICIES
from repro.runtime.qos import parse_slo_class_specs
from repro.sim.engine import Engine
from repro.sim.stats import RunResult, class_summary
from repro.workloads.arrivals import (
    ARRIVALS,
    ClientPopulation,
    HttpRequestCodec,
    MemcachedRequestCodec,
    check_class_mix,
)
from repro.workloads.backends import BackendMemcachedServer, BackendWebServer
from repro.workloads.hadoop_mappers import (
    Mapper,
    ReducerSink,
    make_vocabulary,
    mapper_pairs,
)

N_CLIENT_HOSTS = 16
N_BACKENDS = 10

FLICK_SYSTEMS = ("flick-kernel", "flick-mtcp")

#: Link scaling for the Hadoop testbed: interpreted per-pair compute costs
#: are far above the paper's generated C++, so links are scaled by the
#: matching factor to preserve the compute/network balance.  The plateau
#: is then ~20 Mbps (pipeline-bound) instead of the paper's ~7,513 Mbps
#: (docs/reproduction.md, known deviations).
HADOOP_LINK_SCALE = 0.012

Params = Tuple[Tuple[str, object], ...]


class Scenario(NamedTuple):
    """One experiment, described once: every field a run reads.

    The scenario matrix, the figures and the testbed wrappers below all
    build one of these and hand it to :func:`run_experiment`.  A field
    named in :data:`AXES` takes a registered name (built with its
    ``*_params``) or a ready instance.  :meth:`check` rejects a field
    the selected app or system cannot honour rather than dropping it.
    """

    app: str
    name: str = ""
    #: A FLICK system or one of the app's cost-model baselines.
    system: str = "flick-kernel"
    #: ``None``: the closed rule (hadoop: every mapper starts at 0).
    arrival: object = None
    arrival_params: Params = ()
    policy: object = "cooperative"
    #: Registered core-topology name, or ``None``.
    topology: Optional[str] = None
    #: Service-class specs (``endpoint=[name:]slo_us[@weight]``).
    service_classes: Tuple[str, ...] = ()
    cores: int = 8
    #: Connections: one per client under the closed rule.
    concurrency: int = 64
    #: Closed rule; ``None`` = ``total_requests // concurrency``.
    requests_per_client: Optional[int] = None
    #: Arrival-clock offers; ``None`` = ``concurrency *
    #: requests_per_client``.
    total_requests: Optional[int] = 4096
    #: Client-side SLO (misses are counted) and the platform's SLO.
    slo_us: Optional[float] = None
    #: http_lb: "lb" (with backends) or "web" (static server).
    mode: str = "lb"
    #: http_lb closed rule: keep-alive connections (else one per request).
    persistent: bool = True
    graph_pool_size: int = 512
    allocator: object = "static"
    #: Admission policy and class labels (request/response apps).
    admission: object = "admit-all"
    admission_params: Params = ()
    class_mix: Tuple[Tuple[str, float], ...] = ()
    #: Cluster tier: platforms behind one shard router (1 = no router).
    shards: int = 1
    routing: object = "hash-affinity"
    #: Kill the highest-indexed shard at this virtual µs (shards > 1).
    fail_shard_at_us: Optional[float] = None
    #: Fault injector (request/response apps, single platform).
    faults: object = None
    fault_params: Params = ()
    #: memcached_proxy: projected parser, cache-router program, keys,
    #: value size.
    specialised_parser: bool = True
    cache_router: bool = False
    key_space: int = 10_000
    value_bytes: int = 64
    #: hadoop_agg: word length, KiB per mapper, mapper count.
    word_len: int = 8
    data_kb_per_mapper: int = 48
    n_mappers: int = 8
    seed: int = 0xF11C

    def check(self) -> "Checked":
        """Resolve everything the run resolves, or raise one
        :class:`ConfigError` (prefixed ``scenario 'name':``)."""
        try:
            return _check(self)
        except (FlickError, ValueError) as exc:
            prefix = f"scenario {self.name!r}: " if self.name else ""
            raise ConfigError(f"{prefix}{exc}") from None


#: :class:`Scenario` field → the registry its value names.  The check
#: and ``docs/registries.md`` iterate this table, so a new axis is
#: wired here once.
AXES: Dict[str, Registry] = {
    "policy": POLICIES,
    "allocator": ALLOCATORS,
    "admission": ADMISSIONS,
    "routing": ROUTINGS,
    "arrival": ARRIVALS,
    "faults": FAULTS,
}

#: Axes whose name :meth:`Scenario.check` builds once per run, and the
#: field holding the constructor's parameters.  The rest are resolved
#: per platform (policy, allocator) or per router (routing).
_PARAMS = {
    "arrival": "arrival_params",
    "admission": "admission_params",
    "faults": "fault_params",
}


class Checked(NamedTuple):
    """A scenario :meth:`Scenario.check` accepted: the spec with its
    parametrised axes built, and the platform configuration."""

    spec: Scenario
    config: RuntimeConfig


class App(NamedTuple):
    """What one app brings to a run: one row of :data:`APPS`."""

    #: Where the middlebox (or baseline) listens.
    port: int
    #: The client endpoint ``service_classes`` specs may name.
    endpoint: str
    #: mode → whether the app has backend servers in that mode.
    modes: Dict[str, bool]
    #: Cost-model systems that stand in for FLICK.
    baselines: Dict[str, Callable]
    shardable: bool
    #: The spec field a figure plots this run against.
    x: str
    #: Link scale of the whole topology.
    scale: float
    #: The throughput unit of the run's result.
    unit: str
    #: The :class:`Scenario` fields only this app reads; :meth:`~Scenario.check`
    #: rejects another app's field set away from its default.
    fields: Tuple[str, ...]
    #: ``(spec, engine, tcpnet) -> (backend servers, outbound targets)``.
    backends: Callable
    #: ``(spec, targets) -> (program, process, codecs, bindings)``.
    program: Callable
    #: ``spec -> RequestCodec`` the client population drives, for a
    #: request/response app; ``None`` for hadoop's mapper streams.
    clients: Optional[Callable]


def _http_backends(spec, engine, tcpnet):
    if spec.mode == "web":
        return [], []
    hosts = _edge_hosts(tcpnet, "backend", N_BACKENDS)
    servers = [BackendWebServer(engine, tcpnet, h, 8080) for h in hosts]
    return servers, [OutboundTarget(h, 8080) for h in hosts]


def _http_program(spec, targets):
    if spec.mode == "web":
        program = http_lb.compile_static_web()
        return program, "StaticWeb", http_lb.http_codec_registry(program), None
    program = http_lb.compile_http_lb()
    return (
        program,
        "HttpBalancer",
        http_lb.http_codec_registry(program),
        http_lb.lb_bindings(targets),
    )


def _memcached_backends(spec, engine, tcpnet):
    hosts = _edge_hosts(tcpnet, "backend", N_BACKENDS)
    filler = b"v" * spec.value_bytes
    servers = [
        BackendMemcachedServer(
            engine, tcpnet, host, 11211, value_fn=lambda key: filler
        )
        for host in hosts
    ]
    return servers, [OutboundTarget(h, 11211) for h in hosts]


def _memcached_program(spec, targets):
    if spec.cache_router:
        program, proc = memcached_proxy.compile_cache_router(), "memcached"
    else:
        program, proc = memcached_proxy.compile_proxy(), "Memcached"
    codecs = memcached_proxy.memcached_codec_registry(
        program, specialised=spec.specialised_parser
    )
    return program, proc, codecs, memcached_proxy.proxy_bindings(targets)


def _hadoop_backends(spec, engine, tcpnet):
    reducer = tcpnet.add_host("reducer", 10 * GBPS * HADOOP_LINK_SCALE, "core")
    return [ReducerSink(engine, tcpnet, reducer, 9000)], [
        OutboundTarget(reducer, 9000)
    ]


def _hadoop_program(spec, targets):
    return (
        hadoop_agg.compile_hadoop(),
        "hadoop",
        hadoop_agg.hadoop_codec_registry(),
        hadoop_agg.hadoop_bindings(
            targets[0].host, targets[0].port, spec.n_mappers
        ),
    )


#: Per-app facts, one row per app: everything :meth:`Scenario.check`
#: and :func:`run_experiment` need to know about an app.
APPS: Dict[str, App] = {
    "http_lb": App(
        80, http_lb.CLIENT_ENDPOINT, {"lb": True, "web": False},
        {"apache": ApacheServer, "nginx": NginxServer}, True,
        "concurrency", 1.0, "kreq/s", ("persistent",),
        _http_backends, _http_program, lambda spec: HttpRequestCodec(),
    ),
    "memcached_proxy": App(
        11211, memcached_proxy.CLIENT_ENDPOINT, {"lb": True},
        {"moxi": MoxiProxy}, False,
        "cores", 1.0, "kreq/s",
        ("specialised_parser", "cache_router", "key_space", "value_bytes"),
        _memcached_backends, _memcached_program,
        lambda spec: MemcachedRequestCodec(spec.key_space),
    ),
    "hadoop_agg": App(
        9100, hadoop_agg.CLIENT_ENDPOINT, {"lb": False}, {}, False,
        "cores", HADOOP_LINK_SCALE, "Mb/s",
        ("word_len", "data_kb_per_mapper", "n_mappers"),
        _hadoop_backends, _hadoop_program, None,
    ),
}

#: Fields below 1 that a run cannot mean.
_COUNTS = (
    "cores", "concurrency", "requests_per_client", "total_requests",
    "shards", "n_mappers", "data_kb_per_mapper",
)


def _check(spec: Scenario) -> Checked:
    """Every rule a run relies on, stated once (see :meth:`Scenario.check`)."""
    app = APPS.get(spec.app)
    if app is None:
        raise ConfigError(
            did_you_mean("app", [spec.app], sorted(APPS), listed="known")
        )
    flick = spec.system in FLICK_SYSTEMS
    for field, known in (
        ("system", FLICK_SYSTEMS + tuple(app.baselines)),
        ("mode", tuple(app.modes)),
    ):
        if getattr(spec, field) not in known:
            raise ConfigError(
                did_you_mean(
                    f"{spec.app} {field}", [getattr(spec, field)], known,
                    listed="known",
                )
            )
    ignored = [
        f"{field}={getattr(spec, field)!r}"
        for row in APPS.values()
        for field in row.fields
        if field not in app.fields
        and getattr(spec, field) != Scenario._field_defaults[field]
    ]
    if ignored:
        raise ConfigError(
            f"{spec.app} does not read {', '.join(ignored)} "
            "(another app's field)"
        )
    if not spec.persistent and spec.arrival is not None:
        raise ConfigError(
            "persistent=False is part of the closed rule (a connection per "
            "request); an arrival process pipelines over its connections"
        )
    if app.clients is None:
        unsupported = [
            field
            for field in (
                "service_classes", "slo_us", "admission", "admission_params",
                "class_mix", "faults",
            )
            if getattr(spec, field) != Scenario._field_defaults[field]
        ]
        if unsupported:
            raise ConfigError(
                f"{spec.app} does not support {', '.join(unsupported)} "
                "(mapper streams are not per-request workloads)"
            )
    for field in _COUNTS:
        value = getattr(spec, field)
        if value is not None and value < 1:
            raise ConfigError(f"{field} must be >= 1, got {value}")
    if spec.total_requests is None and spec.requests_per_client is None:
        raise ConfigError("set total_requests or requests_per_client")
    check_class_mix(spec.class_mix)
    built = {}
    for field, registry in AXES.items():
        value = getattr(spec, field)
        params_field = _PARAMS.get(field)
        params = getattr(spec, params_field) if params_field else ()
        if params and not isinstance(value, str):
            raise ConfigError(
                f"{params_field} without {field} (by name) would be "
                "silently dropped"
            )
        if value is None:
            continue
        registry.check(value)
        if params_field and isinstance(value, str):
            built[field] = registry.make(value, **dict(params))
            built[params_field] = ()
    fault = built.get("faults", spec.faults)
    if fault is not None:
        if fault.needs_backends and not flick:
            raise ConfigError(
                f"fault {fault.name!r} models the FLICK forwarding path; "
                f"{spec.system!r} is a cost-model baseline without one"
            )
        if fault.needs_backends and not app.modes[spec.mode]:
            raise ConfigError(
                f"fault {fault.name!r} targets backend servers; "
                f"{spec.app} mode={spec.mode!r} has none"
            )
        if spec.shards != 1:
            raise ConfigError(
                "fault injection is single-platform for now; drop either "
                "faults or shards"
            )
    if spec.shards == 1:
        if spec.routing != "hash-affinity":
            raise ConfigError(f"routing={spec.routing!r} needs shards > 1")
        if spec.fail_shard_at_us is not None:
            raise ConfigError("fail_shard_at_us needs shards > 1")
    else:
        if not app.shardable:
            shardable = [name for name, row in APPS.items() if row.shardable]
            raise ConfigError(
                f"the cluster tier shards {', '.join(shardable)} "
                "platforms only"
            )
        if not flick:
            raise ConfigError(
                f"the cluster tier shards FLICK platforms; "
                f"{spec.system!r} is a cost-model baseline"
            )
        if spec.fail_shard_at_us is not None and spec.fail_shard_at_us <= 0:
            raise ConfigError(
                "fail_shard_at_us must be positive, got "
                f"{spec.fail_shard_at_us:g}"
            )
    if spec.topology is not None and not isinstance(spec.topology, str):
        raise ConfigError(
            "topology takes a registered name or None, got "
            f"{type(spec.topology).__name__}"
        )
    classes = spec.service_classes
    if not isinstance(classes, tuple) or not all(
        isinstance(text, str) for text in classes
    ):
        raise ConfigError(
            "service_classes takes a tuple of endpoint=[name:]slo_us[@weight] "
            f"specs, got {classes!r}"
        )
    classes = (
        parse_slo_class_specs(classes, valid_endpoints=(app.endpoint,))
        if classes
        else None
    )
    return Checked(
        spec._replace(**built), _runtime_config(spec, classes)
    )


# ---------------------------------------------------------------------------
# Topology and platforms
# ---------------------------------------------------------------------------


def _edge_hosts(tcpnet, prefix: str, count: int, scale: float = 1.0):
    return [
        tcpnet.add_host(f"{prefix}{i}", 1 * GBPS * scale, "edge")
        for i in range(count)
    ]


def _build_topology(scale: float = 1.0):
    """Engine, network (20 Gbps trunk) and the middlebox host (10 Gbps,
    core switch), every link scaled by ``scale``.  Backends and clients
    add their own hosts."""
    engine = Engine()
    tcpnet = TcpNetwork(engine)
    tcpnet.network._trunk_rate = 20 * GBPS * scale
    return engine, tcpnet, tcpnet.add_host("mbox", 10 * GBPS * scale, "core")


def _stack_of(system: str) -> str:
    return "mtcp" if system == "flick-mtcp" else "kernel"


def _runtime_config(spec: Scenario, classes) -> RuntimeConfig:
    """The platform configuration; built by the check, so a bad value
    is rejected before anything runs."""
    return RuntimeConfig(
        cores=spec.cores,
        stack=_stack_of(spec.system),
        graph_pool_size=spec.graph_pool_size,
        policy=spec.policy,
        topology=spec.topology,
        service_classes=classes,
        slo_us=spec.slo_us,
        allocator=spec.allocator,
    )


def _build_platforms(checked: Checked, app: App, engine, tcpnet, mbox, targets):
    """The FLICK middlebox: one platform on ``mbox``, or ``shards``
    platforms on their own core hosts behind one shard router there.
    The program is compiled once per run."""
    spec = checked.spec
    program, proc, codecs, bindings = app.program(spec, targets)
    router = None
    if spec.shards > 1:
        router = ShardRouter(
            engine, tcpnet, mbox, app.port, routing=spec.routing,
            seed=spec.seed,
        )
    platforms = []
    for i in range(spec.shards):
        host = (
            mbox
            if router is None
            else tcpnet.add_host(f"shard{i}", 10 * GBPS, "core")
        )
        platform = FlickPlatform(engine, tcpnet, host, checked.config, codecs)
        platform.register_program(program, proc, app.port, bindings)
        platform.start()
        if router is not None:
            router.add_shard(platform, app.port)
        platforms.append(platform)
    if router is not None:
        router.start()
        if spec.fail_shard_at_us is not None:
            router.fail_shard_at(spec.shards - 1, spec.fail_shard_at_us)
    return platforms, router


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class _MapperJob:
    """Hadoop's client side, shaped like a client population:
    ``n_mappers`` streams into the aggregator, all at time zero (the
    paper's setup) or mapper ``i`` at the ``i``-th arrival tick (a finite
    trace shorter than ``n_mappers`` starts the rest at its last stamp);
    finished when the reducer sees the merged stream close."""

    def __init__(self, spec, engine, tcpnet, mbox, port, sink):
        hosts = _edge_hosts(
            tcpnet, "mapper", spec.n_mappers, HADOOP_LINK_SCALE
        )
        words = make_vocabulary(4096, spec.word_len)
        self.mappers = [
            Mapper(
                engine, tcpnet, host, mbox, port,
                mapper_pairs(i, spec.data_kb_per_mapper * 1024, words),
            )
            for i, host in enumerate(hosts)
        ]
        self.total_bytes = sum(m.bytes_total for m in self.mappers)
        self.sink = sink
        self._engine = engine
        self._spec = spec

    def start(self) -> None:
        if self._spec.arrival is None:
            for mapper in self.mappers:
                mapper.start()
            return
        stamps = self._spec.arrival.stamps(random.Random(self._spec.seed))
        start_at = 0.0
        for mapper in self.mappers:
            start_at = next(stamps, start_at)
            self._engine.at(start_at, mapper.start)

    @property
    def finished(self) -> bool:
        return self.sink.finished_at is not None

    def entry(self) -> dict:
        """What a job measures: ingress throughput, its completion time
        and the bytes in and out of the aggregator."""
        finished_at = self.sink.finished_at
        return {
            "throughput": throughput_mbps(self.total_bytes, finished_at),
            "latency_ms": finished_at / 1000.0,
            "job": {
                "ingress_bytes": self.total_bytes,
                "egress_bytes": self.sink.bytes_received,
            },
        }


def _population(spec: Scenario, app: App, engine, tcpnet, mbox, servers):
    """The client side: the mapper job, or the app's request codec driven
    by one :class:`ClientPopulation`, on the spec's arrival clock or by
    the closed rule."""
    if app.clients is None:
        return _MapperJob(spec, engine, tcpnet, mbox, app.port, servers[0])
    per_client = spec.requests_per_client or max(
        1, spec.total_requests // spec.concurrency
    )
    closed = spec.arrival is None
    return ClientPopulation(
        engine, tcpnet, _edge_hosts(tcpnet, "client", N_CLIENT_HOSTS), mbox,
        app.port, app.clients(spec),
        per_client if closed
        else spec.total_requests or spec.concurrency * per_client,
        arrival=spec.arrival,
        connections=spec.concurrency,
        # At least one request per client is measured.
        warmup_requests=min(max(2, per_client // 10), per_client - 1) if closed else 0,
        persistent=spec.persistent,
        seed=spec.seed,
        slo_us=spec.slo_us,
        admission=spec.admission,
        class_mix=spec.class_mix,
        **(spec.faults.population_kwargs() if spec.faults is not None else {}),
    )


def _client_entry(spec: Scenario, population) -> dict:
    """The client population's sections of the entry.

    ``requests`` counts first-time offers (``offered`` less the retry
    re-offers).  ``measured`` is the number of requests the latency and
    SLO accounting covers: every completion on an arrival clock, the
    completions past each client's warm-up under the closed rule, so
    the miss rate shares one denominator.  ``arrival_gaps_us`` is there
    only where an arrival process ran.
    """
    latency = population.latency
    measured = latency.count
    misses = population.slo_misses
    entry = {
        "throughput": population.kreqs_per_sec(),
        "requests": population.offered - population.retried,
        "offered": population.offered,
        "completed": population.completed,
        "failed": population.failed,
        "retried": population.retried,
        "measured": measured,
        "errors": population.errors,
        "latency_ms": latency.percentile_summary_ms(),
        "slo": {
            "slo_ms": None if spec.slo_us is None else spec.slo_us / 1000.0,
            "misses": misses,
            "miss_rate": misses / measured if measured else 0.0,
        },
        "admission": {
            "policy": population.admission.name,
            "class_mix": dict(spec.class_mix),
            "admitted": population.admitted,
            "shed": population.shed,
            "per_class": population.admission_summary(),
        },
    }
    if spec.arrival is not None:
        gaps = population.inter_arrivals
        entry["arrival_gaps_us"] = {
            "mean": gaps.mean_us(),
            "p50": gaps.percentile_us(50.0),
            "p99": gaps.percentile_us(99.0),
        }
    return entry


def _scheduler_entry(spec: Scenario, platforms, client_outcomes) -> dict:
    """Per-class outcomes, steals and core allocation, summed over
    ``platforms`` (one for a single middlebox, one per shard for a
    fleet, none for a cost-model baseline).

    ``active_workers`` ``min`` / ``max`` are the tightest / widest any
    one platform reached over the whole run (the initial all-active
    state included, so a static run reads cores/cores with zero
    changes); ``final`` is the total of live cores at the end.
    """
    schedulers = [platform.scheduler for platform in platforms]
    counts = [
        [s.cores, *(len(r.active_after) for r in s.alloc_log)]
        for s in schedulers
    ]
    return {
        "classes": (
            class_summary(
                [p.scoreboard for p in platforms], client_outcomes
            )
            if platforms
            else {}
        ),
        "steals": {
            "steals": sum(s.total_steals for s in schedulers),
            "stolen_tasks": sum(s.total_stolen_tasks for s in schedulers),
            "steal_us": float(sum(s.total_steal_us for s in schedulers)),
        },
        "allocator": {
            "name": spec.allocator,
            "changes": sum(len(s.alloc_log) for s in schedulers),
            "moved_tasks": sum(
                r.moved_tasks for s in schedulers for r in s.alloc_log
            ),
            "active_workers": {
                "min": min(map(min, counts), default=spec.cores),
                "max": max(map(max, counts), default=spec.cores),
                "final": (
                    sum(s.active_workers for s in schedulers)
                    if schedulers
                    else spec.cores
                ),
            },
        },
    }


def run_experiment(spec) -> RunResult:
    """Run one experiment to completion and return its data point.

    ``spec`` is a :class:`Scenario`, or what its :meth:`~Scenario.check`
    returned (a caller that checked up front does not check twice).
    """
    checked = spec if isinstance(spec, Checked) else spec.check()
    spec = checked.spec
    app = APPS[spec.app]
    engine, tcpnet, mbox = _build_topology(app.scale)
    servers, targets = app.backends(spec, engine, tcpnet)
    platforms, router = [], None
    if spec.system in FLICK_SYSTEMS:
        platforms, router = _build_platforms(
            checked, app, engine, tcpnet, mbox, targets
        )
    else:
        app.baselines[spec.system](
            engine, tcpnet, mbox, app.port,
            cores=spec.cores, backends=targets or None,
        )
    if spec.faults is not None:
        spec.faults.install(engine, servers)
    population = _population(spec, app, engine, tcpnet, mbox, servers)
    population.start()
    engine.run()
    x = getattr(spec, app.x)
    if not population.finished:
        raise RuntimeError(
            f"{spec.system} {app.x}={x}: workload did not complete"
        )
    job = isinstance(population, _MapperJob)
    entry = population.entry() if job else _client_entry(spec, population)
    entry["throughput_unit"] = app.unit
    entry.update(
        _scheduler_entry(
            spec, platforms, entry.get("admission", {}).get("per_class")
        )
    )
    if spec.faults is not None:
        entry["faults"] = {
            "name": spec.faults.name,
            "params": spec.faults.params(),
            "counters": spec.faults.counters(population),
        }
    if router is not None:
        entry["cluster"] = {
            "shards": spec.shards,
            "routing": router.routing_name,
            "alive_shards": router.alive_shards,
            "connections_routed": router.connections_routed,
            "connections_refused": router.connections_refused,
            "failed_over_connections": router.failed_over_connections,
            "failed_shards": list(router.failed_shards),
            "per_shard": router.shard_report(),
        }
    latency_ms = entry["latency_ms"]
    return RunResult(
        spec.system, x, entry["throughput"],
        latency_ms if job else latency_ms["mean"], entry,
        0 if job else sum(server.requests_served for server in servers),
    )


# ---------------------------------------------------------------------------
# The figures' call signatures
# ---------------------------------------------------------------------------


def run_http_experiment(
    system, concurrency, persistent=True, mode="lb", cores=16,
    requests_per_client=40, graph_pool_size=512,
    policy="cooperative", topology=None, service_classes=(), slo_us=None,
    arrival=None, total_requests=None, seed=0xF11C, allocator="static",
    admission="admit-all", class_mix=(), shards=1, routing="hash-affinity",
    fail_shard_at_us=None, faults=None,
) -> RunResult:
    """One data point of Figure 4 (mode='lb') or the §6.3 web test
    (mode='web'); each argument is the :class:`Scenario` field of the
    same name."""
    return run_experiment(Scenario(app="http_lb", **locals()))


def run_memcached_experiment(
    system, cores, concurrency=128, requests_per_client=40,
    specialised_parser=True, cache_router=False, key_space=10_000,
    value_bytes=64, policy="cooperative", topology=None, service_classes=(),
    slo_us=None, arrival=None, total_requests=None, seed=0xF11C,
    allocator="static", admission="admit-all", class_mix=(), faults=None,
) -> RunResult:
    """One Memcached proxy data point, as Figure 5 and the ``e13`` and
    ``cache`` rows of :mod:`repro.bench.figures` build it; each argument
    is the :class:`Scenario` field of the same name."""
    return run_experiment(Scenario(app="memcached_proxy", **locals()))


def run_hadoop_experiment(
    cores, word_len=8, data_kb_per_mapper=96, n_mappers=8, stack="kernel",
    policy="cooperative", topology=None, slo_us=None, arrival=None,
    seed=0xF11C, allocator="static",
) -> RunResult:
    """One data point of Figure 6: aggregate ingress throughput (Mb/s).

    ``stack`` selects the FLICK system (``flick-<stack>``); every other
    argument is the :class:`Scenario` field of the same name.
    """
    fields = dict(locals())
    system = f"flick-{fields.pop('stack')}"
    return run_experiment(Scenario(app="hadoop_agg", system=system, **fields))
