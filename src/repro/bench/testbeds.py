"""Experiment testbeds: one function per evaluation configuration.

Each ``run_*`` function builds the paper's topology (section 6.2: client
and backend machines with 1 Gbps NICs on an edge switch, the middlebox
with a 10 Gbps NIC on a core switch, 20 Gbps trunk), drives the workload
to completion in virtual time, and returns a
:class:`repro.sim.stats.RunResult` — one plotted point of a figure.

Systems under test:

* ``flick-kernel`` / ``flick-mtcp`` — the real FLICK runtime (compiled
  programs on the cooperative scheduler) over the respective stack
  profile;
* ``apache`` / ``nginx`` / ``moxi`` — calibrated cost-model baselines.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Optional

from repro.apps import hadoop_agg, http_lb, memcached_proxy
from repro.baselines.apache import ApacheServer
from repro.baselines.moxi import MoxiProxy
from repro.baselines.nginx import NginxServer
from repro.cluster import ROUTINGS, ShardRouter
from repro.core.errors import ConfigError
from repro.core.units import GBPS, throughput_mbps
from repro.net.faults import resolve_fault
from repro.net.tcp import TcpNetwork
from repro.runtime.costs import RuntimeConfig
from repro.runtime.graph import OutboundTarget
from repro.runtime.platform import FlickPlatform
from repro.sim.engine import Engine
from repro.sim.stats import RunResult
from repro.workloads.arrivals import (
    HttpRequestCodec,
    MemcachedRequestCodec,
    OpenLoopClients,
    resolve_arrival,
)
from repro.workloads.backends import BackendMemcachedServer, BackendWebServer
from repro.workloads.hadoop_mappers import (
    Mapper,
    ReducerSink,
    generate_mapper_output,
)
from repro.workloads.http_clients import HttpClientPopulation
from repro.workloads.memcached_clients import MemcachedClientPopulation

N_CLIENT_HOSTS = 16
N_BACKENDS = 10

FLICK_SYSTEMS = ("flick-kernel", "flick-mtcp")
HTTP_BASELINES = ("apache", "nginx")


def _stack_of(system: str) -> str:
    return "mtcp" if system == "flick-mtcp" else "kernel"


def check_request_axes(
    open_loop: bool,
    uses_admission: bool = False,
    fault=None,
    has_backends: bool = True,
    shards: int = 1,
    routing="hash-affinity",
    fail_shard_at_us: Optional[float] = None,
) -> None:
    """The cross-axis rules of a request/response run, stated once.

    The testbeds call this on their arguments and the scenario runner
    on a :class:`~repro.bench.scenarios.Scenario`'s fields, so a knob
    the selected configuration cannot honour is a :class:`ConfigError`
    (never silently dropped) with the same text from either door.
    ``open_loop`` is "driven by an arrival process on a
    request/response app"; ``uses_admission`` is "an admission policy,
    its parameters or a class mix was asked for"; ``fault`` is a
    resolved :class:`~repro.net.faults.FaultPolicy` or ``None``.
    """
    if uses_admission and not open_loop:
        raise ConfigError(
            "admission control and class_mix need an open-loop arrival "
            "process on a request/response app (closed-loop clients "
            "self-throttle, so there is nothing to shed, and hadoop "
            "mapper streams are not per-request workloads)"
        )
    if fault is not None:
        if not open_loop:
            raise ConfigError(
                f"fault injection ({fault.name!r}) needs an open-loop "
                "arrival process on a request/response app "
                "(retry/failure accounting lives there)"
            )
        if fault.needs_backends and not has_backends:
            raise ConfigError(
                f"fault {fault.name!r} targets backend servers; "
                "mode='web' has none"
            )
        if shards != 1:
            raise ConfigError(
                "fault injection is single-platform for now; drop either "
                "faults or shards"
            )
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        if routing != "hash-affinity":
            raise ConfigError(f"routing={routing!r} needs shards > 1")
        if fail_shard_at_us is not None:
            raise ConfigError("fail_shard_at_us needs shards > 1")
        return
    if not open_loop:
        raise ConfigError(
            "the cluster tier needs an open-loop arrival process "
            "(connection-failure accounting lives there)"
        )
    ROUTINGS.check(routing)
    if fail_shard_at_us is not None and fail_shard_at_us <= 0:
        raise ConfigError(
            f"fail_shard_at_us must be positive, got {fail_shard_at_us:g}"
        )


def _resolve_fault(faults, system: str):
    """A testbed's ``faults`` argument as an instance (or ``None``)."""
    if faults is None:
        return None
    fault = resolve_fault(faults)
    if fault.needs_backends and system not in FLICK_SYSTEMS:
        raise ConfigError(
            f"fault {fault.name!r} models the FLICK forwarding path; "
            f"{system!r} is a cost-model baseline without one"
        )
    return fault


def _steal_extra(platforms) -> dict:
    """Scheduler steal counters for ``extra``, summed over ``platforms``
    (one for a single middlebox, one per shard for a fleet, none for a
    cost-model baseline)."""
    if not platforms:
        return {}
    schedulers = [platform.scheduler for platform in platforms]
    return {
        "steals": float(sum(s.total_steals for s in schedulers)),
        "stolen_tasks": float(sum(s.total_stolen_tasks for s in schedulers)),
        "steal_us": float(sum(s.total_steal_us for s in schedulers)),
    }


def _alloc_extra(platforms) -> dict:
    """Core-allocator counters for ``extra`` over ``platforms``.

    Changes and moved tasks are summed; ``active_workers_min``/``max``
    are the tightest/widest any one platform reached over the whole run
    (the initial all-active state included, so a static run reads
    cores/cores with zero changes); ``final`` is the total live cores at
    the end.
    """
    if not platforms:
        return {}
    schedulers = [platform.scheduler for platform in platforms]
    counts = [
        [s.cores, *(len(r.active_after) for r in s.alloc_log)]
        for s in schedulers
    ]
    return {
        "alloc_changes": float(sum(len(s.alloc_log) for s in schedulers)),
        "alloc_moved_tasks": float(
            sum(r.moved_tasks for s in schedulers for r in s.alloc_log)
        ),
        "active_workers_min": float(min(map(min, counts))),
        "active_workers_max": float(max(map(max, counts))),
        "active_workers_final": float(
            sum(s.active_workers for s in schedulers)
        ),
    }


def _open_loop_extra(population: OpenLoopClients) -> dict:
    """Client-side latency/SLO/inter-arrival accounting for ``extra``.

    ``measured`` is the number of requests the latency/SLO accounting
    covers — every *admitted* request, for the open loop (no warmup
    window); shed requests never enter the latency series.
    """
    latency = population.latency
    gaps = population.inter_arrivals
    return {
        "offered": float(population.offered),
        "admitted": float(population.admitted),
        "shed": float(population.shed),
        "completed": float(population.completed),
        "failed": float(population.failed),
        "retried": float(population.retried),
        "measured": float(latency.count),
        "errors": float(population.errors),
        "slo_misses": float(population.slo_misses),
        "p50_ms": latency.percentile_us(50.0) / 1000.0,
        "p99_ms": latency.percentile_us(99.0) / 1000.0,
        "max_ms": latency.max_us() / 1000.0,
        "arrival_gap_mean_us": gaps.mean_us(),
        "arrival_gap_p50_us": gaps.percentile_us(50.0),
        "arrival_gap_p99_us": gaps.percentile_us(99.0),
    }


def _closed_loop_extra(population, total_requests: int, slo_us) -> dict:
    """The closed-loop populations' equivalent of :func:`_open_loop_extra`.

    ``slo_misses`` is counted over the measured (post-warmup) window,
    the only one the latency series records; ``measured`` sizes that
    window so miss *rates* are computed over the same denominator
    rather than diluted by warmup requests that can never miss.
    """
    latency = population.latency
    return {
        "offered": float(total_requests),
        "completed": float(total_requests),
        "measured": float(latency.count),
        "errors": float(population.errors),
        "slo_misses": float(latency.count_over(slo_us)),
        "p50_ms": latency.percentile_us(50.0) / 1000.0,
        "p99_ms": latency.percentile_us(99.0) / 1000.0,
        "max_ms": latency.max_us() / 1000.0,
    }


def _build_topology(n_backends: int = N_BACKENDS):
    engine = Engine()
    tcpnet = TcpNetwork(engine)
    mbox = tcpnet.add_host("mbox", 10 * GBPS, "core")
    clients = [
        tcpnet.add_host(f"client{i}", 1 * GBPS, "edge")
        for i in range(N_CLIENT_HOSTS)
    ]
    backends = [
        tcpnet.add_host(f"backend{i}", 1 * GBPS, "edge")
        for i in range(n_backends)
    ]
    return engine, tcpnet, mbox, clients, backends


def _run_request_clients(
    engine,
    tcpnet,
    clients,
    mbox,
    port: int,
    *,
    system: str,
    x: float,
    codec,
    closed_loop,
    concurrency: int,
    requests_per_client: int,
    arrival,
    total_requests: Optional[int],
    seed: int,
    slo_us: Optional[float],
    admission,
    class_mix,
    fault,
    platforms,
    scoreboard,
) -> RunResult:
    """Drive the clients of a request/response testbed to completion.

    Builds the population — :class:`OpenLoopClients` speaking ``codec``
    when ``arrival`` is set, the ``closed_loop`` population class
    otherwise — against ``(mbox, port)``, drains the engine, and
    assembles the :class:`RunResult`: client-side accounting, the
    schedulers' steal/allocator counters over ``platforms`` and the
    fault's counters in ``extra``, ``scoreboard``'s per-class summary.
    """
    if arrival is not None:
        population = OpenLoopClients(
            engine,
            tcpnet,
            clients,
            mbox,
            port,
            codec=codec,
            arrival=resolve_arrival(arrival),
            n_requests=(
                total_requests
                if total_requests is not None
                else concurrency * requests_per_client
            ),
            connections=concurrency,
            seed=seed,
            slo_us=slo_us,
            admission=admission,
            class_mix=class_mix,
            scoreboard=scoreboard,
            **(fault.population_kwargs() if fault is not None else {}),
        )
    else:
        population = closed_loop(
            engine,
            tcpnet,
            clients,
            mbox,
            port,
            concurrency=concurrency,
            requests_per_client=requests_per_client,
            warmup_requests=max(2, requests_per_client // 10),
        )
    population.start()
    engine.run()
    if not population.finished:
        raise RuntimeError(f"{system} x={x}: workload did not complete")
    if arrival is not None:
        extra = _open_loop_extra(population)
    else:
        extra = _closed_loop_extra(
            population, concurrency * requests_per_client, slo_us
        )
    extra.update(_steal_extra(platforms))
    extra.update(_alloc_extra(platforms))
    if fault is not None:
        extra.update(fault.counters(population))
    return RunResult(
        system=system,
        x=x,
        throughput=population.kreqs_per_sec(),
        latency_ms=population.mean_latency_ms(),
        extra=extra,
        class_stats=scoreboard.summary() if scoreboard is not None else {},
        admission_stats=(
            population.admission_summary() if arrival is not None else {}
        ),
    )


# ---------------------------------------------------------------------------
# E1 + Figure 4: HTTP (static web server and load balancer)
# ---------------------------------------------------------------------------


def run_http_experiment(
    system: str,
    concurrency: int,
    persistent: bool = True,
    mode: str = "lb",
    cores: int = 16,
    requests_per_client: int = 40,
    timeslice_us: float = 50.0,
    graph_pool_size: Optional[int] = None,
    policy=None,
    topology=None,
    service_classes=None,
    slo_us: Optional[float] = None,
    arrival=None,
    total_requests: Optional[int] = None,
    seed: int = 0xF11C,
    allocator="static",
    admission="admit-all",
    class_mix=(),
    shards: int = 1,
    routing="hash-affinity",
    fail_shard_at_us: Optional[float] = None,
    faults=None,
) -> RunResult:
    """One data point of Figure 4 (mode='lb') or the §6.3 web test
    (mode='web').

    ``faults`` (a registered :mod:`repro.net.faults` name or a
    :class:`~repro.net.faults.FaultPolicy` instance) injects an
    adversarial condition: backend slowdowns/flaps, connection churn,
    or an impatient retry storm.  Open-loop single-platform runs only;
    injected counters land in the result's ``extra`` under ``fault_*``
    keys.

    ``arrival`` (an :class:`~repro.workloads.arrivals.ArrivalProcess`
    or registered name) switches the client side from the closed-loop
    ApacheBench population to :class:`~repro.workloads.arrivals.\
OpenLoopClients`: ``concurrency`` becomes the size of the persistent
    connection pool and ``total_requests`` the number of admissions
    (default ``concurrency * requests_per_client``).  ``policy`` /
    ``topology`` / ``service_classes`` / ``slo_us`` / ``allocator``
    thread straight into the platform's
    :class:`~repro.runtime.costs.RuntimeConfig`; ``slo_us``
    additionally drives client-side SLO-miss accounting.  ``admission``
    and ``class_mix`` configure the open-loop population's admission
    control (open loop only — closed-loop clients self-throttle, so
    there is nothing to shed).

    ``shards`` > 1 switches to the cluster tier: ``shards`` identical
    platforms, each on its own 10 Gbps core host, behind one
    :class:`~repro.cluster.fleet.ShardRouter` on the public ``mbox``
    host (placement chosen by the registered ``routing`` policy);
    clients connect to the router exactly as to one middlebox, and LB
    mode shares one backend pool across the fleet.  ``shards == 1`` is
    the same body with the one platform on ``mbox`` and no router.
    ``fail_shard_at_us`` kills the highest-indexed shard — the one
    whose loss exercises ring-segment hand-off to every survivor — at
    that virtual time (failover drills).  The cluster tier requires a
    FLICK system and an open-loop ``arrival`` (failure accounting lives
    in the open-loop population).
    """
    if mode not in ("lb", "web"):
        raise ValueError(f"unknown mode {mode!r}")
    if system not in FLICK_SYSTEMS + HTTP_BASELINES:
        raise ValueError(f"unknown system {system!r}")
    use_backends = mode == "lb"
    fault = _resolve_fault(faults, system)
    check_request_axes(
        open_loop=arrival is not None,
        uses_admission=admission != "admit-all" or bool(class_mix),
        fault=fault,
        has_backends=use_backends,
        shards=shards,
        routing=routing,
        fail_shard_at_us=fail_shard_at_us,
    )
    if shards > 1 and system not in FLICK_SYSTEMS:
        raise ConfigError(
            f"the cluster tier shards FLICK platforms; {system!r} "
            "is a cost-model baseline"
        )
    engine, tcpnet, mbox, clients, backend_hosts = _build_topology()
    if not use_backends:
        backend_hosts = []
    # The servers stay alive through the run via their socket callbacks.
    backend_servers = [
        BackendWebServer(engine, tcpnet, host, 8080) for host in backend_hosts
    ]
    targets = [OutboundTarget(host, 8080) for host in backend_hosts]

    router = None
    platforms = []
    if system in FLICK_SYSTEMS:
        config = RuntimeConfig(
            cores=cores,
            stack=_stack_of(system),
            timeslice_us=timeslice_us,
            graph_pool_size=(
                graph_pool_size if graph_pool_size is not None else 512
            ),
            policy="cooperative" if policy is None else policy,
            topology=topology,
            service_classes=service_classes,
            slo_us=slo_us,
            allocator=allocator,
            backend_close_teardown=(
                fault is not None and fault.tears_down_on_backend_close
            ),
        )
        if shards > 1:
            router = ShardRouter(
                engine, tcpnet, mbox, 80, routing=routing, seed=seed
            )
        for i in range(shards):
            host = (
                mbox
                if router is None
                else tcpnet.add_host(f"shard{i}", 10 * GBPS, "core")
            )
            if use_backends:
                program = http_lb.compile_http_lb()
            else:
                program = http_lb.compile_static_web()
            platform = FlickPlatform(
                engine, tcpnet, host, config, http_lb.http_codec_registry(program)
            )
            if use_backends:
                platform.register_program(
                    program, "HttpBalancer", 80, http_lb.lb_bindings(targets)
                )
            else:
                platform.register_program(program, "StaticWeb", 80)
            platform.start()
            if router is not None:
                router.add_shard(platform, 80)
            platforms.append(platform)
        if router is not None:
            router.start()
            if fail_shard_at_us is not None:
                router.fail_shard_at(shards - 1, fail_shard_at_us)
    elif system == "apache":
        ApacheServer(engine, tcpnet, mbox, 80, cores=cores, backends=targets or None)
    else:
        NginxServer(engine, tcpnet, mbox, 80, cores=cores, backends=targets or None)

    if fault is not None:
        fault.install(engine, backend_servers)

    if router is not None:
        scoreboard = router.scoreboard
    else:
        scoreboard = platforms[0].scoreboard if platforms else None
    result = _run_request_clients(
        engine,
        tcpnet,
        clients,
        mbox,
        80,
        system=system,
        x=concurrency,
        codec=HttpRequestCodec(),
        closed_loop=partial(HttpClientPopulation, persistent=persistent),
        concurrency=concurrency,
        requests_per_client=requests_per_client,
        arrival=arrival,
        total_requests=total_requests,
        seed=seed,
        slo_us=slo_us,
        admission=admission,
        class_mix=class_mix,
        fault=fault,
        platforms=platforms,
        scoreboard=scoreboard,
    )
    if router is not None:
        result.cluster_stats = {
            "shards": shards,
            "routing": router.routing_name,
            "alive_shards": router.alive_shards,
            "connections_routed": router.connections_routed,
            "connections_refused": router.connections_refused,
            "failed_over_connections": router.failed_over_connections,
            "failed_shards": list(router.failed_shards),
            "per_shard": router.shard_report(),
        }
    return result


# ---------------------------------------------------------------------------
# Figure 5: Memcached proxy vs CPU cores
# ---------------------------------------------------------------------------


def run_memcached_experiment(
    system: str,
    cores: int,
    concurrency: int = 128,
    requests_per_client: int = 40,
    specialised_parser: bool = True,
    cache_router: bool = False,
    key_space: int = 10_000,
    value_bytes: int = 64,
    policy=None,
    topology=None,
    service_classes=None,
    slo_us: Optional[float] = None,
    arrival=None,
    total_requests: Optional[int] = None,
    seed: int = 0xF11C,
    allocator="static",
    admission="admit-all",
    class_mix=(),
    faults=None,
) -> RunResult:
    """One data point of Figure 5 (or the parser/cache ablations).

    ``arrival`` switches the client side to the open-loop population,
    exactly as in :func:`run_http_experiment`; ``allocator`` /
    ``admission`` / ``class_mix`` / ``faults`` thread the same way
    (the memcached proxy always has backend servers, so every
    registered fault applies here).
    """
    if system not in FLICK_SYSTEMS + ("moxi",):
        raise ValueError(f"unknown system {system!r}")
    fault = _resolve_fault(faults, system)
    check_request_axes(
        open_loop=arrival is not None,
        uses_admission=admission != "admit-all" or bool(class_mix),
        fault=fault,
    )
    engine, tcpnet, mbox, clients, backend_hosts = _build_topology()
    filler = b"v" * value_bytes
    backend_servers = [
        BackendMemcachedServer(
            engine, tcpnet, host, 11211, value_fn=lambda key: filler
        )
        for host in backend_hosts
    ]
    targets = [OutboundTarget(host, 11211) for host in backend_hosts]

    platforms = []
    if system in FLICK_SYSTEMS:
        if cache_router:
            program = memcached_proxy.compile_cache_router()
            proc_name = "memcached"
        else:
            program = memcached_proxy.compile_proxy()
            proc_name = "Memcached"
        config = RuntimeConfig(
            cores=cores,
            stack=_stack_of(system),
            policy="cooperative" if policy is None else policy,
            topology=topology,
            service_classes=service_classes,
            slo_us=slo_us,
            allocator=allocator,
            backend_close_teardown=(
                fault is not None and fault.tears_down_on_backend_close
            ),
        )
        platform = FlickPlatform(
            engine,
            tcpnet,
            mbox,
            config,
            memcached_proxy.memcached_codec_registry(
                program, specialised=specialised_parser
            ),
        )
        platform.register_program(
            program,
            proc_name,
            11211,
            memcached_proxy.proxy_bindings(targets),
        )
        platform.start()
        platforms.append(platform)
    else:
        MoxiProxy(engine, tcpnet, mbox, 11211, targets, cores=cores)

    if fault is not None:
        fault.install(engine, backend_servers)

    result = _run_request_clients(
        engine,
        tcpnet,
        clients,
        mbox,
        11211,
        system=system,
        x=cores,
        codec=MemcachedRequestCodec(key_space=key_space),
        closed_loop=partial(MemcachedClientPopulation, key_space=key_space),
        concurrency=concurrency,
        requests_per_client=requests_per_client,
        arrival=arrival,
        total_requests=total_requests,
        seed=seed,
        slo_us=slo_us,
        admission=admission,
        class_mix=class_mix,
        fault=fault,
        platforms=platforms,
        scoreboard=platforms[0].scoreboard if platforms else None,
    )
    result.extra["backend_requests"] = float(
        sum(server.requests_served for server in backend_servers)
    )
    return result


# ---------------------------------------------------------------------------
# Figure 6: Hadoop data aggregator vs CPU cores
# ---------------------------------------------------------------------------

#: Link scaling for the Hadoop testbed: interpreted per-pair compute costs
#: are far above the paper's generated C++, so links are scaled by the
#: matching factor to preserve the compute/network balance (DESIGN.md §3).  The
#: plateau is then ~20 Mbps (pipeline-bound) instead of the paper's ~7,513 Mbps.
HADOOP_LINK_SCALE = 0.012


def run_hadoop_experiment(
    cores: int,
    word_len: int = 8,
    data_kb_per_mapper: int = 96,
    n_mappers: int = 8,
    stack: str = "kernel",
    policy=None,
    topology=None,
    slo_us: Optional[float] = None,
    arrival=None,
    seed: int = 0xF11C,
    allocator="static",
) -> RunResult:
    """One data point of Figure 6: aggregate ingress throughput (Mb/s).

    ``arrival`` (an arrival process or registered name) staggers the
    mappers: instead of all ``n_mappers`` connecting at time zero (the
    paper's setup), mapper ``i`` starts at the ``i``-th arrival tick —
    modelling a job whose map tasks finish, and ship their output, on
    the cluster scheduler's clock rather than in lockstep.  A finite
    trace shorter than ``n_mappers`` starts the remainder at the last
    stamp.
    """
    engine = Engine()
    tcpnet = TcpNetwork(engine)
    scale = HADOOP_LINK_SCALE
    mbox = tcpnet.add_host("mbox", 10 * GBPS * scale, "core")
    reducer_host = tcpnet.add_host("reducer", 10 * GBPS * scale, "core")
    mapper_hosts = [
        tcpnet.add_host(f"mapper{i}", 1 * GBPS * scale, "edge")
        for i in range(n_mappers)
    ]
    tcpnet.network._trunk_rate = 20 * GBPS * scale

    sink = ReducerSink(engine, tcpnet, reducer_host, 9000)
    platform = FlickPlatform(
        engine,
        tcpnet,
        mbox,
        RuntimeConfig(
            cores=cores,
            stack=stack,
            policy="cooperative" if policy is None else policy,
            topology=topology,
            slo_us=slo_us,
            allocator=allocator,
        ),
        hadoop_agg.hadoop_codec_registry(),
    )
    platform.register_program(
        hadoop_agg.compile_hadoop(),
        "hadoop",
        9100,
        hadoop_agg.hadoop_bindings(reducer_host, 9000, n_mappers),
    )
    platform.start()

    outputs = [
        generate_mapper_output(
            i, data_kb_per_mapper * 1024, word_len, vocabulary=4096
        )
        for i in range(n_mappers)
    ]
    mappers = [
        Mapper(engine, tcpnet, host, mbox, 9100, pairs)
        for host, pairs in zip(mapper_hosts, outputs)
    ]
    total_bytes = sum(m.bytes_total for m in mappers)
    if arrival is not None:
        gaps = resolve_arrival(arrival).gaps(random.Random(seed))
        start_at = 0.0
        for mapper in mappers:
            start_at += next(gaps, 0.0)
            engine.schedule(start_at, mapper.start)
    else:
        for mapper in mappers:
            mapper.start()
    engine.run()
    if sink.finished_at is None:
        raise RuntimeError(f"hadoop cores={cores}: aggregation did not finish")
    extra = {
        "ingress_bytes": float(total_bytes),
        "egress_bytes": float(sink.bytes_received),
        "word_len": float(word_len),
    }
    extra.update(_steal_extra([platform]))
    extra.update(_alloc_extra([platform]))
    return RunResult(
        system=f"flick-{stack}",
        x=cores,
        throughput=throughput_mbps(total_bytes, sink.finished_at),
        latency_ms=sink.finished_at / 1000.0,
        extra=extra,
        class_stats=platform.scoreboard.summary(),
    )
