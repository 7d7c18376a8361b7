#!/usr/bin/env python
"""Per-endpoint SLO service classes: gold and bronze traffic sharing
one FLICK middlebox.

Two angles on the service-class QoS subsystem:

1. **Platform threading** — two compiled FLICK programs (``Gold`` and
   ``Bronze``) run on one platform under the ``deadline`` policy.  A
   :class:`~repro.runtime.qos.ServiceClassMap` parsed from per-endpoint
   specs gives gold connections a 1 ms SLO (weight 4) and bronze ones 50 ms
   (weight 1); the task graphs stamp each connection task with its
   endpoint's class and the scheduler's scoreboard reports completions,
   latency and SLO misses per class.

2. **Figure-7 workload** — the scheduling microbenchmark under a
   two-class map: gold (light) tasks get tight EDF deadlines, bronze
   (heavy) ones slack, so gold SLO misses collapse versus a
   single-class platform at the same load.

Run:  python examples/slo_classes.py
"""

from repro import Engine, FlickPlatform, RuntimeConfig, compile_source
from repro.apps import http_lb
from repro.bench.scheduling import run_scheduling_experiment
from repro.core.units import GBPS
from repro.net.tcp import TcpNetwork
from repro.runtime.qos import parse_slo_class_specs
from repro.workloads.arrivals import ClientPopulation, HttpRequestCodec

TWO_TIER_SOURCE = """
type http_req: record
    method : string
    path : string

type http_resp: record
    status : integer
    body : string

proc Gold: (http_req/http_resp gold)
    gold => respond() => gold

proc Bronze: (http_req/http_resp bronze)
    bronze => respond() => bronze

fun respond: (req: http_req) -> (http_resp)
    http_resp(200, "ok")
"""

#: Each proc names its inbound endpoint after its tier, so one map
#: classifies both programs by endpoint name.
SERVICE_CLASSES = parse_slo_class_specs(
    ["gold=gold:1000@4", "bronze=bronze:50000"]
)


def shared_platform() -> None:
    """Gold and bronze programs on one middlebox, accounted per class."""
    engine = Engine()
    tcpnet = TcpNetwork(engine)
    middlebox = tcpnet.add_host("middlebox", 10 * GBPS, "core")
    gold_users = [tcpnet.add_host(f"g{i}", 1 * GBPS, "edge") for i in range(2)]
    bronze_users = [tcpnet.add_host(f"b{i}", 1 * GBPS, "edge") for i in range(2)]

    config = RuntimeConfig(
        cores=4,
        policy="deadline",
        service_classes=SERVICE_CLASSES,
        topology="two-socket",
    )
    platform = FlickPlatform(
        engine, tcpnet, middlebox, config, http_lb.http_codec_registry()
    )
    program = compile_source(TWO_TIER_SOURCE)
    platform.register_program(program, "Gold", 8001)
    platform.register_program(program, "Bronze", 8002)
    platform.start()

    for hosts, port in ((gold_users, 8001), (bronze_users, 8002)):
        ClientPopulation(
            engine, tcpnet, hosts, middlebox, port, HttpRequestCodec(),
            connections=8, n_requests=10, warmup_requests=0,
        ).start()
    engine.run()

    print("one platform, two tiers (policy: deadline, two-socket):")
    print(f"{'class':8s} {'completions':>11s} {'misses':>7s} "
          f"{'mean':>9s} {'p99':>9s}")
    for name, stats in sorted(platform.scoreboard.summary().items()):
        print(f"{name:8s} {stats['completions']:11.0f} "
              f"{stats['misses']:7.0f} {stats['mean_ms']:7.2f}ms "
              f"{stats['p99_ms']:7.2f}ms")


def figure7_two_class() -> None:
    """Gold SLO misses: single-class platform vs gold/bronze classes."""
    kwargs = dict(n_tasks=40, items_per_task=40, cores=8)
    single = run_scheduling_experiment(
        "deadline",
        service_classes=parse_slo_class_specs(
            ["light=uniform:1000", "heavy=uniform:1000"]
        ),
        **kwargs,
    )
    tiered = run_scheduling_experiment(
        "deadline",
        service_classes=parse_slo_class_specs(
            ["light=gold:1000@4", "heavy=bronze:50000"]
        ),
        **kwargs,
    )
    # In the single-class run every task shares the 1 ms target; the
    # gold population is the light half, so compare the light tasks'
    # outcomes against the tiered run's gold class.
    print("Figure-7 workload, gold (=light) SLO misses at 1 ms:")
    print(f"  single class : {single.class_stats['uniform']['misses']:.0f} "
          f"misses / {single.class_stats['uniform']['completions']:.0f} "
          "tasks (gold drowned by bronze)")
    gold = tiered.class_stats["gold"]
    print(f"  gold/bronze  : {gold['misses']:.0f} misses / "
          f"{gold['completions']:.0f} gold tasks "
          f"(mean {gold['mean_ms']:.2f} ms)")
    assert gold["misses"] < single.class_stats["uniform"]["misses"]


def main() -> None:
    shared_platform()
    print()
    figure7_two_class()


if __name__ == "__main__":
    main()
