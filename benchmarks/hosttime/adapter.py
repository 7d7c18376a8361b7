"""The benchmark's whole view of ``repro``: every import lives here.

The harness pins a small public surface (listed symbol by symbol in
``README.md``).  A refactor that moves or renames one of these names
keeps the benchmark — and so the host-time trajectory — comparable by
leaving a thin compatibility wrapper behind, or by changing this file
alone in a ``benchmark`` issue.

Module level imports only what the four end-to-end workloads need, so
``setup_s`` is the cost a user of the testbeds pays.  The per-layer
probes fetch their targets through the ``*_surface`` functions, which
import lazily: a probe whose target has gone reports ``null`` and the
run continues, while a missing testbed is fatal.

Every testbed is called with keyword arguments only.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.apps import hadoop_agg, http_lb, memcached_proxy
from repro.bench.testbeds import (
    run_hadoop_experiment,
    run_http_experiment,
    run_memcached_experiment,
)
from repro.workloads.arrivals import make_arrival


def _sized(base: int, scale: float) -> int:
    return max(1, round(base * scale))


# -- set-up: the program and codec registry each testbed call builds --------


def _setup_memcached() -> None:
    memcached_proxy.memcached_codec_registry(
        memcached_proxy.compile_proxy(), specialised=True
    )


def _setup_http() -> None:
    http_lb.compile_http_lb()
    http_lb.http_codec_registry()


def _setup_hadoop() -> None:
    hadoop_agg.compile_hadoop()
    hadoop_agg.hadoop_codec_registry()


# -- the four testbed calls ----------------------------------------------------


def _run_memcached_steady(seed: int, scale: float):
    return run_memcached_experiment(
        system="flick-kernel",
        cores=8,
        concurrency=64,
        arrival=make_arrival("poisson", rate_rps=40_000.0),
        total_requests=_sized(8192, scale),
        slo_us=2000.0,
        seed=seed,
    )


def _run_http_overload(seed: int, scale: float):
    return run_http_experiment(
        system="flick-kernel",
        concurrency=64,
        mode="lb",
        cores=8,
        arrival=make_arrival("poisson", rate_rps=160_000.0),
        total_requests=_sized(16384, scale),
        slo_us=2000.0,
        class_mix=(("gold", 1.0), ("bronze", 1.0)),
        seed=seed,
    )


def _run_http_churn(seed: int, scale: float):
    return run_http_experiment(
        system="flick-kernel",
        concurrency=64,
        persistent=False,
        mode="lb",
        cores=8,
        requests_per_client=_sized(40, scale),
        seed=seed,
    )


def _run_hadoop_agg(seed: int, scale: float):
    return run_hadoop_experiment(
        cores=8,
        data_kb_per_mapper=_sized(48, scale),
        n_mappers=8,
        seed=seed,
    )


def _summarise_requests(result) -> dict:
    """The simulated numbers of a request workload (all exact).

    The closed loop has no admission door: every offered request is
    admitted, none is shed, failed or retried, and the testbed reports
    only ``offered``/``completed``.
    """
    extra = result.extra
    offered = int(extra["offered"])
    return {
        "ops": int(extra["completed"]),
        "offered_ops": offered,
        "sim_throughput": result.throughput,
        "sim_latency_ms": extra["p99_ms"],
        "latency_samples": int(extra["measured"]),
        "offered": offered,
        "admitted": int(extra.get("admitted", offered)),
        "shed": int(extra.get("shed", 0)),
        "completed": int(extra["completed"]),
        "failed": int(extra.get("failed", 0)),
        "retried": int(extra.get("retried", 0)),
        "errors": int(extra["errors"]),
    }


def _summarise_hadoop(result) -> dict:
    """Ops are KiB ingested; latency is the job's completion time."""
    extra = result.extra
    ingress_kib = extra["ingress_bytes"] / 1024.0
    finished = extra["egress_bytes"] > 0
    return {
        "ops": ingress_kib if finished else 0.0,
        "offered_ops": ingress_kib,
        "sim_throughput": result.throughput,
        "sim_latency_ms": result.latency_ms,
        "latency_samples": 1,
        "ingress_bytes": int(extra["ingress_bytes"]),
        "egress_bytes": int(extra["egress_bytes"]),
    }


#: name -> (set-up, testbed call, result summary), in round-robin order.
WORKLOADS = {
    "memcached-steady": (_setup_memcached, _run_memcached_steady, _summarise_requests),
    "http-overload": (_setup_http, _run_http_overload, _summarise_requests),
    "http-churn": (_setup_http, _run_http_churn, _summarise_requests),
    "hadoop-agg": (_setup_hadoop, _run_hadoop_agg, _summarise_hadoop),
}


def setup_workload(name: str) -> None:
    WORKLOADS[name][0]()


def run_workload(name: str, seed: int, scale: float) -> dict:
    """One testbed call; returns the simulated summary."""
    _, run, summarise = WORKLOADS[name]
    return summarise(run(seed, scale))


# -- probe surfaces: lazy, one per layer --------------------------------------


def compile_surface() -> dict:
    """Workload name -> the program compiler its testbed uses."""
    return {
        "memcached-steady": memcached_proxy.compile_proxy,
        "http-overload": http_lb.compile_http_lb,
        "http-churn": http_lb.compile_http_lb,
        "hadoop-agg": hadoop_agg.compile_hadoop,
    }


def grammar_surface() -> SimpleNamespace:
    from repro.grammar.engine import make_codec
    from repro.grammar.protocols import hadoop, http, memcached

    return SimpleNamespace(
        make_codec=make_codec, memcached=memcached, http=http, hadoop=hadoop
    )


def lang_surface() -> SimpleNamespace:
    from repro.lang import types
    from repro.lang.compiler import build_foldt_handler, build_rule_handler
    from repro.lang.values import Record

    return SimpleNamespace(
        types=types,
        Record=Record,
        build_rule_handler=build_rule_handler,
        build_foldt_handler=build_foldt_handler,
        request_programs=(
            memcached_proxy.compile_proxy, http_lb.compile_http_lb
        ),
        compile_hadoop=hadoop_agg.compile_hadoop,
    )


def sim_surface() -> SimpleNamespace:
    from repro.sim.engine import Engine
    from repro.sim.stats import LatencySeries

    return SimpleNamespace(Engine=Engine, LatencySeries=LatencySeries)


def net_surface() -> SimpleNamespace:
    from repro.core.units import GBPS
    from repro.net.tcp import TcpNetwork
    from repro.sim.engine import Engine

    return SimpleNamespace(Engine=Engine, TcpNetwork=TcpNetwork, GBPS=GBPS)


def runtime_surface() -> SimpleNamespace:
    from repro.core.units import GBPS
    from repro.net.tcp import TcpNetwork
    from repro.runtime.channel import TaskChannel
    from repro.runtime.costs import RuntimeConfig
    from repro.runtime.platform import FlickPlatform
    from repro.sim.engine import Engine

    return SimpleNamespace(
        Engine=Engine,
        TcpNetwork=TcpNetwork,
        GBPS=GBPS,
        TaskChannel=TaskChannel,
        RuntimeConfig=RuntimeConfig,
        FlickPlatform=FlickPlatform,
        compile_static_web=http_lb.compile_static_web,
        http_codec_registry=http_lb.http_codec_registry,
    )


def core_surface() -> SimpleNamespace:
    from repro.core.ids import stable_hash

    return SimpleNamespace(stable_hash=stable_hash)


def workloads_surface() -> SimpleNamespace:
    from repro.workloads.hadoop_mappers import generate_mapper_output

    return SimpleNamespace(
        make_arrival=make_arrival,
        generate_mapper_output=generate_mapper_output,
    )


def cluster_surface() -> SimpleNamespace:
    from repro.cluster.ring import HashRing

    return SimpleNamespace(HashRing=HashRing)
