"""Declarative scenario matrix: app x arrival process x policy x topology.

A :class:`Scenario` is a named tuple describing one end-to-end run —
which app (``http_lb`` / ``memcached_proxy`` / ``hadoop_agg``), which
arrival process (a :mod:`repro.workloads.arrivals` registry name, or
``None`` for the paper's closed-loop clients), which scheduling policy,
core topology, service classes and core count.  :data:`SCENARIOS` is the
built-in matrix; ``python -m repro.bench scenarios`` runs it (or a
``--scenario`` filter) on the existing testbeds and emits the
machine-readable ``BENCH_scenarios.json`` through
:mod:`repro.bench.results`.

The matrix deliberately pairs ``http-overload-open`` with
``http-overload-closed``: the same middlebox, connection pool, SLO and
request volume, once driven open-loop past saturation and once by
self-throttling closed-loop clients.  The open-loop run accumulates
queueing latency and misses its SLO; the closed-loop run never does —
the blind spot of ApacheBench-style evaluation, now a pinned number.

The fault-injection entries (``faults=`` names a
:mod:`repro.net.faults` registry entry) pin adversarial conditions the
same way: the ``http-retry-storm`` / ``http-retry-storm-shed`` pair
drives identical impatient-client load once into ``cooperative`` +
``admit-all`` (retries amplify the overload — the metastable feedback
loop) and once into ``deadline`` + ``shed-bronze`` (the door sheds the
amplification), so "admission control breaks the retry storm" is a
gated number rather than a claim.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from repro.apps import hadoop_agg, http_lb, memcached_proxy
from repro.bench.testbeds import (
    check_request_axes,
    run_hadoop_experiment,
    run_http_experiment,
    run_memcached_experiment,
)
from repro.cluster.routing import ROUTINGS
from repro.core.errors import ConfigError, FlickError
from repro.core.registry import Registry, did_you_mean
from repro.net.faults import FAULTS, make_fault
from repro.runtime.admission import ADMISSIONS, make_admission
from repro.runtime.allocator import ALLOCATORS
from repro.runtime.policy import POLICIES
from repro.runtime.qos import parse_slo_class_specs
from repro.runtime.scheduler import TaskBase
from repro.workloads.arrivals import ARRIVALS, make_arrival

#: Apps a scenario can target, and the endpoint names their programs
#: expose to ``service_classes`` specs.
APP_ENDPOINTS: Dict[str, Tuple[str, ...]] = {
    "http_lb": (http_lb.CLIENT_ENDPOINT,),
    "memcached_proxy": (memcached_proxy.CLIENT_ENDPOINT,),
    "hadoop_agg": (hadoop_agg.CLIENT_ENDPOINT,),
}


class Scenario(NamedTuple):
    """One declarative entry of the matrix (all fields hashable)."""

    name: str
    app: str
    #: Registered arrival-process name, or ``None`` for closed-loop.
    arrival: Optional[str]
    #: Parameters for :func:`~repro.workloads.arrivals.make_arrival`.
    arrival_params: Tuple[Tuple[str, object], ...] = ()
    policy: str = "cooperative"
    topology: Optional[str] = None
    #: ``--slo-class``-style specs (``endpoint=[name:]slo_us[@weight]``).
    service_classes: Tuple[str, ...] = ()
    cores: int = 8
    #: Persistent connection pool (open-loop) / concurrency (closed-loop).
    connections: int = 64
    #: Total requests; scaled down by ``--quick``.
    requests: int = 4096
    #: Client-side SLO in ms; completions slower than this are misses.
    slo_ms: Optional[float] = None
    #: http_lb only: "lb" (with backends) or "web" (static server).
    mode: str = "lb"
    #: Registered core-allocator name (``static`` = fixed worker set).
    allocator: str = "static"
    #: Registered admission-policy name (open-loop scenarios only).
    admission: str = "admit-all"
    #: Parameters for :func:`~repro.runtime.admission.make_admission`.
    admission_params: Tuple[Tuple[str, object], ...] = ()
    #: ``((class_name, weight), ...)`` service-class labels applied to
    #: arrivals by weighted round-robin (open-loop scenarios only).
    class_mix: Tuple[Tuple[str, float], ...] = ()
    #: Cluster tier: platforms behind one shard router (1 = classic
    #: single-middlebox path, no router in the topology).
    shards: int = 1
    #: Registered routing-policy name (shards > 1 only).
    routing: str = "hash-affinity"
    #: Kill the highest-indexed shard at this virtual µs (shards > 1).
    fail_shard_at_us: Optional[float] = None
    #: Registered fault-injector name (open-loop, single-platform only).
    faults: Optional[str] = None
    #: Parameters for :func:`~repro.net.faults.make_fault`.
    fault_params: Tuple[Tuple[str, object], ...] = ()


#: :class:`Scenario` field → the registry its value names.  Scenario
#: validation, the CLI's override flags and ``docs/registries.md`` all
#: iterate this table, so a new axis is wired here once.
AXES: Dict[str, Registry] = {
    "policy": POLICIES,
    "allocator": ALLOCATORS,
    "admission": ADMISSIONS,
    "routing": ROUTINGS,
    "arrival": ARRIVALS,
    "faults": FAULTS,
}


def _burst_trace(
    bursts: int, per_burst: int, gap_us: float, spacing_us: float
) -> Tuple[float, ...]:
    """A deterministic replay trace: square bursts separated by silence."""
    stamps = []
    for burst in range(bursts):
        start = burst * spacing_us
        stamps.extend(start + i * gap_us for i in range(per_burst))
    return tuple(stamps)


#: The built-in matrix.  Rates are calibrated against the 8-core
#: testbeds: http_lb saturates near ~110 kreq/s and the memcached proxy
#: near ~100 kreq/s, so the "overload" entries offer well past capacity
#: while the steady entries sit at roughly 40% utilisation.
SCENARIOS: Tuple[Scenario, ...] = (
    # Moderate-load closed-loop sanity point (half the overload pair's
    # connection pool, so it is NOT a duplicate of http-overload-closed).
    Scenario(
        name="http-closed-baseline",
        app="http_lb",
        arrival=None,
        connections=32,
        requests=2048,
        slo_ms=2.0,
    ),
    Scenario(
        name="http-open-poisson",
        app="http_lb",
        arrival="poisson",
        arrival_params=(("rate_rps", 40_000.0),),
        slo_ms=2.0,
    ),
    Scenario(
        name="http-open-bursty",
        app="http_lb",
        arrival="bursty",
        arrival_params=(
            ("burst_rate_rps", 80_000.0),
            ("mean_on_us", 10_000.0),
            ("mean_off_us", 10_000.0),
        ),
        slo_ms=2.0,
    ),
    Scenario(
        name="http-web-ramp",
        app="http_lb",
        mode="web",
        arrival="ramp",
        arrival_params=(
            ("start_rps", 20_000.0),
            ("end_rps", 250_000.0),
            ("duration_us", 60_000.0),
        ),
        slo_ms=2.0,
    ),
    Scenario(
        name="http-overload-open",
        app="http_lb",
        arrival="poisson",
        arrival_params=(("rate_rps", 160_000.0),),
        slo_ms=2.0,
        class_mix=(("gold", 1.0), ("bronze", 1.0)),
    ),
    # The overload-survival headline: identical offered load to
    # http-overload-open, but bronze arrivals are shed above an
    # in-flight watermark sized so queueing delay stays inside the SLO —
    # gold misses stop scaling with run length (startup transient only)
    # where admit-all's grow without bound.
    Scenario(
        name="http-overload-shed",
        app="http_lb",
        arrival="poisson",
        arrival_params=(("rate_rps", 160_000.0),),
        slo_ms=2.0,
        admission="shed-bronze",
        admission_params=(("max_inflight", 96),),
        class_mix=(("gold", 1.0), ("bronze", 1.0)),
    ),
    Scenario(
        name="http-overload-closed",
        app="http_lb",
        arrival=None,
        slo_ms=2.0,
    ),
    # The metastable retry storm: the overload pair's offered load, but
    # clients give up after the SLO and re-offer (up to 3 times) — the
    # classic feedback loop where retries amplify the very overload that
    # caused them.  Under cooperative + admit-all the amplification
    # lands unchecked; the -shed sibling routes the identical storm
    # through deadline scheduling + bronze shedding, which breaks the
    # loop at the door.  The pair is the faults plane's acceptance gate.
    Scenario(
        name="http-retry-storm",
        app="http_lb",
        arrival="poisson",
        arrival_params=(("rate_rps", 160_000.0),),
        slo_ms=2.0,
        class_mix=(("gold", 1.0), ("bronze", 1.0)),
        faults="retry-storm",
        fault_params=(("retry_after_us", 2_000.0), ("max_retries", 3)),
    ),
    Scenario(
        name="http-retry-storm-shed",
        app="http_lb",
        arrival="poisson",
        arrival_params=(("rate_rps", 160_000.0),),
        policy="deadline",
        slo_ms=2.0,
        admission="shed-bronze",
        admission_params=(("max_inflight", 96),),
        class_mix=(("gold", 1.0), ("bronze", 1.0)),
        faults="retry-storm",
        fault_params=(("retry_after_us", 2_000.0), ("max_retries", 3)),
    ),
    # Backend-side fault drills at comfortable load: service-time
    # inflation windows (slow-backend) and bounded up/down flaps with
    # connection resets (flapping-backend) — the injected degradation,
    # not the load, is what the pinned numbers isolate.
    Scenario(
        name="http-slow-backend",
        app="http_lb",
        arrival="poisson",
        arrival_params=(("rate_rps", 40_000.0),),
        slo_ms=2.0,
        faults="slow-backend",
        # 15 µs of backend service is noise next to the ~0.7 ms
        # middlebox path; x120 pushes slow-window responses past the
        # 2 ms SLO, so the inflation windows show up as misses.
        fault_params=(("factor", 120.0),),
    ),
    Scenario(
        name="http-flapping-backend",
        app="http_lb",
        arrival="poisson",
        arrival_params=(("rate_rps", 40_000.0),),
        slo_ms=5.0,
        faults="flapping-backend",
    ),
    # Elastic-allocation ramp: offered load sweeps from far below to far
    # past capacity, so the queue-depth allocator first parks idle
    # workers and then unparks them back up to the full core count —
    # both directions land in the alloc log and the pinned worker-count
    # envelope.
    Scenario(
        name="http-ramp-elastic",
        app="http_lb",
        mode="web",
        arrival="ramp",
        arrival_params=(
            ("start_rps", 10_000.0),
            ("end_rps", 250_000.0),
            ("duration_us", 30_000.0),
        ),
        slo_ms=2.0,
        allocator="queue-depth",
    ),
    Scenario(
        name="http-open-numa-classes",
        app="http_lb",
        arrival="poisson",
        arrival_params=(("rate_rps", 40_000.0),),
        policy="numa",
        topology="two-socket",
        service_classes=("client=gold:2000@2",),
        slo_ms=2.0,
    ),
    Scenario(
        name="memcached-open-poisson",
        app="memcached_proxy",
        arrival="poisson",
        arrival_params=(("rate_rps", 40_000.0),),
        slo_ms=2.0,
    ),
    Scenario(
        name="memcached-open-replay",
        app="memcached_proxy",
        arrival="replay",
        arrival_params=(
            (
                "timestamps_us",
                _burst_trace(
                    bursts=4, per_burst=1024, gap_us=12.5,
                    spacing_us=25_000.0,
                ),
            ),
        ),
        requests=4096,
        slo_ms=2.0,
    ),
    # Connection churn: short-lived connections recycled every 16
    # requests, so accept/teardown cost rides the steady-state number.
    Scenario(
        name="memcached-conn-churn",
        app="memcached_proxy",
        arrival="poisson",
        arrival_params=(("rate_rps", 40_000.0),),
        slo_ms=2.0,
        faults="conn-churn",
        fault_params=(("lifetime_requests", 16),),
    ),
    # Cluster-tier scaling curve: the SAME open-loop offered load
    # (800 kreq/s, far past one shard's ~110 kreq/s saturation point)
    # against 1, 2 and 4 shards — completion throughput must scale
    # with the fleet (the CI gate pins >= 1.7x per doubling).  The
    # multi-shard points route least-loaded (power-of-two-choices):
    # connection-granular hash placement is binomially imbalanced at
    # this pool size and would cap the 4-shard point below the gate.
    Scenario(
        name="http-fleet-scale-1",
        app="http_lb",
        mode="web",
        arrival="poisson",
        arrival_params=(("rate_rps", 800_000.0),),
        connections=128,
        requests=8192,
    ),
    Scenario(
        name="http-fleet-scale-2",
        app="http_lb",
        mode="web",
        arrival="poisson",
        arrival_params=(("rate_rps", 800_000.0),),
        connections=128,
        requests=8192,
        shards=2,
        routing="least-loaded",
    ),
    Scenario(
        name="http-fleet-scale-4",
        app="http_lb",
        mode="web",
        arrival="poisson",
        arrival_params=(("rate_rps", 800_000.0),),
        connections=128,
        requests=8192,
        shards=4,
        routing="least-loaded",
    ),
    # Failover drill: a 2-shard fleet at comfortable load loses one
    # shard mid-run.  The ring hands the dead segment to the survivor,
    # severed clients reconnect, and the fleet finishes degraded but
    # alive — bounded in-flight failures, no metastable collapse (the
    # CI gate pins completion and failure envelopes).
    Scenario(
        name="http-fleet-failover",
        app="http_lb",
        arrival="poisson",
        arrival_params=(("rate_rps", 60_000.0),),
        connections=64,
        requests=8192,
        slo_ms=5.0,
        shards=2,
        fail_shard_at_us=10_000.0,
    ),
    Scenario(
        name="hadoop-ramp-mappers",
        app="hadoop_agg",
        arrival="ramp",
        arrival_params=(
            ("start_rps", 50.0),
            ("end_rps", 500.0),
            ("duration_us", 50_000.0),
        ),
        cores=4,
    ),
)

SCENARIO_NAMES: Tuple[str, ...] = tuple(s.name for s in SCENARIOS)
_BY_NAME: Dict[str, Scenario] = {s.name: s for s in SCENARIOS}


def resolve_scenario_selection(selection: str) -> Tuple[Scenario, ...]:
    """Map a CLI ``--scenario`` value to matrix entries.

    ``"all"`` (the default) selects the whole matrix, otherwise a
    comma-separated list of scenario names; typos get a near-miss
    suggestion, mirroring ``--policy``.
    """
    if selection == "all":
        return SCENARIOS
    # Order-preserving dedup: `--scenario x,x` must not run x twice
    # (the second run's result would silently overwrite the first).
    names = tuple(
        dict.fromkeys(
            name.strip() for name in selection.split(",") if name.strip()
        )
    )
    if not names:
        raise ConfigError(
            f"--scenario {selection!r} selects no scenarios; known: "
            f"{', '.join(SCENARIO_NAMES)}"
        )
    unknown = [name for name in names if name not in _BY_NAME]
    if unknown:
        raise ConfigError(
            did_you_mean(
                "scenario", unknown, SCENARIO_NAMES, listed="known"
            )
        )
    return tuple(_BY_NAME[name] for name in names)


def _validate_scenario(scenario: Scenario) -> None:
    """Reject a scenario no testbed would run as written.

    A field the selected app or topology cannot honour must not be
    silently dropped — the entry would report it as if it were in
    effect and the gate would pin numbers under a config that never
    ran.  Every message gains the ``scenario 'name':`` prefix here.
    """
    try:
        _check_scenario(scenario)
    except (FlickError, ValueError) as exc:
        raise ConfigError(f"scenario {scenario.name!r}: {exc}") from None


def _check_scenario(scenario: Scenario) -> None:
    if scenario.app not in APP_ENDPOINTS:
        raise ConfigError(
            did_you_mean(
                "app", [scenario.app], sorted(APP_ENDPOINTS), listed="known"
            )
        )
    if scenario.app == "hadoop_agg":
        unsupported = [
            label
            for label, is_set in (
                ("service_classes", bool(scenario.service_classes)),
                ("slo_ms", scenario.slo_ms is not None),
            )
            if is_set
        ]
        if unsupported:
            raise ConfigError(
                f"hadoop_agg does not support {', '.join(unsupported)} "
                "(mapper streams are not per-request workloads)"
            )
    if scenario.mode != "lb" and scenario.app != "http_lb":
        raise ConfigError(
            f"mode={scenario.mode!r} is an http_lb-only field"
        )
    for field, registry in AXES.items():
        value = getattr(scenario, field)
        if value is not None:
            registry.check(value)
    if scenario.fault_params and scenario.faults is None:
        raise ConfigError(
            "fault_params without faults would be silently dropped"
        )
    if scenario.shards > 1 and scenario.app != "http_lb":
        raise ConfigError("the cluster tier shards http_lb platforms only")
    check_request_axes(
        open_loop=(
            scenario.arrival is not None and scenario.app != "hadoop_agg"
        ),
        uses_admission=(
            scenario.admission != "admit-all"
            or bool(scenario.admission_params)
            or bool(scenario.class_mix)
        ),
        fault=(
            make_fault(scenario.faults, **dict(scenario.fault_params))
            if scenario.faults is not None
            else None
        ),
        has_backends=scenario.app != "http_lb" or scenario.mode == "lb",
        shards=scenario.shards,
        routing=scenario.routing,
        fail_shard_at_us=scenario.fail_shard_at_us,
    )


def run_scenario(scenario: Scenario, quick: bool = False) -> dict:
    """Run one scenario; return its JSON-ready result dict.

    ``quick`` quarters the request volume (CI smoke sizes) — the
    committed baseline is generated with the same flag, so gate
    comparisons are like-for-like (enforced via the document envelope).
    """
    _validate_scenario(scenario)
    requests = max(256, scenario.requests // 4) if quick else scenario.requests
    arrival = None
    if scenario.arrival is not None:
        arrival = make_arrival(
            scenario.arrival, **dict(scenario.arrival_params)
        )
    class_map = (
        parse_slo_class_specs(
            scenario.service_classes,
            valid_endpoints=APP_ENDPOINTS[scenario.app],
        )
        if scenario.service_classes
        else None
    )
    slo_us = scenario.slo_ms * 1000.0 if scenario.slo_ms is not None else None
    # Closed-loop runs take the plain default so the testbed's "nothing
    # to shed" guard sees it; open-loop runs get a parameterised instance.
    admission = (
        make_admission(scenario.admission, **dict(scenario.admission_params))
        if scenario.arrival is not None and scenario.app != "hadoop_agg"
        else "admit-all"
    )
    fault = (
        make_fault(scenario.faults, **dict(scenario.fault_params))
        if scenario.faults is not None
        else None
    )

    common = dict(
        policy=scenario.policy,
        topology=scenario.topology,
        slo_us=slo_us,
        allocator=scenario.allocator,
        arrival=arrival,
    )
    # What the two request/response testbeds take beyond ``common``.
    per_request = dict(
        requests_per_client=max(1, requests // scenario.connections),
        service_classes=class_map,
        total_requests=requests,
        admission=admission,
        class_mix=scenario.class_mix,
        faults=fault,
    )
    # Scoped task ids, exactly as the fig7 sweep does: a scenario's
    # numbers must not depend on which scenarios ran before it in this
    # process (hash placement keys off task ids), and the process
    # counter must never move backwards afterwards.
    resume_from = next(TaskBase._ids)
    TaskBase.reset_ids()
    try:
        if scenario.app == "http_lb":
            result = run_http_experiment(
                "flick-kernel",
                scenario.connections,
                mode=scenario.mode,
                cores=scenario.cores,
                shards=scenario.shards,
                routing=scenario.routing,
                fail_shard_at_us=scenario.fail_shard_at_us,
                **per_request,
                **common,
            )
            unit = "kreq/s"
        elif scenario.app == "memcached_proxy":
            result = run_memcached_experiment(
                "flick-kernel",
                scenario.cores,
                concurrency=scenario.connections,
                **per_request,
                **common,
            )
            unit = "kreq/s"
        else:  # hadoop_agg
            result = run_hadoop_experiment(
                scenario.cores,
                data_kb_per_mapper=16 if quick else 48,
                **common,
            )
            unit = "Mb/s"
    finally:
        TaskBase.reset_ids(max(resume_from, next(TaskBase._ids)))

    extra = result.extra
    offered = int(extra.get("offered", 0))
    completed = int(extra.get("completed", 0))
    measured = int(extra.get("measured", 0))
    misses = int(extra.get("slo_misses", 0))
    entry = {
        "app": scenario.app,
        "arrival": (
            arrival.describe() if arrival is not None else "closed-loop"
        ),
        "policy": scenario.policy,
        "topology": scenario.topology or "uniform",
        "service_classes": list(scenario.service_classes),
        "cores": scenario.cores,
        "requests": requests,
        "offered": offered,
        "completed": completed,
        "failed": int(extra.get("failed", 0)),
        "retried": int(extra.get("retried", 0)),
        "measured": measured,
        "errors": int(extra.get("errors", 0)),
        "throughput": result.throughput,
        "throughput_unit": unit,
        "latency_ms": {
            "mean": result.latency_ms,
            "p50": extra.get("p50_ms", result.latency_ms),
            "p99": extra.get("p99_ms", result.latency_ms),
            "max": extra.get("max_ms", result.latency_ms),
        },
        "slo": {
            "slo_ms": scenario.slo_ms,
            "misses": misses,
            # Misses are only counted over the measured window (the
            # closed loop excludes warmup), so the rate must share
            # that denominator or warmup requests would dilute it.
            "miss_rate": (misses / measured) if measured else 0.0,
        },
        "classes": result.class_stats,
        "steals": {
            "steals": int(extra.get("steals", 0)),
            "stolen_tasks": int(extra.get("stolen_tasks", 0)),
            "steal_us": extra.get("steal_us", 0.0),
        },
        "allocator": {
            "name": scenario.allocator,
            "changes": int(extra.get("alloc_changes", 0)),
            "moved_tasks": int(extra.get("alloc_moved_tasks", 0)),
            "active_workers": {
                "min": int(extra.get("active_workers_min", scenario.cores)),
                "max": int(extra.get("active_workers_max", scenario.cores)),
                "final": int(
                    extra.get("active_workers_final", scenario.cores)
                ),
            },
        },
    }
    if result.admission_stats:
        entry["admission"] = {
            "policy": scenario.admission,
            "class_mix": {name: w for name, w in scenario.class_mix},
            "admitted": int(extra.get("admitted", offered)),
            "shed": int(extra.get("shed", 0)),
            "per_class": result.admission_stats,
        }
    if "arrival_gap_mean_us" in extra:
        entry["arrival_gaps_us"] = {
            "mean": extra["arrival_gap_mean_us"],
            "p50": extra["arrival_gap_p50_us"],
            "p99": extra["arrival_gap_p99_us"],
        }
    if result.cluster_stats:
        entry["cluster"] = result.cluster_stats
    if fault is not None:
        entry["faults"] = {
            "name": fault.name,
            "params": fault.params(),
            "counters": {
                key[len("fault_"):]: int(value)
                for key, value in sorted(extra.items())
                if key.startswith("fault_")
            },
        }
    return entry


def _scenario_job(scenario: Scenario, quick: bool) -> Tuple[str, dict]:
    """Worker-process entry point for the parallel matrix runner."""
    return scenario.name, run_scenario(scenario, quick=quick)


def run_scenario_matrix(
    scenarios: Sequence[Scenario],
    quick: bool = False,
    jobs: int = 1,
) -> Dict[str, dict]:
    """Run ``scenarios``; map name → JSON-ready result, selection order.

    ``jobs`` > 1 fans the scenarios out over that many worker
    processes.  The output is byte-identical to the serial run:
    :func:`run_scenario` scopes every global (task ids, seeded RNGs)
    per scenario, so a scenario's numbers never depend on which process
    ran it or what ran before it — parallelism only changes wall-clock
    time.  Results are collected in selection order regardless of
    completion order.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    # Every config error surfaces before anything runs (and in the
    # parent, not as an opaque worker-process traceback).
    for scenario in scenarios:
        _validate_scenario(scenario)
    if jobs == 1 or len(scenarios) <= 1:
        return {
            scenario.name: run_scenario(scenario, quick=quick)
            for scenario in scenarios
        }
    workers = min(jobs, len(scenarios))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_scenario_job, scenario, quick)
            for scenario in scenarios
        ]
        return dict(future.result() for future in futures)
