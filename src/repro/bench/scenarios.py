"""Declarative scenario matrix: app x arrival process x policy x topology.

:data:`SCENARIOS` is the built-in matrix of named
:class:`~repro.bench.testbeds.Scenario` specs — which app, which arrival
process (a :mod:`repro.workloads.arrivals` registry name, or ``None``
for the paper's closed-loop clients), which policy on every axis, and
how much load.  ``python -m repro.bench scenarios`` runs it (or a
``--scenario`` filter) through :func:`~repro.bench.testbeds.run_experiment`
and emits the machine-readable ``BENCH_scenarios.json`` through
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
from typing import Dict, Sequence, Tuple

from repro.bench.testbeds import APPS, Checked, Scenario, run_experiment
from repro.core.errors import ConfigError
from repro.core.registry import did_you_mean


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
        concurrency=32,
        total_requests=2048,
        slo_us=2_000.0,
    ),
    Scenario(
        name="http-open-poisson",
        app="http_lb",
        arrival="poisson",
        arrival_params=(("rate_rps", 40_000.0),),
        slo_us=2_000.0,
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
        slo_us=2_000.0,
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
        slo_us=2_000.0,
    ),
    Scenario(
        name="http-overload-open",
        app="http_lb",
        arrival="poisson",
        arrival_params=(("rate_rps", 160_000.0),),
        slo_us=2_000.0,
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
        slo_us=2_000.0,
        admission="shed-bronze",
        admission_params=(("max_inflight", 96),),
        class_mix=(("gold", 1.0), ("bronze", 1.0)),
    ),
    Scenario(
        name="http-overload-closed",
        app="http_lb",
        arrival=None,
        slo_us=2_000.0,
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
        slo_us=2_000.0,
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
        slo_us=2_000.0,
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
        slo_us=2_000.0,
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
        slo_us=5_000.0,
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
        slo_us=2_000.0,
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
        slo_us=2_000.0,
    ),
    Scenario(
        name="memcached-open-poisson",
        app="memcached_proxy",
        arrival="poisson",
        arrival_params=(("rate_rps", 40_000.0),),
        slo_us=2_000.0,
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
        total_requests=4096,
        slo_us=2_000.0,
    ),
    # Connection churn: short-lived connections recycled every 16
    # requests, so accept/teardown cost rides the steady-state number.
    Scenario(
        name="memcached-conn-churn",
        app="memcached_proxy",
        arrival="poisson",
        arrival_params=(("rate_rps", 40_000.0),),
        slo_us=2_000.0,
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
        concurrency=128,
        total_requests=8192,
    ),
    Scenario(
        name="http-fleet-scale-2",
        app="http_lb",
        mode="web",
        arrival="poisson",
        arrival_params=(("rate_rps", 800_000.0),),
        concurrency=128,
        total_requests=8192,
        shards=2,
        routing="least-loaded",
    ),
    Scenario(
        name="http-fleet-scale-4",
        app="http_lb",
        mode="web",
        arrival="poisson",
        arrival_params=(("rate_rps", 800_000.0),),
        concurrency=128,
        total_requests=8192,
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
        concurrency=64,
        total_requests=8192,
        slo_us=5_000.0,
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
    suggestion, as an unknown registry name does.
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


def quick_sized(scenario: Scenario, quick: bool) -> Scenario:
    """``scenario`` at CI smoke size when ``quick``: a quarter of the
    requests (at least 256) and a third of the hadoop mapper data.  The
    committed baseline is generated with the same flag, so gate
    comparisons are like-for-like (enforced via the document envelope)."""
    if not quick:
        return scenario
    requests = scenario.total_requests
    sized = {
        "total_requests": None if requests is None else max(256, requests // 4)
    }
    app = APPS.get(scenario.app)
    if app is not None and "data_kb_per_mapper" in app.fields:
        sized["data_kb_per_mapper"] = max(1, scenario.data_kb_per_mapper // 3)
    return scenario._replace(**sized)


def run_scenario(scenario, quick: bool = False) -> dict:
    """Run one scenario (or what its :meth:`~Scenario.check` returned
    for its :func:`quick_sized` spec); return its JSON-ready entry: the
    spec's echo and the run's :attr:`~repro.sim.stats.RunResult.entry`."""
    checked = (
        scenario
        if isinstance(scenario, Checked)
        else quick_sized(scenario, quick).check()
    )
    scenario = checked.spec
    return {
        "app": scenario.app,
        "arrival": (
            scenario.arrival.describe()
            if scenario.arrival is not None
            else "closed-loop"
        ),
        "policy": scenario.policy,
        "topology": scenario.topology or "uniform",
        "service_classes": list(scenario.service_classes),
        "cores": scenario.cores,
        **run_experiment(checked).entry,
    }


def _scenario_job(checked: Checked) -> Tuple[str, dict]:
    """Worker-process entry point for the parallel matrix runner."""
    return checked.spec.name, run_scenario(checked)


def run_scenario_matrix(
    scenarios: Sequence[Scenario],
    quick: bool = False,
    jobs: int = 1,
) -> Dict[str, dict]:
    """Run ``scenarios``; map name → JSON-ready result, selection order.

    ``jobs`` > 1 fans the scenarios out over that many worker
    processes.  The output is byte-identical to the serial run: a run
    keeps no state outside its own engine (which numbers its tasks) and
    its spec-seeded RNGs, so a scenario's numbers never depend on which
    process ran it or what ran before it — parallelism only changes
    wall-clock time.  Results are collected in selection order
    regardless of completion order.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    # Every config error surfaces before anything runs (and in the
    # parent, not as an opaque worker-process traceback); each scenario
    # is checked here, once.
    checked = [quick_sized(s, quick).check() for s in scenarios]
    if jobs == 1 or len(checked) <= 1:
        return dict(map(_scenario_job, checked))
    with ProcessPoolExecutor(max_workers=min(jobs, len(checked))) as pool:
        return dict(pool.map(_scenario_job, checked))
