"""Figure 7's workload beyond the paper's three policies (section 6.4).

The paper trio and its claims are the ``fig7`` row of
:data:`repro.bench.figures.FIGURES` (``benchmarks/test_figures.py``);
these tests run the same workload, at that row's full size, under the
policies the paper could not test and check where they land.
"""

import pytest

from benchmarks.conftest import print_series, run_once
from repro.bench.figures import FIG7
from repro.bench.scheduling import SyntheticTask, run_scheduling_experiment
from repro.runtime.policy import registered_policies


def test_fig7_timeslice_matters(benchmark):
    """Sanity: an absurdly large timeslice degenerates cooperative
    scheduling towards non-cooperative behaviour for light tasks."""
    def sweep():
        small = run_scheduling_experiment(
            "cooperative", n_tasks=80, items_per_task=120, cores=8,
            timeslice_us=50.0,
        )
        huge = run_scheduling_experiment(
            "cooperative", n_tasks=80, items_per_task=120, cores=8,
            timeslice_us=1e7,
        )
        return small, huge

    small, huge = run_once(benchmark, sweep)
    assert small.light_mean_ms < huge.light_mean_ms


@pytest.mark.parametrize("policy", registered_policies())
def test_fig7_any_registered_policy(benchmark, policy):
    """Every policy in the registry runs the Figure-7 workload
    end-to-end: every task completes and the class means are sane."""
    result = run_once(
        benchmark, run_scheduling_experiment, policy, **FIG7.size
    )
    assert result.policy == policy
    assert 0 < result.light_mean_ms <= result.makespan_ms
    assert 0 < result.heavy_mean_ms <= result.makespan_ms
    assert result.makespan_ms == max(result.light_max_ms, result.heavy_max_ms)


def test_fig7_new_policies_extend_the_figure(benchmark):
    """The policies the paper could not test sit where they should on
    the Figure-7 axes: priority frees light tasks even faster than
    cooperative, and batch amortises scheduling overhead over round
    robin without changing its fairness shape."""

    def sweep():
        return {
            policy: run_scheduling_experiment(policy, **FIG7.size)
            for policy in ("cooperative", "round_robin", "priority", "batch")
        }

    results = run_once(benchmark, sweep)
    assert (
        results["priority"].light_mean_ms
        < results["cooperative"].light_mean_ms
    )
    assert results["batch"].makespan_ms < results["round_robin"].makespan_ms
    assert results["batch"].light_mean_ms > 0.8 * results["batch"].heavy_mean_ms


def test_fig7_roadmap_policies_rows(benchmark):
    """The four roadmap policies (deadline / numa / adaptive-timeslice /
    steal-half) produce Figure-7 rows alongside the paper trio: EDF with
    size-proportional SLOs frees light tasks fastest of all, and the
    others keep the cooperative fairness shape at equal makespan."""

    def sweep():
        return {
            policy: run_scheduling_experiment(policy, **FIG7.size)
            for policy in (
                "cooperative",
                "round_robin",
                "deadline",
                "numa",
                "adaptive-timeslice",
                "steal-half",
            )
        }

    results = run_once(benchmark, sweep)
    rows = [
        f"{policy:18s} light={r.light_mean_ms:7.1f}ms "
        f"heavy={r.heavy_mean_ms:7.1f}ms makespan={r.makespan_ms:7.1f}ms"
        for policy, r in results.items()
    ]
    print_series("Figure 7, roadmap policies (virtual ms)", rows)

    coop = results["cooperative"]
    # Tight SLOs on light tasks make EDF the most aggressive
    # light-first policy on the figure.
    assert results["deadline"].light_mean_ms < coop.light_mean_ms
    # numa and steal-half keep cooperative's light-first fairness.
    for policy in ("numa", "steal-half"):
        result = results[policy]
        assert result.light_mean_ms < result.heavy_mean_ms / 4, policy
    # Deep queues (200 tasks on 16 cores) push the adaptive budget to
    # the 10 µs floor, so it lands between cooperative's long slices
    # and round robin's per-item interleave on the light axis.
    adaptive = results["adaptive-timeslice"]
    assert (
        coop.light_mean_ms
        < adaptive.light_mean_ms
        < results["round_robin"].light_mean_ms
    )
    # None of the four buys fairness with total runtime.
    for policy in ("deadline", "numa", "adaptive-timeslice", "steal-half"):
        assert results[policy].makespan_ms == pytest.approx(
            coop.makespan_ms, rel=0.05
        ), policy


def test_fig7_numa_topology_prices_remote_steals(benchmark):
    """On a two-socket topology the numa policy's on-socket preference
    pays less steal cost than topology-blind longest-queue stealing."""

    def sweep():
        from repro.runtime.scheduler import Scheduler
        from repro.sim.engine import Engine

        costs = {}
        for policy in ("cooperative", "numa"):
            engine = Engine()
            sched = Scheduler(engine, 16, 50.0, policy, "two-socket")
            # Imbalanced piles on BOTH sockets: a socket-1 thief has a
            # local victim (core 8) and a longer remote one (core 0).
            # Longest-queue stealing reaches across the interconnect;
            # numa stays on-socket and skips the penalty.
            tasks = []
            for i in range(40):
                task = SyntheticTask(f"a{i}", 60, 4 * 1024, engine)
                task.home_hint = 0
                tasks.append(task)
            for i in range(20):
                task = SyntheticTask(f"b{i}", 60, 4 * 1024, engine)
                task.home_hint = 8
                tasks.append(task)
            sched.start()
            for task in tasks:
                sched.notify_runnable(task)
            engine.run()
            assert all(not t.has_work() for t in tasks)
            costs[policy] = (sched.total_steal_us, sched.total_steals)
        return costs

    costs = run_once(benchmark, sweep)
    coop_us, coop_steals = costs["cooperative"]
    numa_us, numa_steals = costs["numa"]
    print_series(
        "two-socket steal cost",
        [
            f"cooperative steal_us={coop_us:8.1f} steals={coop_steals}",
            f"numa        steal_us={numa_us:8.1f} steals={numa_steals}",
        ],
    )
    assert numa_steals > 0
    # On-socket preference cuts both the total steal bill and the
    # average price per steal.
    assert numa_us < coop_us
    assert numa_us / numa_steals < coop_us / coop_steals
