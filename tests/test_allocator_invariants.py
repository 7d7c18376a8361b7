"""Allocation-policy conformance harness.

Every registered core-allocation policy — present and future — is run
through a seeded elastic workload (a low-load trickle followed by an
overload burst, so both shrink and grow pressure exist) and checked
against the cross-cutting invariants of the allocator's
policy/mechanism contract, so a new allocator gets regression coverage
the moment it is registered:

* **bounds** — the active worker count never leaves ``[1, cores]``,
  whatever the policy's ``target_workers`` returns;
* **prefix discipline** — the active set is always the worker prefix
  ``[0..n)``: park highest-index first, unpark lowest-index first;
* **hysteresis** — applied changes are at least ``cooldown_us`` of
  virtual time apart (the mechanism-enforced cooldown);
* **log replay** — replaying ``parked``/``unparked`` from the alloc
  log, starting from the all-active initial set, reconstructs every
  intermediate active set and the scheduler's final one: the log is a
  complete, ordered record of what the mechanism did;
* **conservation under parking** — draining parked queues loses no
  work: every admitted task still completes exactly once;
* **determinism** — identical seeds produce identical schedules *and*
  identical alloc logs;
* **static keeps every core** — the default ``static`` allocator's
  ticks never change anything: no log, every worker active, and the
  same schedule whether it is named or passed as an instance.
"""

import random

import pytest

from repro.core.errors import RuntimeFlickError
from repro.runtime.allocator import (
    AllocationPolicy,
    AllocView,
    make_allocator,
    registered_allocators,
)
from repro.runtime.costs import RuntimeConfig
from repro.runtime.scheduler import IDLE, Scheduler, TaskBase
from repro.sim.engine import Engine

SEEDS = (7, 23)
CORES = 4
#: Small windows so a ~4000 µs workload crosses many tick boundaries.
TICK_US = 100.0
COOLDOWN_US = 200.0

DYNAMIC_ALLOCATORS = tuple(
    name for name in registered_allocators() if name != "static"
)


class ElasticTask(TaskBase):
    """Finite task with per-item cost (as in the policy harness)."""

    def __init__(self, name, n_items, item_cost_us, engine, slo_us=None):
        super().__init__(name, next(engine.task_ids))
        self._engine = engine
        self.remaining = n_items
        self.item_cost_us = item_cost_us
        if slo_us is not None:
            self.slo_us = slo_us
        self.finished_at = None

    def has_work(self):
        return self.remaining > 0

    def step(self, budget_us):
        elapsed = 0.0
        while self.remaining > 0:
            self.remaining -= 1
            elapsed += self.item_cost_us
            if budget_us == 0.0:
                break
            if budget_us is not None and elapsed >= budget_us:
                break
        emissions = []
        if self.remaining == 0 and self.finished_at is None:
            def mark():
                self.finished_at = self._engine.now

            emissions.append(mark)
        self.busy_us += elapsed
        return elapsed, emissions


def build_allocator(name):
    return make_allocator(name, tick_us=TICK_US, cooldown_us=COOLDOWN_US)


def run_elastic_workload(allocator, seed):
    """Trickle then burst: shrink pressure, then grow pressure.

    Phase 1 trickles tiny comfortably-within-SLO tasks (queues near
    empty, ample headroom — dynamic policies shrink); phase 2 dumps a
    burst of slow tasks with tight SLOs (deep backlog, latencies past
    the SLO — they grow back).  Returns ``(scheduler, tasks)`` at
    quiescence.
    """
    rng = random.Random(seed)
    engine = Engine()
    scheduler = Scheduler(engine, CORES, allocator=allocator)
    tasks = []
    arrivals = []
    for index in range(8):
        tasks.append(
            ElasticTask(
                f"trickle{index}",
                rng.randint(1, 2),
                1.0,
                engine,
                slo_us=5_000.0,
            )
        )
        arrivals.append(index * 250.0)
    for index in range(16):
        tasks.append(
            ElasticTask(
                f"burst{index}",
                rng.randint(15, 25),
                4.0,
                engine,
                slo_us=50.0,
            )
        )
        arrivals.append(2_000.0 + rng.uniform(0.0, 50.0))
    order = sorted(range(len(tasks)), key=lambda i: arrivals[i])
    scheduler.start()

    def admit(position, now):
        """Admit every task due by ``now``, then file the next arrival."""
        for position in range(position, len(order)):
            index = order[position]
            if arrivals[index] > now:
                engine.schedule(
                    arrivals[index] - now, admit, position, arrivals[index]
                )
                return
            scheduler.notify_runnable(tasks[index])

    engine.schedule(0.0, admit, 0, 0.0)
    engine.run()
    return scheduler, tasks


def snapshot(scheduler, tasks):
    """Everything a schedule + alloc trace determines."""
    return {
        "tasks": [
            (t.name, t.busy_us, t.finished_at)
            for t in tasks
        ],
        "executed": scheduler.tasks_executed,
        "busy_us": scheduler.total_busy_us,
        "steals": scheduler.total_steals,
        "alloc_log": list(scheduler.alloc_log),
        "active": scheduler.active_worker_indices(),
        "slo_summary": scheduler.scoreboard.summary(),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", registered_allocators())
class TestAllocatorInvariants:
    def test_conservation_under_parking(self, name, seed):
        scheduler, tasks = run_elastic_workload(build_allocator(name), seed)
        for task in tasks:
            assert task.remaining == 0, f"{task.name} lost work"
            assert task.finished_at is not None, f"{task.name} never finished"
            assert task.sched_state == IDLE
        assert all(not w.queue for w in scheduler._workers)
        assert scheduler.scoreboard.total_completions == len(tasks)

    def test_active_count_bounds_and_prefix_discipline(self, name, seed):
        scheduler, _ = run_elastic_workload(build_allocator(name), seed)
        for record in scheduler.alloc_log:
            for active in (record.active_before, record.active_after):
                assert 1 <= len(active) <= scheduler.cores
                # Prefix discipline: the active set is always [0..n).
                assert active == tuple(range(len(active)))
            assert len(record.queue_depths) == scheduler.cores
        final = scheduler.active_worker_indices()
        assert 1 <= len(final) <= scheduler.cores
        assert final == tuple(range(len(final)))

    def test_cooldown_separates_applied_changes(self, name, seed):
        scheduler, _ = run_elastic_workload(build_allocator(name), seed)
        times = [record.at_us for record in scheduler.alloc_log]
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= COOLDOWN_US - 1e-9, (
                f"changes at {earlier} and {later} violate the "
                f"{COOLDOWN_US}us cooldown"
            )

    def test_log_replay_reconstructs_the_active_set(self, name, seed):
        scheduler, _ = run_elastic_workload(build_allocator(name), seed)
        active = set(range(scheduler.cores))
        for record in scheduler.alloc_log:
            assert tuple(sorted(active)) == record.active_before
            assert set(record.parked) <= active
            assert not set(record.unparked) & active
            # A change parks or unparks, never both.
            assert not (record.parked and record.unparked)
            active -= set(record.parked)
            active |= set(record.unparked)
            assert tuple(sorted(active)) == record.active_after
        assert tuple(sorted(active)) == scheduler.active_worker_indices()

    def test_identical_seeds_identical_schedules_and_logs(self, name, seed):
        first = snapshot(*run_elastic_workload(build_allocator(name), seed))
        second = snapshot(*run_elastic_workload(build_allocator(name), seed))
        assert first == second

    def test_reset_restores_a_reusable_allocator(self, name, seed):
        allocator = build_allocator(name)
        used = snapshot(*run_elastic_workload(allocator, seed))
        # Same instance again: an allocator keeps no per-run state.
        reused = snapshot(*run_elastic_workload(allocator, seed))
        assert used == reused


@pytest.mark.parametrize("name", DYNAMIC_ALLOCATORS)
def test_dynamic_allocators_adapt_to_the_elastic_workload(name):
    """Every non-static policy must actually move on a workload built
    to pressure both directions — an allocator that never changes
    anything is just `static` with extra bookkeeping."""
    scheduler, _ = run_elastic_workload(build_allocator(name), seed=7)
    assert scheduler.alloc_log, f"{name} never changed the allocation"
    sizes = {len(r.active_after) for r in scheduler.alloc_log}
    assert min(sizes) < CORES, f"{name} never shrank below {CORES} workers"


def test_static_keeps_every_core_and_logs_nothing():
    """`static` ticks like any allocator, but every tick asks for all
    the cores it already has: nothing is logged, no worker is ever
    parked, and the name and an instance run the same schedule."""
    by_name = snapshot(*run_elastic_workload("static", seed=7))
    by_instance = snapshot(
        *run_elastic_workload(make_allocator("static"), seed=7)
    )
    assert by_name == by_instance
    assert by_name["alloc_log"] == []
    assert by_name["active"] == tuple(range(CORES))
    scheduler, _ = run_elastic_workload("static", seed=7)
    assert all(worker.active for worker in scheduler._workers)


def _alloc_view(active, queue_depths):
    return AllocView(
        active=active, cores=len(queue_depths),
        queue_depths=tuple(queue_depths),
    )


class TestDecisions:
    """One ``target_workers`` answer per view, no scheduler involved."""

    def test_static_asks_for_every_core(self):
        policy = make_allocator("static")
        assert policy.target_workers(_alloc_view(1, [0, 0, 0, 0])) == 4
        assert policy.target_workers(_alloc_view(4, [9, 9, 9, 9])) == 4

    def test_queue_depth_grows_above_the_high_watermark(self):
        policy = make_allocator(
            "queue-depth", high_per_worker=4.0, low_per_worker=0.5
        )
        # 9 queued over 2 active workers: 4.5 per worker > 4
        assert policy.target_workers(_alloc_view(2, [5, 4, 0, 0])) == 3

    def test_queue_depth_shrinks_below_the_low_watermark(self):
        policy = make_allocator(
            "queue-depth", high_per_worker=4.0, low_per_worker=0.5
        )
        # 1 queued over 3 active workers: 0.33 per worker < 0.5
        assert policy.target_workers(_alloc_view(3, [1, 0, 0, 0])) == 2

    def test_queue_depth_holds_inside_the_band(self):
        policy = make_allocator(
            "queue-depth", high_per_worker=4.0, low_per_worker=0.5
        )
        for depths in ([4, 4, 0, 0], [1, 0, 0, 0], [2, 3, 0, 0]):
            assert policy.target_workers(_alloc_view(2, depths)) == 2


class TestRegistry:
    def test_harness_covers_whole_registry(self):
        """The parametrization above is the conformance gate: it must
        track the registry, not a hand-maintained list."""
        names = registered_allocators()
        assert len(names) >= 2
        assert len(set(names)) == len(names)
        assert names[0] == "static"
        assert "queue-depth" in names
        assert DYNAMIC_ALLOCATORS  # the adaptivity gate is non-empty

    def test_out_of_range_parameters_are_flick_errors(self):
        with pytest.raises(RuntimeFlickError, match="tick must be positive"):
            make_allocator("static", tick_us=0)
        with pytest.raises(RuntimeFlickError, match="cooldown"):
            make_allocator("static", cooldown_us=-1)
        with pytest.raises(RuntimeFlickError, match="low_per_worker"):
            make_allocator("queue-depth", low_per_worker=4, high_per_worker=4)

    def test_runtime_config_validates_the_allocator_field(self):
        assert RuntimeConfig().allocator == "static"
        assert RuntimeConfig(allocator="queue-depth").allocator
        assert isinstance(
            RuntimeConfig(allocator=make_allocator("static")).allocator,
            AllocationPolicy,
        )
        with pytest.raises(ValueError, match="unknown core allocator"):
            RuntimeConfig(allocator="qeue-depth")
