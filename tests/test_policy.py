"""Scheduling-policy layer: registry, golden parity, new policies.

The GOLDEN numbers below were produced by the pre-refactor scheduler
(policy branches hard-coded in ``Scheduler._budget``) on the Figure-7
workload at 60 tasks x 80 items on 8 cores.  The policy/mechanism split
must reproduce them bit-for-bit: any drift means the mechanism no longer
matches the paper's evaluation.
"""

import pytest

from repro.bench import testbeds
from repro.bench.scheduling import run_policy_sweep, run_scheduling_experiment
from repro.core.errors import RuntimeFlickError
from repro.core.ids import stable_hash
from repro.runtime.policy import (
    PAPER_POLICIES,
    AdaptiveTimeslicePolicy,
    BatchPolicy,
    CooperativePolicy,
    DeadlinePolicy,
    LocalityPolicy,
    NumaPolicy,
    PriorityPolicy,
    StealHalfPolicy,
    make_policy,
    registered_policies,
)
from repro.runtime.qos import parse_slo_class_specs
from repro.runtime.scheduler import Scheduler, TaskBase
from repro.sim.engine import Engine

from tests.item_task import ItemTask

GOLDEN = {
    "cooperative": {
        "light_mean_ms": 2.8394464000000004,
        "heavy_mean_ms": 19.77924613333334,
        "light_max_ms": 3.102192000000002,
        "heavy_max_ms": 21.054784000000012,
        "makespan_ms": 21.054784000000012,
    },
    "non_cooperative": {
        "light_mean_ms": 8.127984000000001,
        "heavy_mean_ms": 13.349572000000009,
        "light_max_ms": 17.04216000000001,
        "heavy_max_ms": 22.286340000000013,
        "makespan_ms": 22.286340000000013,
    },
    "round_robin": {
        "light_mean_ms": 19.419434666666554,
        "heavy_mean_ms": 20.050810133333233,
        "light_max_ms": 20.799919999999908,
        "heavy_max_ms": 21.182947999999918,
        "makespan_ms": 21.182947999999918,
    },
    # The post-refactor policies are pinned the same way: these numbers
    # were produced by the run that introduced each policy, and any
    # drift means a mechanism or policy change silently altered
    # Figure-7 behaviour.  (numa and steal-half coincide with
    # cooperative here because the workload pins placement via
    # home_hint and its balanced queues never trigger batch steals;
    # randomized workloads in test_policy_invariants.py tell them
    # apart.)
    "locality": {
        "light_mean_ms": 2.8394464000000004,
        "heavy_mean_ms": 19.54060173333331,
        "light_max_ms": 3.102192000000002,
        "heavy_max_ms": 21.17495600000004,
        "makespan_ms": 21.17495600000004,
    },
    "batch": {
        "light_mean_ms": 18.71273359999999,
        "heavy_mean_ms": 19.53124239999999,
        "light_max_ms": 20.149151999999994,
        "heavy_max_ms": 21.199427999999994,
        "makespan_ms": 21.199427999999994,
    },
    "priority": {
        "light_mean_ms": 1.4943519999999992,
        "heavy_mean_ms": 19.77924613333334,
        "light_max_ms": 1.585664,
        "heavy_max_ms": 21.054784000000012,
        "makespan_ms": 21.054784000000012,
    },
    "deadline": {
        "light_mean_ms": 1.267635200000002,
        "heavy_mean_ms": 19.560601733333314,
        "light_max_ms": 1.3487200000000035,
        "heavy_max_ms": 21.201756000000046,
        "makespan_ms": 21.201756000000046,
    },
    "numa": {
        "light_mean_ms": 2.8394464000000004,
        "heavy_mean_ms": 19.77924613333334,
        "light_max_ms": 3.102192000000002,
        "heavy_max_ms": 21.054784000000012,
        "makespan_ms": 21.054784000000012,
    },
    "adaptive-timeslice": {
        "light_mean_ms": 3.6443136000000025,
        "heavy_mean_ms": 19.717586533333343,
        "light_max_ms": 4.096032000000004,
        "heavy_max_ms": 21.019183999999967,
        "makespan_ms": 21.019183999999967,
    },
    "steal-half": {
        "light_mean_ms": 2.8394464000000004,
        "heavy_mean_ms": 19.77924613333334,
        "light_max_ms": 3.102192000000002,
        "heavy_max_ms": 21.054784000000012,
        "makespan_ms": 21.054784000000012,
    },
}


#: Class-aware golden numbers: the same 60x80x8 Figure-7 workload under
#: a two-class map (gold=1ms@4 on light, bronze=50ms@1 on heavy).  Every
#: policy that declares ``supports_service_classes`` must pin an entry —
#: the lockstep gate below — so QoS-consuming policies cannot drift
#: silently any more than class-free ones can.
TWO_CLASS_MAP = parse_slo_class_specs(
    ["light=gold:1000@4", "heavy=bronze:50000"]
)

GOLDEN_TWO_CLASS = {
    "deadline": {
        "fields": {
            "light_mean_ms": 1.2269600000000034,
            "heavy_mean_ms": 19.54862959999998,
            "light_max_ms": 1.334320000000004,
            "heavy_max_ms": 21.187356000000047,
            "makespan_ms": 21.187356000000047,
        },
        "classes": {
            "gold": {
                "completions": 30,
                "misses": 24,
                "mean_ms": 1.2269600000000032,
                "p99_ms": 1.334320000000004,
                "max_ms": 1.334320000000004,
            },
            "bronze": {
                "completions": 30,
                "misses": 0,
                "mean_ms": 19.548629599999984,
                "p99_ms": 21.17580356000003,
                "max_ms": 21.187356000000047,
            },
        },
    },
    "priority": {
        "fields": {
            "light_mean_ms": 1.4943519999999992,
            "heavy_mean_ms": 19.77924613333334,
            "light_max_ms": 1.585664,
            "heavy_max_ms": 21.054784000000012,
            "makespan_ms": 21.054784000000012,
        },
        "classes": {
            "gold": {
                "completions": 30,
                "misses": 30,
                "mean_ms": 1.4943519999999992,
                "p99_ms": 1.585664,
                "max_ms": 1.585664,
            },
            "bronze": {
                "completions": 30,
                "misses": 0,
                "mean_ms": 19.779246133333338,
                "p99_ms": 21.054784000000012,
                "max_ms": 21.054784000000012,
            },
        },
    },
}


class TestRegistry:
    def test_paper_policies_registered(self):
        names = registered_policies()
        for name in PAPER_POLICIES:
            assert name in names

    def test_new_policies_registered(self):
        names = registered_policies()
        for name in (
            "locality",
            "batch",
            "priority",
            "deadline",
            "numa",
            "adaptive-timeslice",
            "steal-half",
        ):
            assert name in names

    def test_registry_sweeps_at_least_ten_policies(self):
        """Figure 7's sweep covers the full roadmap: the paper trio plus
        the seven post-paper policies."""
        assert len(registered_policies()) >= 10

    def test_paper_policies_listed_first(self):
        assert registered_policies()[:3] == PAPER_POLICIES

    def test_scheduler_exposes_policy_name(self):
        sched = Scheduler(Engine(), 2, "locality")
        assert sched.policy_name == "locality"
        assert isinstance(sched.policy, LocalityPolicy)


class TestGoldenParity:
    """Every registered policy reproduces its pinned Figure-7 numbers
    exactly: the paper trio against the pre-refactor scheduler, the
    post-paper policies against the run that introduced them."""

    @pytest.mark.parametrize("policy", sorted(GOLDEN))
    def test_figure7_parity(self, policy):
        result = run_scheduling_experiment(
            policy, n_tasks=60, items_per_task=80, cores=8
        )
        for field, want in GOLDEN[policy].items():
            got = getattr(result, field)
            assert got == pytest.approx(want, rel=0, abs=1e-9), (
                f"{policy}.{field}: {got!r} != golden {want!r}"
            )

    def test_every_registered_policy_has_golden_entry(self):
        """Registering a policy without pinning it is a CI failure: the
        golden table and the registry must stay in lockstep, so future
        policies cannot dodge regression coverage."""
        assert set(GOLDEN) == set(registered_policies())

    @pytest.mark.parametrize("policy", sorted(GOLDEN_TWO_CLASS))
    def test_two_class_figure7_parity(self, policy):
        """Class-aware policies reproduce their pinned two-class numbers
        — aggregates and per-class completions/misses/latency alike."""
        result = run_scheduling_experiment(
            policy, n_tasks=60, items_per_task=80, cores=8,
            service_classes=TWO_CLASS_MAP,
        )
        golden = GOLDEN_TWO_CLASS[policy]
        for field, want in golden["fields"].items():
            got = getattr(result, field)
            assert got == pytest.approx(want, rel=0, abs=1e-9), (
                f"{policy}.{field}: {got!r} != golden {want!r}"
            )
        assert set(result.class_stats) == set(golden["classes"])
        for class_name, stats in golden["classes"].items():
            for field, want in stats.items():
                got = result.class_stats[class_name][field]
                assert got == pytest.approx(want, rel=0, abs=1e-9), (
                    f"{policy}.{class_name}.{field}: "
                    f"{got!r} != golden {want!r}"
                )

    def test_class_aware_policies_have_two_class_goldens(self):
        """Lockstep gate, extended: a policy that declares
        ``supports_service_classes`` without pinning two-class goldens
        (or vice versa) is a CI failure, exactly like registering a
        policy without a plain golden entry."""
        declared = {
            name
            for name in registered_policies()
            if make_policy(name).supports_service_classes
        }
        assert declared == set(GOLDEN_TWO_CLASS)

    def test_parity_stable_across_repeats(self):
        first = run_scheduling_experiment(
            "cooperative", n_tasks=40, items_per_task=40, cores=4
        )
        second = run_scheduling_experiment(
            "cooperative", n_tasks=40, items_per_task=40, cores=4
        )
        assert first == second


class _FakeWorker:
    def __init__(self, index, queue_len):
        self.index = index
        self.queue = [object()] * queue_len


class TestVictimSelection:
    def test_default_steals_longest(self):
        workers = [_FakeWorker(0, 0), _FakeWorker(1, 1), _FakeWorker(2, 3)]
        policy = CooperativePolicy()
        assert policy.select_victim(workers[0], workers) is workers[2]

    def test_default_skips_self_and_empty(self):
        workers = [_FakeWorker(0, 5), _FakeWorker(1, 0)]
        policy = CooperativePolicy()
        assert policy.select_victim(workers[0], workers) is None

    def test_locality_steals_nearest(self):
        workers = [
            _FakeWorker(0, 0),
            _FakeWorker(1, 1),
            _FakeWorker(2, 0),
            _FakeWorker(3, 3),
        ]
        policy = LocalityPolicy()
        # Longest queue is worker 3, but worker 1 is nearer to worker 0.
        assert policy.select_victim(workers[0], workers) is workers[1]

    def test_locality_wraps_around_the_ring(self):
        workers = [
            _FakeWorker(0, 2),
            _FakeWorker(1, 0),
            _FakeWorker(2, 0),
            _FakeWorker(3, 0),
        ]
        policy = LocalityPolicy()
        assert policy.select_victim(workers[3], workers) is workers[0]
        # worker 1's nearest non-empty neighbour is worker 0 (distance 3).
        assert policy.select_victim(workers[1], workers) is workers[0]


class TestBatchPolicy:
    def test_rejects_bad_batch_size(self):
        with pytest.raises(RuntimeFlickError):
            BatchPolicy(k=0)

    def test_amortises_schedule_cost(self):
        """k items per decision => ~1/k the decisions of round robin."""

        def decisions(policy):
            engine = Engine()
            sched = Scheduler(engine, 2, policy)
            tasks = [ItemTask(f"t{i}", 64, 2.0, next(engine.task_ids)) for i in range(4)]
            sched.start()
            for t in tasks:
                sched.notify_runnable(t)
            engine.run()
            assert all(t.remaining == 0 for t in tasks)
            return sched.tasks_executed

        rr = decisions("round_robin")
        batched = decisions(BatchPolicy(k=8))
        assert batched < rr / 4

    def test_batch_beats_round_robin_makespan(self):
        rr = run_scheduling_experiment(
            "round_robin", n_tasks=20, items_per_task=50, cores=4
        )
        batch = run_scheduling_experiment(
            "batch", n_tasks=20, items_per_task=50, cores=4
        )
        assert batch.makespan_ms < rr.makespan_ms


class TestPriorityPolicy:
    def test_light_tasks_not_starved(self):
        """On one core, weighted picking gets light tasks out well before
        plain FIFO-cooperative does, at equal makespan."""
        coop = run_scheduling_experiment(
            "cooperative", n_tasks=8, items_per_task=40, cores=1
        )
        prio = run_scheduling_experiment(
            "priority", n_tasks=8, items_per_task=40, cores=1
        )
        assert prio.light_mean_ms < 0.75 * coop.light_mean_ms
        assert prio.makespan_ms == pytest.approx(coop.makespan_ms, rel=0.05)

    def test_ewma_tracks_cost(self):
        policy = PriorityPolicy(smoothing=0.5)
        task = ItemTask("t", 1, 1.0, 1)
        policy.on_task_done(task, None, 10.0)
        policy.on_task_done(task, None, 20.0)
        assert policy._mean_cost[task.task_id] == pytest.approx(15.0)

    def test_scheduler_adopts_instance_timeslice(self):
        """The quantum is the policy's: a passed-in instance keeps its
        own budget, and a name gets its class's 50 µs default."""
        sched = Scheduler(
            Engine(), 1, policy=CooperativePolicy(timeslice_us=25.0)
        )
        assert sched.policy.budget(None) == 25.0
        sched = Scheduler(Engine(), 1, policy="cooperative")
        assert sched.policy.budget(None) == 50.0

    def test_a_positional_timeslice_is_rejected(self):
        """The scheduler takes no quantum: a number where the policy
        belongs is refused, not read as a timeslice."""
        with pytest.raises(RuntimeFlickError, match="got float"):
            Scheduler(Engine(), 1, 20.0)

    def test_instance_shared_across_live_engines_rejected(self):
        """An engine with events still in flight counts as live: its
        policy instance cannot be adopted by another scheduler."""
        policy = PriorityPolicy()
        engine_a = Engine()
        sched_a = Scheduler(engine_a, 2, policy)
        sched_a.start()  # worker processes now pending on engine_a
        with pytest.raises(RuntimeFlickError):
            Scheduler(Engine(), 2, policy)
        engine_a.run()  # drains: sequential reuse becomes legal again
        Scheduler(Engine(), 2, policy)

    def test_instance_shared_within_one_simulation_rejected(self):
        """Two schedulers on the same engine must not share one policy's
        mutable state; sequential reuse (fresh engine) stays allowed."""
        engine = Engine()
        policy = PriorityPolicy()
        Scheduler(engine, 2, policy)
        with pytest.raises(RuntimeFlickError):
            Scheduler(engine, 2, policy)
        # A fresh engine (a new run) may adopt the same instance.
        Scheduler(Engine(), 2, policy)

    def test_completed_tasks_evicted_from_cost_map(self):
        """Priority's EWMA map stays bounded: entries are dropped once a
        task has nothing queued."""
        policy = PriorityPolicy()
        task = ItemTask("t", 1, 1.0, 1)
        policy.on_task_done(task, None, 5.0)
        assert task.task_id in policy._mean_cost
        task.remaining = 0
        policy.on_task_done(task, None, 5.0)
        assert task.task_id not in policy._mean_cost

    def test_reused_instance_is_deterministic(self):
        """A scheduler adopting a policy resets its learned state, so a
        reused instance cannot leak EWMA costs across runs (task ids are
        recycled per run and would collide)."""
        policy = PriorityPolicy()
        first = run_scheduling_experiment(
            policy, n_tasks=8, items_per_task=40, cores=1
        )
        second = run_scheduling_experiment(
            policy, n_tasks=8, items_per_task=40, cores=1
        )
        assert first == second

    def test_next_local_pops_cheapest_and_keeps_order(self):
        from collections import deque

        policy = PriorityPolicy()
        a, b, c = (ItemTask(n, 1, 1.0, i) for i, n in enumerate("abc"))
        policy.on_task_done(a, None, 30.0)
        policy.on_task_done(b, None, 5.0)
        policy.on_task_done(c, None, 20.0)

        class W:
            pass

        worker = W()
        worker.queue = deque([a, b, c])
        assert policy.next_local(worker) is b
        assert list(worker.queue) == [a, c]


class TestPolicySweep:
    @pytest.mark.parametrize("policy", registered_policies())
    def test_all_registered_policies_run_end_to_end(self, policy):
        results = run_policy_sweep([policy], n_tasks=12, items_per_task=10, cores=4)
        assert list(results) == [policy]
        result = results[policy]
        assert 0 < result.light_mean_ms <= result.makespan_ms
        assert 0 < result.heavy_mean_ms <= result.makespan_ms
        assert result.makespan_ms == max(result.light_max_ms, result.heavy_max_ms)

    def test_sweep_accepts_instances(self):
        results = run_policy_sweep(
            [BatchPolicy(k=4), CooperativePolicy()],
            n_tasks=8,
            items_per_task=8,
            cores=2,
        )
        assert set(results) == {"batch", "cooperative"}

    def test_sweep_keeps_same_named_instances_apart(self):
        """Parameter sweeps over one policy class must not silently
        overwrite each other's results."""
        results = run_policy_sweep(
            [BatchPolicy(k=1), BatchPolicy(k=16)],
            n_tasks=8,
            items_per_task=16,
            cores=2,
        )
        assert set(results) == {"batch", "batch#2"}
        # k=1 pays SCHEDULE_US per item, k=16 amortises it.
        assert results["batch#2"].makespan_ms < results["batch"].makespan_ms


class TestDeadlinePolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(RuntimeFlickError):
            DeadlinePolicy(default_slo_us=0.0)
        with pytest.raises(RuntimeFlickError):
            DeadlinePolicy(timeslice_us=50.0, min_budget_us=60.0)
        with pytest.raises(RuntimeFlickError):
            DeadlinePolicy(min_budget_us=0.0)

    def test_next_local_pops_earliest_deadline(self):
        from collections import deque

        policy = DeadlinePolicy()
        a, b, c = (ItemTask(n, 1, 1.0, i) for i, n in enumerate("abc"))
        a.slo_us, b.slo_us, c.slo_us = 100.0, 5.0, 50.0

        class W:
            pass

        worker = W()
        worker.queue = deque([a, b, c])
        assert policy.next_local(worker) is b
        assert list(worker.queue) == [a, c]

    def test_select_victim_holds_globally_earliest_deadline(self):
        from collections import deque

        policy = DeadlinePolicy()
        urgent = ItemTask("urgent", 1, 1.0, 0)
        urgent.slo_us = 1.0
        lax = [ItemTask(f"lax{i}", 1, 1.0, i + 1) for i in range(3)]
        for task in lax:
            task.slo_us = 500.0
        workers = [_FakeWorker(0, 0), _FakeWorker(1, 0), _FakeWorker(2, 0)]
        workers[1].queue = deque(lax)  # longest queue...
        workers[2].queue = deque([urgent])  # ...but not the tightest SLO
        assert policy.select_victim(workers[0], workers) is workers[2]

    def test_steal_hands_over_the_earliest_deadline_task(self):
        """select_victim leaves the earliest-deadline task at the head
        of the victim's queue, since that is what the mechanism steals —
        a FIFO-head steal would invert EDF priority."""
        from collections import deque

        policy = DeadlinePolicy()
        lax = ItemTask("lax", 1, 1.0, 1)
        lax.slo_us = 10_000.0
        urgent = ItemTask("urgent", 1, 1.0, 0)
        urgent.slo_us = 50.0
        thief, victim = _FakeWorker(0, 0), _FakeWorker(1, 0)
        victim.queue = deque([lax, urgent])
        assert policy.select_victim(thief, [thief, victim]) is victim
        assert victim.queue[0] is urgent

    def test_budget_is_slack_clamped_to_timeslice(self):
        policy = DeadlinePolicy(timeslice_us=50.0, min_budget_us=5.0)
        relaxed = ItemTask("relaxed", 1, 1.0, 0)
        relaxed.slo_us = 1000.0
        tight = ItemTask("tight", 1, 1.0, 1)
        tight.slo_us = 2.0
        # No engine bound: now == 0, slack == slo.
        assert policy.budget(relaxed) == 50.0
        assert policy.budget(tight) == 5.0  # floored, still progresses

    def test_deadline_clock_restarts_after_drain(self):
        policy = DeadlinePolicy(default_slo_us=100.0)
        engine = Engine()
        policy._bound_engine = engine
        task = ItemTask("t", 1, 1.0, 1)
        assert policy.deadline_of(task) == 100.0
        task.remaining = 0
        policy.on_task_done(task, None, 1.0)  # drained: deadline dropped
        engine.now = 50.0
        task.remaining = 1
        assert policy.deadline_of(task) == 150.0  # new SLO clock

    def test_configure_adopts_runtime_slo(self):
        from repro.runtime.costs import RuntimeConfig

        policy = DeadlinePolicy(default_slo_us=10_000.0)
        policy.configure(RuntimeConfig(slo_us=321.0))
        assert policy.default_slo_us == 321.0
        policy.configure(RuntimeConfig())  # slo_us=None keeps the last SLO
        assert policy.default_slo_us == 321.0

    def test_frees_light_tasks_faster_than_cooperative(self):
        """Size-proportional SLOs give EDF the signal to run light
        tasks (tight deadlines) ahead of heavy ones."""
        coop = run_scheduling_experiment(
            "cooperative", n_tasks=24, items_per_task=40, cores=4
        )
        edf = run_scheduling_experiment(
            "deadline", n_tasks=24, items_per_task=40, cores=4
        )
        assert edf.light_mean_ms < 0.75 * coop.light_mean_ms
        assert edf.makespan_ms == pytest.approx(coop.makespan_ms, rel=0.05)


class _SocketWorker(_FakeWorker):
    def __init__(self, index, queue_len, socket):
        super().__init__(index, queue_len)
        self.socket = socket


class TestNumaPolicy:
    def test_prefers_same_socket_victim(self):
        workers = [
            _SocketWorker(0, 0, 0),
            _SocketWorker(1, 2, 0),
            _SocketWorker(2, 9, 1),  # longer, but across the interconnect
        ]
        policy = NumaPolicy()
        assert policy.select_victim(workers[0], workers) is workers[1]

    def test_crosses_sockets_only_when_starved(self):
        workers = [
            _SocketWorker(0, 0, 0),
            _SocketWorker(1, 0, 0),
            _SocketWorker(2, 3, 1),
        ]
        policy = NumaPolicy()
        assert policy.select_victim(workers[0], workers) is workers[2]

    def test_place_honours_home_hint(self):
        workers = [_SocketWorker(i, 0, i // 2) for i in range(4)]
        task = ItemTask("t", 1, 1.0, 1)
        task.home_hint = 3
        assert NumaPolicy().place(task, workers) is workers[3]

    def test_place_balances_within_the_hashed_socket(self):
        from repro.core.ids import stable_hash

        workers = [
            _SocketWorker(0, 5, 0),
            _SocketWorker(1, 0, 0),
            _SocketWorker(2, 5, 1),
            _SocketWorker(3, 0, 1),
        ]
        task = ItemTask("t", 1, 1.0, 1)
        socket = stable_hash(task.task_id) % 2
        placed = NumaPolicy().place(task, workers)
        assert placed.socket == socket  # socket affinity is by hash...
        assert len(placed.queue) == 0  # ...core within it by load


class TestPlacementHash:
    """A task's placement hash is computed once, when the task is built,
    and is the hash of its id that placement always used."""

    @pytest.mark.parametrize(
        "spec",
        [
            testbeds.Scenario(
                app="memcached_proxy", concurrency=8, total_requests=256,
            ),
            testbeds.Scenario(
                app="http_lb", policy="numa", topology="two-socket",
                persistent=False, concurrency=8, requests_per_client=4,
            ),
            testbeds.Scenario(
                app="hadoop_agg", data_kb_per_mapper=4, n_mappers=4,
            ),
        ],
        ids=["memcached-proxy", "http-lb-numa", "hadoop"],
    )
    def test_every_task_built_carries_the_hash_of_its_id(
        self, monkeypatch, spec
    ):
        built = []
        init = TaskBase.__init__

        def recording(task, name, task_id):
            init(task, name, task_id)
            built.append(task)

        monkeypatch.setattr(TaskBase, "__init__", recording)
        result = testbeds.run_experiment(spec)
        assert result.throughput > 0
        assert len({type(task) for task in built}) >= 3
        for task in built:
            assert task.placement_hash == stable_hash(task.task_id), task


class TestSchedulerTopology:
    def test_workers_labelled_with_sockets(self):
        sched = Scheduler(Engine(), 16, "numa", topology="two-socket")
        sockets = [w.socket for w in sched._workers]
        assert sockets == [0] * 8 + [1] * 8
        assert sched.topology.name == "two-socket"

    def test_flat_default_is_all_socket_zero(self):
        sched = Scheduler(Engine(), 4, "cooperative")
        assert all(w.socket == 0 for w in sched._workers)
        assert sched.topology is None

    def test_unknown_topology_name_rejected(self):
        with pytest.raises(RuntimeFlickError, match="unknown core topology"):
            Scheduler(Engine(), 4, "cooperative", topology="mesh")

    def test_degenerate_topologies_rejected(self):
        from repro.net.stackprofiles import CoreTopology

        with pytest.raises(ValueError):
            CoreTopology("x", sockets=0, cores_per_socket=4,
                         remote_steal_penalty_us=1.0)
        with pytest.raises(ValueError):
            CoreTopology("x", sockets=2, cores_per_socket=0,
                         remote_steal_penalty_us=1.0)
        with pytest.raises(ValueError):
            CoreTopology("x", sockets=2, cores_per_socket=4,
                         remote_steal_penalty_us=-1.0)

    def test_remote_steals_charged_the_penalty(self):
        from repro.net.stackprofiles import CoreTopology
        from repro.runtime.costs import STEAL_US

        tiny = CoreTopology(
            name="tiny", sockets=2, cores_per_socket=1,
            remote_steal_penalty_us=5.0,
        )
        engine = Engine()
        sched = Scheduler(engine, 2, "cooperative", topology=tiny)
        tasks = [ItemTask(f"t{i}", 30, 2.0, next(engine.task_ids)) for i in range(4)]
        for task in tasks:
            task.home_hint = 0  # all work lands on socket-0's core
        sched.start()
        for task in tasks:
            sched.notify_runnable(task)
        engine.run()
        assert all(t.remaining == 0 for t in tasks)
        # Worker 1 (socket 1) can only steal remotely, paying the
        # penalty on every steal operation.
        assert sched.total_steals > 0
        assert sched.total_steal_us == pytest.approx(
            sched.total_steals * (STEAL_US + 5.0)
        )


class TestAdaptiveTimeslicePolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(RuntimeFlickError):
            AdaptiveTimeslicePolicy(min_us=0.0)
        with pytest.raises(RuntimeFlickError):
            AdaptiveTimeslicePolicy(min_us=80.0, max_us=20.0)
        with pytest.raises(RuntimeFlickError):
            AdaptiveTimeslicePolicy(depth_saturation=0.0)
        with pytest.raises(RuntimeFlickError):
            AdaptiveTimeslicePolicy(smoothing=0.0)

    def test_budget_starts_wide_open(self):
        policy = AdaptiveTimeslicePolicy(min_us=10.0, max_us=100.0)
        assert policy.budget(None) == 100.0

    def test_band_defaults_scale_with_the_configured_timeslice(self):
        """The configured quantum is not ignored: it anchors the band
        (paper's 10-100 µs at the default 50 µs timeslice)."""
        default = AdaptiveTimeslicePolicy()
        assert (default.min_us, default.max_us) == (10.0, 100.0)
        scaled = AdaptiveTimeslicePolicy(timeslice_us=20.0)
        assert (scaled.min_us, scaled.max_us) == (4.0, 40.0)

    def test_deep_queues_shrink_the_budget_within_band(self):
        policy = AdaptiveTimeslicePolicy(min_us=10.0, max_us=100.0)
        worker = _FakeWorker(0, 40)
        previous = policy.budget(None)
        for _ in range(50):
            policy.on_task_done(None, worker, 1.0)
            budget = policy.budget(None)
            assert 10.0 <= budget <= previous  # monotone under pressure
            previous = budget
        assert previous == pytest.approx(10.0)  # saturated at the floor

    def test_empty_queues_grow_it_back(self):
        policy = AdaptiveTimeslicePolicy(min_us=10.0, max_us=100.0)
        deep, empty = _FakeWorker(0, 40), _FakeWorker(1, 0)
        for _ in range(50):
            policy.on_task_done(None, deep, 1.0)
        for _ in range(100):
            policy.on_task_done(None, empty, 1.0)
        assert policy.budget(None) == pytest.approx(100.0, rel=1e-3)

    def test_reset_restores_the_initial_budget(self):
        policy = AdaptiveTimeslicePolicy()
        for _ in range(20):
            policy.on_task_done(None, _FakeWorker(0, 40), 1.0)
        assert policy.budget(None) < 100.0
        policy.reset()
        assert policy.budget(None) == 100.0


class TestStealHalfPolicy:
    def test_steal_count_is_half_the_victim_queue(self):
        policy = StealHalfPolicy()
        assert policy.steal_count(None, _FakeWorker(1, 8)) == 4
        assert policy.steal_count(None, _FakeWorker(1, 9)) == 4
        assert policy.steal_count(None, _FakeWorker(1, 1)) == 1

    def test_batches_move_and_are_charged_once(self):
        from repro.runtime.costs import STEAL_US

        engine = Engine()
        sched = Scheduler(engine, 2, "steal-half")
        tasks = [ItemTask(f"t{i}", 20, 2.0, next(engine.task_ids)) for i in range(8)]
        for task in tasks:
            task.home_hint = 0  # force an imbalance worth batch-stealing
        sched.start()
        for task in tasks:
            sched.notify_runnable(task)
        engine.run()
        assert all(t.remaining == 0 for t in tasks)
        # At least one steal moved more than one task, and the cost was
        # paid per operation, not per task.
        assert sched.total_stolen_tasks > sched.total_steals > 0
        assert sched.total_steal_us == pytest.approx(
            sched.total_steals * STEAL_US
        )

    def test_beats_single_steal_on_imbalanced_load(self):
        """With all work homed on one core, batch stealing rebalances in
        fewer (paid) steal operations than one-at-a-time stealing."""

        def steals(policy):
            engine = Engine()
            sched = Scheduler(engine, 4, policy)
            tasks = [ItemTask(f"t{i}", 16, 4.0, next(engine.task_ids)) for i in range(16)]
            for task in tasks:
                task.home_hint = 0
            sched.start()
            for task in tasks:
                sched.notify_runnable(task)
            engine.run()
            assert all(t.remaining == 0 for t in tasks)
            return sched.total_steals

        assert steals("steal-half") < steals("cooperative")


class TestSweepDeterminism:
    def test_sweep_ignores_registry_order_and_prior_ids(self):
        """An every-policy sweep yields identical numbers whatever
        order the registry is iterated in and however many tasks the
        process created beforehand (each run numbers its own tasks)."""
        names = registered_policies()
        first = run_policy_sweep(
            names, n_tasks=16, items_per_task=12, cores=4
        )
        second = run_policy_sweep(
            tuple(reversed(names)), n_tasks=16, items_per_task=12, cores=4
        )
        assert set(first) == set(second) == set(names)
        for name in names:
            assert first[name] == second[name], name


class TestPlatformPolicyThreading:
    def test_config_accepts_any_registered_name(self):
        from repro.runtime.costs import RuntimeConfig

        cfg = RuntimeConfig(policy="priority")
        assert cfg.policy == "priority"

    def test_config_accepts_instance(self):
        from repro.runtime.costs import RuntimeConfig

        policy = BatchPolicy(k=2)
        assert RuntimeConfig(policy=policy).policy is policy

    def test_config_rejects_unknown(self):
        from repro.runtime.costs import RuntimeConfig

        with pytest.raises(ValueError):
            RuntimeConfig(policy="fifo")
        with pytest.raises(ValueError):
            RuntimeConfig(policy=42)

    def test_platform_policy_override(self):
        from repro.net.simnet import GBPS
        from repro.net.tcp import TcpNetwork
        from repro.runtime.costs import RuntimeConfig
        from repro.runtime.platform import FlickPlatform

        engine = Engine()
        net = TcpNetwork(engine)
        mbox = net.add_host("mbox", 10 * GBPS, "core")
        platform = FlickPlatform(
            engine, net, mbox, RuntimeConfig(policy="locality")
        )
        assert platform.scheduler.policy_name == "locality"

    def test_platform_accepts_policy_instance(self):
        from repro.net.simnet import GBPS
        from repro.net.tcp import TcpNetwork
        from repro.runtime.costs import RuntimeConfig
        from repro.runtime.platform import FlickPlatform

        engine = Engine()
        net = TcpNetwork(engine)
        mbox = net.add_host("mbox", 10 * GBPS, "core")
        policy = BatchPolicy(k=4)
        platform = FlickPlatform(engine, net, mbox, RuntimeConfig(policy=policy))
        assert platform.scheduler.policy is policy

    def test_config_validates_slo(self):
        from repro.runtime.costs import RuntimeConfig

        assert RuntimeConfig(slo_us=500.0).slo_us == 500.0
        with pytest.raises(ValueError):
            RuntimeConfig(slo_us=0.0)
        with pytest.raises(ValueError):
            RuntimeConfig(slo_us=-3.0)

    def test_config_validates_topology(self):
        from repro.net.stackprofiles import TWO_SOCKET
        from repro.runtime.costs import RuntimeConfig

        assert RuntimeConfig(topology="two-socket").topology == "two-socket"
        assert RuntimeConfig(topology=TWO_SOCKET).topology is TWO_SOCKET
        with pytest.raises(ValueError):
            RuntimeConfig(topology="mesh")
        with pytest.raises(ValueError):
            RuntimeConfig(topology=42)

    def test_platform_threads_topology_and_slo(self):
        from repro.net.simnet import GBPS
        from repro.net.tcp import TcpNetwork
        from repro.runtime.costs import RuntimeConfig
        from repro.runtime.platform import FlickPlatform

        engine = Engine()
        net = TcpNetwork(engine)
        mbox = net.add_host("mbox", 10 * GBPS, "core")
        config = RuntimeConfig(
            policy="deadline", slo_us=750.0, topology="two-socket"
        )
        platform = FlickPlatform(engine, net, mbox, config=config)
        # The scheduler consumed the topology and labelled its workers...
        assert platform.scheduler.topology.name == "two-socket"
        assert {w.socket for w in platform.scheduler._workers} == {0, 1}
        # ...and configure() handed the platform SLO to the policy.
        assert platform.scheduler.policy.default_slo_us == 750.0

    def test_graph_stamps_per_connection_slo(self):
        from repro.runtime.costs import RuntimeConfig
        from repro.runtime.graph import TaskGraph

        # _add_task is the single funnel every connection task passes
        # through; exercise it directly on a bare instance.
        graph = object.__new__(TaskGraph)
        graph.config = RuntimeConfig(slo_us=750.0)
        graph.tasks = []
        task = ItemTask("t", 1, 1.0, 1)
        graph._add_task(task)
        assert task.slo_us == 750.0
        graph.config = RuntimeConfig()  # no SLO: tasks stay unstamped
        bare = ItemTask("u", 1, 1.0, 2)
        graph._add_task(bare)
        assert not hasattr(bare, "slo_us")

    def test_task_ids_stay_unique_across_platforms(self):
        """Two platforms of one run take task ids from the run's engine,
        so no two of their tasks share one."""
        from repro.apps.http_lb import compile_static_web
        from repro.net.simnet import GBPS
        from repro.net.tcp import TcpNetwork
        from repro.runtime.platform import FlickPlatform

        engine = Engine()
        net = TcpNetwork(engine)
        ids = []
        for name in "ab":
            platform = FlickPlatform(engine, net, net.add_host(name, 10 * GBPS, "core"))
            instance = platform.register_program(compile_static_web(), "StaticWeb", 80)
            ids += [task.task_id for task in instance._dispatch_tasks]
        assert sorted(ids) == list(range(1, len(ids) + 1))
