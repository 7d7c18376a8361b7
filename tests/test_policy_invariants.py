"""Policy-invariant conformance harness.

Every registered scheduling policy — present and future — is run through
randomized (but seeded) workloads and checked against the cross-cutting
invariants of the policy/mechanism contract, so a new policy gets
regression coverage the moment it is registered:

* **conservation** — no task is lost or duplicated: every admitted task
  drains exactly its item count, ends IDLE, and every worker queue is
  empty when the simulation quiesces;
* **steal accounting** — batch steals move at least as many tasks as
  there are steal operations, and the workers' busy time decomposes
  exactly into task work + per-decision ``SCHEDULE_US`` + charged steal
  costs (including topology penalties);
* **budget bounds** — every finite value a policy's ``budget()`` hook
  returns lies in ``[0, policy.max_budget_us()]``;
* **determinism** — identical seeds produce identical schedules;
* **reusability** — ``reset()`` (fired when a scheduler adopts the
  policy) restores a used instance to a state indistinguishable from a
  fresh one;
* **SLO outcomes** — the scheduler's per-service-class scoreboard is
  conserved (class completion counts sum to the total), coherent (no
  recorded deadline precedes its admission), and seed-deterministic
  (identical seeds produce identical per-class SLO-miss counts);
* **pinned calls** — every hook call each policy sees (hook, virtual
  time, worker, task, answer) hashes to a digest recorded before the
  mechanism stopped scanning empty queues, so skipping those scans and
  the base no-op hooks changed nothing any policy is asked.

Workloads mix item counts, per-item costs, SLOs, service classes,
pinned and hash-placed tasks, and staggered arrival times, so the
sleep/wake and steal paths are all exercised.
"""

import hashlib
import random

import pytest

from repro.net.stackprofiles import CoreTopology
from repro.runtime.costs import SCHEDULE_US
from repro.runtime.policy import make_policy, registered_policies
from repro.runtime.qos import ServiceClass
from repro.runtime.scheduler import IDLE, Scheduler, TaskBase
from repro.sim.engine import Engine

SEEDS = (7, 23)
CORES = 4
N_TASKS = 24

#: 4 cores across 2 sockets, so steals can cross the interconnect.
PAIR_TOPOLOGY = CoreTopology(
    name="pair", sockets=2, cores_per_socket=2, remote_steal_penalty_us=2.0
)

#: QoS tiers randomly stamped on workload tasks (None = unclassified).
SERVICE_CLASSES = (
    None,
    ServiceClass("gold", slo_us=800.0, weight=4.0),
    ServiceClass("silver", slo_us=5_000.0, weight=2.0),
    ServiceClass("bronze", slo_us=50_000.0),
)


class HarnessTask(TaskBase):
    """Finite task with per-item cost; detects concurrent stepping."""

    def __init__(self, name, n_items, item_cost_us, engine, slo_us=None):
        super().__init__(name, next(engine.task_ids))
        self._engine = engine
        self.remaining = n_items
        self.item_cost_us = item_cost_us
        if slo_us is not None:
            self.slo_us = slo_us
        self.finished_at = None
        self._stepping = False

    def has_work(self):
        return self.remaining > 0

    def step(self, budget_us):
        # Two workers stepping one task at once would double-process
        # items without tripping the remaining-item count; catch it here.
        assert not self._stepping, f"{self.name} stepped concurrently"
        self._stepping = True
        try:
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
        finally:
            self._stepping = False


class BudgetRecorder:
    """Wraps a policy instance's ``budget`` hook, recording every return."""

    def __init__(self, policy):
        self.policy = policy
        self.budgets = []
        inner = policy.budget

        def recording(task):
            value = inner(task)
            self.budgets.append(value)
            return value

        policy.budget = recording


def run_workload(policy, seed, topology=None, periods=None):
    """One randomized run; returns ``(scheduler, tasks)`` at quiescence.

    ``periods``, a list, receives every busy period the scheduler
    records, as the arguments of its scoreboard's ``record``:
    ``(task, service_class, admitted_us, completed_us, slo_us)``.
    """
    rng = random.Random(seed)
    engine = Engine()
    scheduler = Scheduler(engine, CORES, policy, topology)
    if periods is not None:
        record = scheduler.scoreboard.record

        def recording(*args):
            periods.append(args)
            record(*args)

        scheduler.scoreboard.record = recording
    tasks = []
    for index in range(N_TASKS):
        task = HarnessTask(
            f"task{index}",
            rng.randint(1, 30),
            rng.choice((0.5, 2.0, 4.0, 16.0)),
            engine,
            slo_us=rng.choice((None, 50.0, 500.0, 5000.0)),
        )
        service_class = rng.choice(SERVICE_CLASSES)
        if service_class is not None:
            task.service_class = service_class
            task.slo_us = service_class.slo_us
        if rng.random() < 0.5:
            task.home_hint = rng.randrange(CORES)
        tasks.append(task)
    arrivals = sorted(
        (rng.uniform(0.0, 400.0), index) for index in range(N_TASKS)
    )
    scheduler.start()

    def admit(position, now):
        """Admit every task due by ``now``, then file the next arrival."""
        for position in range(position, len(arrivals)):
            at, index = arrivals[position]
            if at > now:
                engine.schedule(at - now, admit, position, at)
                return
            scheduler.notify_runnable(tasks[index])

    engine.schedule(0.0, admit, 0, 0.0)
    engine.run()
    return scheduler, tasks


def snapshot(scheduler, tasks):
    """Everything a schedule determines, for determinism comparisons."""
    return {
        "tasks": [
            (t.name, t.busy_us, t.finished_at)
            for t in tasks
        ],
        "executed": scheduler.tasks_executed,
        "busy_us": scheduler.total_busy_us,
        "steals": scheduler.total_steals,
        "stolen_tasks": scheduler.total_stolen_tasks,
        "slo_summary": scheduler.scoreboard.summary(),
    }


def check_conservation(scheduler, tasks):
    for task in tasks:
        assert task.remaining == 0, f"{task.name} lost work"
        assert task.finished_at is not None, f"{task.name} never finished"
        assert task.sched_state == IDLE
    assert all(not w.queue for w in scheduler._workers), (
        "worker queues must be empty at quiescence"
    )


def check_steal_accounting(scheduler, tasks):
    assert scheduler.total_stolen_tasks >= scheduler.total_steals
    if scheduler.total_steals == 0:
        assert scheduler.total_stolen_tasks == 0
        assert scheduler.total_steal_us == 0.0
    assert scheduler.total_busy_us == pytest.approx(
        sum(t.busy_us for t in tasks)
        + scheduler.tasks_executed * SCHEDULE_US
        + scheduler.total_steal_us
    ), "busy time must decompose into work + decisions + steals"


def check_budget_bounds(recorder):
    assert recorder.budgets, "no scheduling decision recorded a budget"
    cap = recorder.policy.max_budget_us()
    for budget in recorder.budgets:
        if budget is None:  # run-to-completion is always legal
            continue
        assert 0.0 <= budget <= cap + 1e-9, (
            f"budget {budget} outside [0, {cap}]"
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", registered_policies())
class TestPolicyInvariants:
    def test_conservation_and_accounting(self, name, seed):
        policy = make_policy(name)
        recorder = BudgetRecorder(policy)
        scheduler, tasks = run_workload(policy, seed)
        check_conservation(scheduler, tasks)
        check_steal_accounting(scheduler, tasks)
        check_budget_bounds(recorder)

    def test_invariants_hold_on_a_numa_topology(self, name, seed):
        policy = make_policy(name)
        recorder = BudgetRecorder(policy)
        scheduler, tasks = run_workload(policy, seed, PAIR_TOPOLOGY)
        check_conservation(scheduler, tasks)
        check_steal_accounting(scheduler, tasks)
        check_budget_bounds(recorder)

    def test_identical_seeds_identical_schedules(self, name, seed):
        first = snapshot(*run_workload(make_policy(name), seed))
        second = snapshot(*run_workload(make_policy(name), seed))
        assert first == second

    def test_reset_restores_a_reusable_policy(self, name, seed):
        policy = make_policy(name)
        used = snapshot(*run_workload(policy, seed))
        # Same instance again: adoption resets learned state, so the
        # second run must be indistinguishable from the first.
        reused = snapshot(*run_workload(policy, seed))
        assert used == reused

    def test_slo_completions_sum_to_total(self, name, seed):
        """Scoreboard conservation: per-class completion counts sum to
        the total, and every admitted task is accounted exactly once
        (this workload admits each task a single time)."""
        periods = []
        scheduler, tasks = run_workload(make_policy(name), seed, periods=periods)
        scoreboard = scheduler.scoreboard
        by_class = {
            name: stats["completions"]
            for name, stats in scoreboard.summary().items()
        }
        assert sum(by_class.values()) == scoreboard.total_completions
        assert scoreboard.total_completions == len(periods)
        recorded_ids = sorted(period[0].task_id for period in periods)
        assert recorded_ids == sorted(t.task_id for t in tasks)
        # The class breakdown mirrors what was stamped on the tasks.
        expected = {}
        for task in tasks:
            cls = task.service_class.name if task.service_class else "default"
            expected[cls] = expected.get(cls, 0) + 1
        assert by_class == expected

    def test_slo_deadline_never_precedes_admission(self, name, seed):
        """Scoreboard coherence: every busy period's completion and
        deadline sit at or after its admission, classified periods carry
        their class's SLO, and each class's misses are its periods that
        drained after their deadline."""
        periods = []
        scheduler, _ = run_workload(make_policy(name), seed, periods=periods)
        misses = {}
        for task, class_name, admitted_us, completed_us, slo_us in periods:
            assert completed_us >= admitted_us
            missed = False
            if slo_us is not None:
                deadline = admitted_us + slo_us
                assert deadline >= admitted_us
                missed = completed_us > deadline
            misses[class_name] = misses.get(class_name, 0) + missed
            if task.service_class is not None:
                assert class_name == task.service_class.name
                assert slo_us == task.service_class.slo_us
        summary = scheduler.scoreboard.summary()
        assert {n: s["misses"] for n, s in summary.items()} == misses

    def test_slo_miss_counts_are_seed_deterministic(self, name, seed):
        """Identical seeds must yield identical per-class SLO misses."""
        first, _ = run_workload(make_policy(name), seed)
        second, _ = run_workload(make_policy(name), seed)
        assert first.scoreboard.summary() == second.scoreboard.summary()


#: Every decision hook the mechanism may call.
HOOKS = (
    "budget",
    "place",
    "select_victim",
    "next_local",
    "steal_count",
    "steps_per_decision",
    "on_task_done",
)
CALL_LOG_SEEDS = (7, 23, 41)


def _describe(hook, args, result):
    """``(worker index, task id, result)`` for one hook call; a worker
    or task result is logged by its index or id, and ``on_task_done``
    by the elapsed time it is fed."""
    if hook in ("budget", "steps_per_decision"):
        return None, args[0].task_id, result
    if hook == "place":
        return None, args[0].task_id, result.index
    if hook == "select_victim":
        return args[0].index, None, getattr(result, "index", None)
    if hook == "next_local":
        return args[0].index, None, result.task_id
    if hook == "steal_count":
        return args[0].index, None, (args[1].index, result)
    return args[1].index, args[0].task_id, args[2]


def call_logs(name, seed):
    """Every hook call one policy instance sees over ``run_workload``.

    Each hook is wrapped by an *instance attribute*, which counts as an
    override, so the mechanism must consult it.  Returns the full log
    and the log without the ``select_victim`` calls made while every
    active queue was empty — the scans that cannot find work.
    """
    policy = make_policy(name)
    full, useful = [], []
    for hook in HOOKS:
        def wrapped(*args, hook=hook, inner=getattr(policy, hook)):
            result = inner(*args)
            entry = (hook, policy._bound_engine.now) + _describe(
                hook, args, result
            )
            full.append(entry)
            if hook != "select_victim" or any(w.queue for w in args[1]):
                useful.append(entry)
            return result

        setattr(policy, hook, wrapped)
    run_workload(policy, seed)
    return full, useful


def _digest(log):
    return hashlib.sha256(
        "\n".join(repr(entry) for entry in log).encode()
    ).hexdigest()


def call_log_digests(name):
    """``(full, useful)`` sha256 digests over ``CALL_LOG_SEEDS``."""
    full, useful = [], []
    for seed in CALL_LOG_SEEDS:
        seed_full, seed_useful = call_logs(name, seed)
        full += seed_full
        useful += seed_useful
    return _digest(full), _digest(useful)


#: ``call_log_digests`` per policy, recorded on the scheduler that still
#: scanned for victims while every queue was empty (the two digests
#: differ for every policy: this workload made such scans).  The
#: mechanism no longer makes them, so today's *full* log must equal that
#: scheduler's log without them: every policy is asked exactly what it
#: was asked before, in the same order, at the same virtual times, with
#: the same answers.  A newly registered policy pins its two digests,
#: which are then equal.
PINNED_CALL_LOGS = {
    "cooperative": (
        "d32a365883073d22d40f7477595001aa02bbe4d1e6ee1ac6496dc0ac9a7d5506",
        "a415bda1cebaa844ba412c369138e4bf9374dbbad233ccff7015120f704ba018",
    ),
    "non_cooperative": (
        "575337920bf25c88305e55597754cf80f60fd7881fd7a6d85ad3fed465d7d3ca",
        "8735c7a749e1f32d6f3b01ab2b01f0bb5b0434bfcb7fae7c6abe6e3c2343bbbc",
    ),
    "round_robin": (
        "1dacb4c464aa807942cdf81de987a19b04af9ccf4df435577243f346ddbda78c",
        "03f9d40aa85d4f342f89a218294df7f1d1f9e410ca3100ecbc5c592bf6b1c119",
    ),
    "adaptive-timeslice": (
        "41aacd3d0288aa614ea696c807a436af3ed6f78febac80e2e61de7a8c61a41d2",
        "2f15a7c08988aba8afd4ddbd5347c7eca3cb35a5abbb1c1e678e044ff1d2f234",
    ),
    "batch": (
        "fec3ceb5f288fa6556d32b1eac994a544fa04e079bef175ff1e5028b7795f955",
        "e8b2c5ab66b9550c5cb087aaeded2831090ed34b364e3137b78b7c25fad040a3",
    ),
    "deadline": (
        "012e9ea1cbb4534f8d62a48a5f336e537a919da6b3219e82f480ab2e08184bbd",
        "6ce46649df8ca235f999394f94a18499d1c373b77fe9a921a782560647cb63db",
    ),
    "locality": (
        "b27842e02ee6d87e92cfa2cd33a4dc7cda570801982461d19ba99de5f68a3b7c",
        "003b033020d1bc50321f0fadfaec7f0e98e5c212faaf968774c718b214c67827",
    ),
    "numa": (
        "301eb0e650d3598a0eab7acd559270194c699132d81c16cf92af83024db5280b",
        "c4cb8688428262a33a8e17205d675836c8bf75de9b4fbc37f5c2ddd0b2f85f2c",
    ),
    "priority": (
        "ff8357bf1cce36e4aca494f4f38772e70b21dae3fcf6118cf058d40292b55004",
        "b2dae502e5084335c18f5bcd2e286a60068c6abb78b8ff23c78550a11430f9b2",
    ),
    "steal-half": (
        "5c08b79f94d904a2a02e6e4e602cf4f10a89bee69f555fba84e7e583d5fd9151",
        "e93a7055ecac21095453fea5943f0bf86cf445e0bde825c80e85b13fef200868",
    ),
}


@pytest.mark.parametrize("name", registered_policies())
def test_policies_see_the_pinned_calls(name):
    assert name in PINNED_CALL_LOGS, (
        f"pin {name!r}: add call_log_digests({name!r}) to PINNED_CALL_LOGS"
    )
    before_full, before_useful = PINNED_CALL_LOGS[name]
    full, useful = call_log_digests(name)
    assert useful == before_useful
    assert full == before_useful, "the mechanism scanned for nothing"


def test_cooperative_scans_only_when_a_steal_follows():
    scans = []
    policy = make_policy("cooperative")
    inner = policy.select_victim

    def select_victim(worker, workers):
        scans.append(worker.index)
        return inner(worker, workers)

    policy.select_victim = select_victim
    scheduler, _ = run_workload(policy, SEEDS[0])
    assert scans
    assert len(scans) == scheduler.total_steals


def test_harness_covers_whole_registry():
    """The parametrization above is the conformance gate: it must track
    the registry, not a hand-maintained list."""
    assert len(registered_policies()) >= 10
    assert len(set(registered_policies())) == len(registered_policies())
