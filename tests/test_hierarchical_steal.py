"""Hierarchical NUMA stealing and the ring of sockets it walks.

The four-socket topology is a ring: adjacent sockets one hop apart,
opposite ones two, with steals priced per hop.  The ``numa`` policy must
steal *hierarchically* — own socket, then nearest non-empty socket,
widening one tier at a time — which these tests verify two ways:

* a property test watches every steal through the policy's
  ``select_victim`` hook (wrapped on the instance, so it sees the
  queues each victim was chosen against) and checks it took from the
  nearest non-empty socket, and that each thief's steal cost
  decomposes exactly into ``steals * STEAL_US + hops * per-hop
  penalty``, and (with ``steal_count`` wrapped too) that each thief's
  stolen-task count is the sum of its steals' batch sizes;
* an outcome test pits hierarchical stealing against PR 2's flat
  local-then-anywhere order on the same four-socket workload and
  requires strictly lower cross-socket steal cost.
"""

import random
from typing import NamedTuple, Tuple

import pytest

from repro.bench.scheduling import SyntheticTask
from repro.net.stackprofiles import (
    FOUR_SOCKET,
    TWO_SOCKET,
    UNIFORM,
    CoreTopology,
)
from repro.runtime.costs import STEAL_US
from repro.runtime.policy import NumaPolicy, overridden_hook, resolve_policy
from repro.runtime.scheduler import Scheduler
from repro.sim.engine import Engine

from tests.item_task import ItemTask

SEEDS = (3, 11, 42)
CORES = 16  # the full four-socket box: 4 sockets x 4 cores


class Steal(NamedTuple):
    """One steal the mechanism made, as the policy chose it."""

    thief: int
    victim: int
    hops: int
    #: Every candidate queue's length when the victim was chosen.
    queue_lens: Tuple[int, ...]
    #: Tasks the steal moved: the policy's clamped ``steal_count``, or 1.
    tasks: int = 1


def watch_steals(policy):
    """``(policy, steals)``: ``policy`` (a name or an instance) with its
    ``select_victim`` wrapped, and the list of :class:`Steal` it fills.

    Wrap before a scheduler adopts the policy, which binds the hook
    once.  A chosen victim with a queued task is a steal: the mechanism
    takes from every such victim, and from no other.  ``hops`` is the
    distance on the four-socket ring (0 on a flat scheduler, whose
    workers are all on socket 0).  A policy that overrides
    ``steal_count`` has it wrapped too, and each steal records the batch
    size the mechanism takes: the request clamped to ``1..len(queue)``.
    """
    policy = resolve_policy(policy)
    steals = []
    choose = policy.select_victim
    count = overridden_hook(policy, "steal_count")

    if count is not None:

        def counting(worker, victim):
            requested = count(worker, victim)
            batch = max(1, min(int(requested), len(victim.queue)))
            steals[-1] = steals[-1]._replace(tasks=batch)
            return requested

        policy.steal_count = counting

    def recording(worker, workers):
        queue_lens = tuple(len(w.queue) for w in workers)
        victim = choose(worker, workers)
        if victim is not None and victim.queue:
            hops = FOUR_SOCKET.socket_hops(worker.socket, victim.socket)
            steals.append(
                Steal(worker.index, victim.index, hops, queue_lens)
            )
        return victim

    policy.select_victim = recording
    return policy, steals


def remote_cost(steals) -> float:
    return sum(s.hops * FOUR_SOCKET.remote_steal_penalty_us for s in steals)


def run_four_socket_workload(policy, seed, n_tasks=48):
    """A randomized, imbalanced workload on the four-socket ring."""
    rng = random.Random(seed)
    engine = Engine()
    scheduler = Scheduler(engine, CORES, policy, FOUR_SOCKET)
    tasks = []
    for index in range(n_tasks):
        task = ItemTask(
            f"task{index}", rng.randint(1, 24), rng.choice((1.0, 4.0, 12.0)), next(engine.task_ids)
        )
        # Skewed pinning: most work lands on sockets 0 and 2, so the
        # starved sockets must steal and get a real choice of distance.
        task.home_hint = rng.choice((0, 1, 2, 3, 8, 9, 10, 11, 4, 12))
        tasks.append(task)
    arrivals = sorted(
        (rng.uniform(0.0, 300.0), index) for index in range(n_tasks)
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
    assert all(t.remaining == 0 for t in tasks)
    return scheduler


def four_socket_steals(policy, seed):
    """``(scheduler, steals)`` of one :func:`run_four_socket_workload`."""
    policy, steals = watch_steals(policy)
    return run_four_socket_workload(policy, seed), steals


class TestSocketDistanceMatrix:
    def test_default_ring_distances(self):
        assert FOUR_SOCKET.socket_hops(0, 0) == 0
        assert FOUR_SOCKET.socket_hops(0, 1) == 1
        assert FOUR_SOCKET.socket_hops(0, 2) == 2
        assert FOUR_SOCKET.socket_hops(0, 3) == 1
        assert FOUR_SOCKET.socket_hops(1, 3) == 2

    def test_two_socket_stays_one_hop(self):
        """Pre-matrix behaviour is preserved: every remote pair on the
        paper's testbed is exactly one hop."""
        assert TWO_SOCKET.socket_hops(0, 1) == 1
        assert TWO_SOCKET.socket_hops(1, 0) == 1
        assert UNIFORM.socket_hops(0, 0) == 0

    def test_core_distance_reports_full_hop_count(self):
        # Cores 0 (socket 0) and 8 (socket 2) are two hops apart.
        def hops(a, b):
            return FOUR_SOCKET.socket_hops(
                FOUR_SOCKET.socket_of(a), FOUR_SOCKET.socket_of(b)
            )

        assert hops(0, 8) == 2
        assert hops(0, 4) == 1
        assert hops(0, 3) == 0

    def test_a_hop_matrix_is_not_a_field(self):
        """A topology is a ring of sockets; there is no other layout."""
        with pytest.raises(TypeError, match="socket_distances"):
            CoreTopology(
                name="star", sockets=3, cores_per_socket=2,
                remote_steal_penalty_us=1.0,
                socket_distances=((0, 1, 2), (1, 0, 1), (2, 1, 0)),
            )


class TestHierarchicalStealProperty:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_numa_steal_is_from_the_nearest_nonempty_socket(self, seed):
        """At victim-selection time no socket closer to the thief held
        any queued work."""
        scheduler, steals = four_socket_steals("numa", seed)
        assert steals, "workload produced no steals"
        sockets = [w.socket for w in scheduler._workers]
        for steal in steals:
            non_empty_hops = {
                FOUR_SOCKET.socket_hops(sockets[steal.thief], sockets[i])
                for i, qlen in enumerate(steal.queue_lens)
                if qlen > 0 and i != steal.thief
            }
            assert non_empty_hops, "steal with no visible victim work"
            assert steal.hops == min(non_empty_hops), (
                f"thief {steal.thief} (socket {sockets[steal.thief]}) "
                f"stole {steal.hops} hops away while a socket "
                f"{min(non_empty_hops)} hops away had work"
            )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", ("numa", "cooperative", "steal-half"))
    def test_steal_cost_decomposes_into_base_plus_hops(self, name, seed):
        """Each thief's steal cost is, term by term, STEAL_US + hops x
        per-hop penalty per steal, for any policy's steal pattern, and
        its stolen-task count is the sum of its steals' batch sizes."""
        scheduler, steals = four_socket_steals(name, seed)
        assert len(steals) == scheduler.total_steals > 0
        expected = (
            scheduler.total_steals * STEAL_US
            + sum(s.hops for s in steals) * FOUR_SOCKET.remote_steal_penalty_us
        )
        assert scheduler.total_steal_us == pytest.approx(expected)
        for worker in scheduler._workers:
            mine = [s for s in steals if s.thief == worker.index]
            assert len(mine) == worker.steals
            assert sum(s.tasks for s in mine) == worker.stolen_tasks
            charged = 0.0
            for steal in mine:
                assert steal.victim != worker.index
                charged += (
                    STEAL_US + steal.hops * FOUR_SOCKET.remote_steal_penalty_us
                )
            assert charged == worker.steal_us

    @pytest.mark.parametrize("name", ("numa", "cooperative", "steal-half"))
    def test_stolen_tasks_are_the_batch_sizes_summed(self, name):
        """Every task a steal moves is counted once, on its thief: with
        all the work piled on core 0, steal-half moves real batches."""
        policy, steals = watch_steals(name)
        engine = Engine()
        scheduler = Scheduler(engine, CORES, policy, FOUR_SOCKET)
        tasks = [
            ItemTask(f"t{i}", 20, 2.0, next(engine.task_ids)) for i in range(48)
        ]
        for task in tasks:
            task.home_hint = 0
        scheduler.start()
        for task in tasks:
            scheduler.notify_runnable(task)
        engine.run()
        assert all(t.remaining == 0 for t in tasks)
        assert len(steals) == scheduler.total_steals > 0
        if name == "steal-half":
            assert any(s.tasks > 1 for s in steals), "no batch steal"
        for worker in scheduler._workers:
            mine = [s for s in steals if s.thief == worker.index]
            assert sum(s.tasks for s in mine) == worker.stolen_tasks


class _FlatNumaPolicy(NumaPolicy):
    """PR 2's ``numa`` victim order: own socket first, then the longest
    queue *anywhere* — the local-then-anywhere baseline the hierarchical
    order replaces.  Kept out of the registry: it exists only as the
    regression yardstick."""

    name = "numa-flat-baseline"

    def select_victim(self, worker, workers):
        home = self._socket_of(worker)
        local = remote = None
        local_len = remote_len = 0
        for other in workers:
            if other is worker:
                continue
            qlen = len(other.queue)
            if qlen == 0:
                continue
            if self._socket_of(other) == home:
                if qlen > local_len:
                    local, local_len = other, qlen
            elif qlen > remote_len:
                remote, remote_len = other, qlen
        return local if local is not None else remote


def steal_gradient_steals(policy):
    """A deterministic steal gradient on the four-socket ring.

    Socket 0's cores carry tiny tasks (they drain first and turn
    thief); socket 1, one hop away, holds *short queues of heavy tasks*
    (genuine surplus); socket 2, two hops away, holds *long queues of
    tiny tasks* its own cores will finish anyway.  Queue length — the
    flat policy's only signal — points two hops out, so
    local-then-anywhere burns far steals on work that never needed to
    move, while the hierarchy feeds the thieves from the one-hop
    surplus.  Returns the steals the run made.
    """
    policy, steals = watch_steals(policy)
    engine = Engine()
    scheduler = Scheduler(engine, CORES, policy, FOUR_SOCKET)
    tasks = []
    for core in range(0, 4):  # socket 0: drains almost immediately
        tasks.append(ItemTask(f"s0c{core}", 2, 1.0, next(engine.task_ids)))
        tasks[-1].home_hint = core
    for core in range(4, 8):  # socket 1: short queues, heavy work
        for k in range(2):
            tasks.append(ItemTask(f"s1c{core}.{k}", 200, 4.0, next(engine.task_ids)))
            tasks[-1].home_hint = core
    for core in range(8, 12):  # socket 2: long queues of tiny tasks
        for k in range(10):
            tasks.append(ItemTask(f"s2c{core}.{k}", 2, 2.0, next(engine.task_ids)))
            tasks[-1].home_hint = core
    scheduler.start()
    for task in tasks:
        scheduler.notify_runnable(task)
    engine.run()
    assert all(t.remaining == 0 for t in tasks)
    return steals


class TestHierarchicalBeatsFlat:
    def test_cross_socket_steal_cost_strictly_lower(self):
        """Acceptance: on four-socket the hierarchical order pays
        strictly less cross-socket steal cost than PR 2's
        local-then-anywhere order on the identical workload."""
        hierarchical = steal_gradient_steals("numa")
        flat = steal_gradient_steals(_FlatNumaPolicy())
        assert any(s.hops > 1 for s in flat), (
            "workload never tempted the flat policy into a far steal; "
            "the comparison would be vacuous"
        )
        assert remote_cost(hierarchical) < remote_cost(flat)
        # The hierarchy also keeps every steal within one hop here: the
        # one-hop tier never runs dry, so two-hop steals never happen.
        assert max(s.hops for s in hierarchical) == 1

    def test_randomized_workloads_never_pay_more(self):
        """Across the seeded random workloads the hierarchy is never
        costlier than local-then-anywhere, and strictly cheaper in
        aggregate (most seeds only ever expose one non-empty remote
        tier, where the two orders coincide)."""
        totals = [0.0, 0.0]
        for seed in SEEDS:
            hierarchical = remote_cost(four_socket_steals("numa", seed)[1])
            flat = remote_cost(four_socket_steals(_FlatNumaPolicy(), seed)[1])
            assert hierarchical <= flat, f"seed {seed}"
            totals[0] += hierarchical
            totals[1] += flat
        assert totals[0] < totals[1]

    def test_numa_without_topology_still_steals_local_first(self):
        """Flat schedulers bind no topology: the hierarchical order
        degenerates to socket-0-everywhere, longest queue."""
        engine = Engine()
        policy, steals = watch_steals("numa")
        scheduler = Scheduler(engine, 4, policy)
        tasks = [ItemTask(f"t{i}", 20, 2.0, next(engine.task_ids)) for i in range(8)]
        for task in tasks:
            task.home_hint = 0
        scheduler.start()
        for task in tasks:
            scheduler.notify_runnable(task)
        engine.run()
        assert all(t.remaining == 0 for t in tasks)
        assert steals and all(s.hops == 0 for s in steals)
        assert scheduler.total_steal_us == pytest.approx(
            scheduler.total_steals * STEAL_US
        )


def test_numa_on_two_sockets_pays_less_steal_cost_than_cooperative():
    """On a two-socket topology the numa policy's on-socket preference
    pays less steal cost than topology-blind longest-queue stealing.

    Imbalanced piles on both sockets: a socket-1 thief has a local
    victim (core 8) and a longer remote one (core 0).  Longest-queue
    stealing reaches across the interconnect; numa stays on-socket and
    skips the penalty."""
    costs = {}
    for policy in ("cooperative", "numa"):
        engine = Engine()
        scheduler = Scheduler(engine, 16, policy, "two-socket")
        tasks = []
        for name, count, home in (("a", 40, 0), ("b", 20, 8)):
            for i in range(count):
                task = SyntheticTask(f"{name}{i}", 60, 4 * 1024, engine)
                task.home_hint = home
                tasks.append(task)
        scheduler.start()
        for task in tasks:
            scheduler.notify_runnable(task)
        engine.run()
        assert all(not t.has_work() for t in tasks)
        costs[policy] = (scheduler.total_steal_us, scheduler.total_steals)
    coop_us, coop_steals = costs["cooperative"]
    numa_us, numa_steals = costs["numa"]
    assert numa_steals > 0
    # On-socket preference cuts both the total steal bill and the
    # average price per steal.
    assert numa_us < coop_us
    assert numa_us / numa_steals < coop_us / coop_steals
