"""Scheduling policies: the *policy* half of the scheduler's
policy/mechanism split.

:mod:`repro.runtime.scheduler` is pure mechanism — worker loops, queues,
wake-ups, cost accounting.  Every scheduling *decision* is delegated to a
:class:`SchedulingPolicy` object through these hooks, each consulted
only where it can change what happens:

* ``budget(task)`` — before every ``step`` call, the timeslice handed
  to it: a float budget in virtual µs, ``0.0`` for exactly one item,
  ``None`` to run the task to completion;
* ``place(task, workers)`` — on every enqueue, which worker queue is the
  task's home (section 5: "a hash over this identifier determines which
  worker's task queue the task should be assigned to");
* ``select_victim(worker, workers)`` — when a worker's own queue is
  empty *and some other active queue holds a task*, which foreign queue
  it steals from (``None`` = go to sleep instead).  With every queue
  empty there is no victim to name, so the mechanism does not ask;
* ``next_local(worker)`` — when the worker's own queue is non-empty,
  which task it takes: the hook pops *exactly one* task from that queue
  (FIFO unless the policy reorders), which the mechanism's count of
  queued tasks relies on;
* ``steal_count(thief, victim)`` — once per steal, how many tasks it
  takes from the victim's queue (1 unless the policy batches, as the
  Cilk-style ``steal-half`` policy does);
* ``steps_per_decision(task)`` / ``on_task_done(task, worker, us)`` —
  once per decision, how many ``step`` calls it amortises, and a
  feedback hook fired after it (used by adaptive policies);
* ``configure(config)`` — adopt platform-level tunables (the
  :class:`~repro.runtime.costs.RuntimeConfig`), e.g. the ``deadline``
  policy reads per-connection SLOs from ``config.slo_us``.

``next_local``, ``steal_count``, ``steps_per_decision`` and
``on_task_done`` are called only when the policy overrides them (see
:func:`overridden_hook`): a subclass method or an instance attribute —
such as a wrapper a test installs on one instance — counts; the base
definitions' answers (the queue's head, 1, 1, nothing) are known
without asking.  ``budget`` and ``place`` are always called.

Two bindings complete the contract: the adopting scheduler sets
``_bound_engine`` (simulated clock) and ``_bound_topology`` (the
:class:`~repro.net.stackprofiles.CoreTopology`, ``None`` when flat) so
policies can read time and socket distances.  A policy that consumes
per-endpoint service classes (:mod:`repro.runtime.qos`) declares
``supports_service_classes = True``, which obliges it to ship
class-aware golden numbers (CI lockstep gate).

Policies are registered in a string-keyed registry so every upper layer
— :class:`~repro.runtime.platform.FlickPlatform`, a scenario, the
Figure-7 microbenchmark — can select any policy by name, or pass a
pre-built instance for custom parameters.

The three paper policies (``cooperative``, ``non_cooperative``,
``round_robin``) reproduce Figure 7 byte-for-byte; ``locality``,
``batch``, ``priority``, ``deadline``, ``numa``, ``adaptive-timeslice``
and ``steal-half`` are scenarios the paper could not test.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.errors import RuntimeFlickError
from repro.core.registry import Registry

#: The three policies evaluated in the paper (section 6.4, Figure 7).
PAPER_POLICIES = ("cooperative", "non_cooperative", "round_robin")


class SchedulingPolicy:
    """Base class: hash placement, longest-queue stealing, FIFO pop.

    The defaults reproduce the paper's mechanism exactly; subclasses
    override individual hooks.  ``workers`` arguments are sequences of
    scheduler ``_Worker`` objects (``index``, ``queue`` attributes).
    """

    #: Registry key; subclasses must override.
    name = "abstract"

    #: Whether the policy consumes per-endpoint service classes
    #: (:mod:`repro.runtime.qos`).  Declaring support obliges the policy
    #: to ship class-aware golden Figure-7 numbers (enforced by the
    #: golden/registry lockstep gate in CI).
    supports_service_classes = False

    #: Set by the scheduler that adopts this instance; two schedulers on
    #: the same engine sharing one instance is rejected (shared mutable
    #: policy state would silently cross-contaminate their decisions).
    _bound_engine = None

    #: The adopting scheduler's :class:`~repro.net.stackprofiles.\
    #: CoreTopology` (``None`` on flat schedulers).  Topology-aware
    #: policies read socket distances through it.
    _bound_topology = None

    def __init__(self, timeslice_us: float = 50.0):
        self.timeslice_us = timeslice_us

    # -- decision hooks ------------------------------------------------------

    def budget(self, task) -> Optional[float]:
        """Timeslice for one ``task.step`` call (µs, ``0.0``, or ``None``)."""
        return self.timeslice_us

    def steps_per_decision(self, task) -> int:
        """How many ``step`` calls one scheduling decision amortises."""
        return 1

    def steal_count(self, thief, victim) -> int:
        """How many tasks one steal takes from ``victim``'s queue (>= 1).

        The mechanism runs the first stolen task immediately and moves
        the rest onto the thief's own queue; the whole batch is charged
        as a single steal (Cilk-style amortisation).
        """
        return 1

    def configure(self, config) -> None:
        """Adopt platform tunables from a ``RuntimeConfig`` (duck-typed).

        Called by :class:`~repro.runtime.platform.FlickPlatform` after
        the scheduler adopts the policy; the default ignores it.
        """

    def place(self, task, workers: Sequence) -> object:
        """Choose the task's home worker: ``task.home_hint`` if set,
        else by the hash of its id (``task.placement_hash``)."""
        hint = task.home_hint
        if hint is not None:
            return workers[hint % len(workers)]
        return workers[task.placement_hash % len(workers)]

    def select_victim(self, worker, workers: Sequence) -> Optional[object]:
        """Pick the foreign queue to steal from (longest, first on ties).

        Contract: the mechanism steals from the *head* of the returned
        victim's queue (``steal_count`` tasks, head onward).  A policy
        that wants a specific task stolen first may reorder the victim's
        queue here before returning it (see ``DeadlinePolicy``).
        """
        victim = None
        victim_len = 0
        for other in workers:
            if other is worker:
                continue
            qlen = len(other.queue)
            if qlen > victim_len:
                victim = other
                victim_len = qlen
        return victim

    def next_local(self, worker) -> object:
        """Pop exactly one task from the worker's own (non-empty) queue."""
        return worker.queue.popleft()

    def on_task_done(self, task, worker, elapsed_us: float) -> None:
        """Feedback after one decision ran ``task`` for ``elapsed_us``."""

    def reset(self) -> None:
        """Drop any learned state; called when a scheduler adopts the
        policy, so a reused instance starts each run fresh.  (A policy
        instance therefore belongs to one live scheduler at a time.)"""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.name!r}>"


# -- registry ----------------------------------------------------------------

POLICIES = Registry(
    "scheduling policy",
    SchedulingPolicy,
    RuntimeFlickError,
    first=PAPER_POLICIES,
    title="Scheduling policies",
    decorator="register_policy",
    consumed_by="`RuntimeConfig(policy=...)`; `Scenario(policy=...)`; the Figure 7 rows",
)
register_policy = POLICIES.register
registered_policies = POLICIES.names
make_policy = POLICIES.make
resolve_policy = POLICIES.resolve


def overridden_hook(policy: SchedulingPolicy, name: str):
    """``policy``'s hook ``name``, or ``None`` where it is the base one.

    An instance attribute always counts as an override.
    """
    if name not in vars(policy) and getattr(type(policy), name) is getattr(
        SchedulingPolicy, name
    ):
        return None
    return getattr(policy, name)


# -- the three paper policies (Figure 7) -------------------------------------


@register_policy
class CooperativePolicy(SchedulingPolicy):
    """FLICK's policy: run until the timeslice budget is exhausted."""

    name = "cooperative"


@register_policy
class NonCooperativePolicy(SchedulingPolicy):
    """A scheduled task runs to completion (budget ``None``)."""

    name = "non_cooperative"

    def budget(self, task) -> Optional[float]:
        return None


@register_policy
class RoundRobinPolicy(SchedulingPolicy):
    """Exactly one data item per scheduling decision (budget ``0.0``)."""

    name = "round_robin"

    def budget(self, task) -> Optional[float]:
        return 0.0


# -- policies beyond the paper -----------------------------------------------


@register_policy
class LocalityPolicy(SchedulingPolicy):
    """Cooperative budget, but steal from the *nearest* queue.

    Victims are scanned by ring distance from the thief — a proxy for
    cache/NUMA distance between cores — instead of queue length, so
    stolen work stays close to its home core.
    """

    name = "locality"

    def select_victim(self, worker, workers: Sequence) -> Optional[object]:
        n = len(workers)
        base = worker.index
        for distance in range(1, n):
            candidate = workers[(base + distance) % n]
            if candidate.queue:
                return candidate
        return None


@register_policy
class BatchPolicy(SchedulingPolicy):
    """Amortise ``SCHEDULE_US`` by running ``k`` items per decision.

    Each ``step`` call processes one item (budget ``0.0``, round-robin
    style) but one scheduling decision performs up to ``k`` of them, so
    the per-decision overhead is paid once per batch.
    """

    name = "batch"

    def __init__(self, timeslice_us: float = 50.0, k: int = 8):
        super().__init__(timeslice_us)
        if k < 1:
            raise RuntimeFlickError(f"batch size must be >= 1, got {k}")
        self.k = k

    def budget(self, task) -> Optional[float]:
        return 0.0

    def steps_per_decision(self, task) -> int:
        return self.k


@register_policy
class PriorityPolicy(SchedulingPolicy):
    """Weighted local picking: observed-light tasks run before heavy ones.

    The policy keeps an exponentially-weighted mean of each task's cost
    per decision (fed by ``on_task_done``) and pops the cheapest known
    task from the local queue; unmeasured tasks count as cost ``0`` so
    newcomers are probed immediately.  Directly targets the Figure-7
    fairness question: light tasks are never starved behind heavy ones
    that share their queue.

    Service-class aware: a task's pick score is its observed cost
    *divided by its class weight* (ties broken toward the heavier
    class), so a weight-4 gold task is dequeued ahead of a weight-1
    bronze task of equal cost.  Unclassified tasks weigh 1, which keeps
    class-free schedules byte-identical to the pre-QoS policy.
    """

    name = "priority"
    supports_service_classes = True

    def __init__(self, timeslice_us: float = 50.0, smoothing: float = 0.5):
        super().__init__(timeslice_us)
        self.smoothing = smoothing
        self._mean_cost: Dict[int, float] = {}

    def reset(self) -> None:
        self._mean_cost.clear()

    def on_task_done(self, task, worker, elapsed_us: float) -> None:
        if not task.has_work():
            # Bound memory on long-lived platforms: drop the estimate
            # once a task has nothing left queued (a task that comes
            # back is simply probed as light again).
            self._mean_cost.pop(task.task_id, None)
            return
        prev = self._mean_cost.get(task.task_id)
        if prev is None:
            self._mean_cost[task.task_id] = elapsed_us
        else:
            a = self.smoothing
            self._mean_cost[task.task_id] = a * elapsed_us + (1.0 - a) * prev

    def next_local(self, worker) -> object:
        queue = worker.queue
        if len(queue) == 1:
            return queue.popleft()
        costs = self._mean_cost
        best_index = 0
        best_score = None
        for index, task in enumerate(queue):
            weight = _class_weight(task)
            # Lexicographic (cost/weight, -weight): among unmeasured
            # (cost-0) tasks only the weight discriminates, so heavier
            # classes are probed first too.
            score = (costs.get(task.task_id, 0.0) / weight, -weight)
            if best_score is None or score < best_score:
                best_index = index
                best_score = score
        return _pop_at(queue, best_index)


def _class_weight(task) -> float:
    """The task's service-class weight (1.0 when unclassified)."""
    service_class = getattr(task, "service_class", None)
    return service_class.weight if service_class is not None else 1.0


def _pop_at(queue, index: int) -> object:
    """Pop ``queue[index]`` from a deque, preserving the others' order."""
    if index == 0:
        return queue.popleft()
    queue.rotate(-index)
    task = queue.popleft()
    queue.rotate(index)
    return task


@register_policy
class DeadlinePolicy(SchedulingPolicy):
    """Earliest-deadline-first over per-connection SLO budgets.

    Every task gets an absolute deadline when it is first admitted:
    ``now + slo_us``, where the SLO comes from the task itself
    (``task.slo_us``, stamped per connection by the task graph from
    ``RuntimeConfig.slo_us``) or falls back to ``default_slo_us``.
    Workers pop the earliest deadline from their queue, idle workers
    steal from the queue holding the globally earliest deadline, and a
    task's step budget is its remaining slack clamped into
    ``[min_budget_us, timeslice_us]`` — the nearer a task is to missing
    its SLO, the shorter (hence more frequent) its slices.  The deadline
    clock restarts on the next admission after a task drains.

    Service-class aware: a classified endpoint's tasks carry their
    class's SLO (stamped by the task graph), so one platform runs
    per-class EDF — gold connections get 1 ms deadlines while bronze
    ones get 50 ms — with the platform-wide ``slo_us`` (then the
    policy default) as fallback for unclassified traffic.
    """

    name = "deadline"
    supports_service_classes = True

    def __init__(
        self,
        timeslice_us: float = 50.0,
        default_slo_us: float = 10_000.0,
        min_budget_us: float = 5.0,
    ):
        super().__init__(timeslice_us)
        if default_slo_us <= 0:
            raise RuntimeFlickError(
                f"default SLO must be positive, got {default_slo_us}"
            )
        if not 0 < min_budget_us <= timeslice_us:
            raise RuntimeFlickError(
                f"min budget must be in (0, {timeslice_us}], "
                f"got {min_budget_us}"
            )
        self.default_slo_us = default_slo_us
        self.min_budget_us = min_budget_us
        self._deadline: Dict[int, float] = {}

    def configure(self, config) -> None:
        slo = getattr(config, "slo_us", None)
        if slo is not None:
            self.default_slo_us = slo

    def reset(self) -> None:
        self._deadline.clear()

    def _now(self) -> float:
        engine = self._bound_engine
        return engine.now if engine is not None else 0.0

    def deadline_of(self, task) -> float:
        """The task's absolute deadline, started at first admission.

        The SLO comes from the task itself (``task.slo_us``, stamped
        from its endpoint's service class or the platform-wide value),
        then its bare service class, then the policy default.
        """
        deadline = self._deadline.get(task.task_id)
        if deadline is None:
            slo = getattr(task, "slo_us", None)
            if slo is None:
                service_class = getattr(task, "service_class", None)
                if service_class is not None:
                    slo = service_class.slo_us
            if slo is None:
                slo = self.default_slo_us
            deadline = self._now() + slo
            self._deadline[task.task_id] = deadline
        return deadline

    def place(self, task, workers: Sequence) -> object:
        self.deadline_of(task)  # the SLO clock starts at admission
        return super().place(task, workers)

    def budget(self, task) -> Optional[float]:
        slack = self.deadline_of(task) - self._now()
        return max(self.min_budget_us, min(self.timeslice_us, slack))

    def next_local(self, worker) -> object:
        queue = worker.queue
        if len(queue) == 1:
            return queue.popleft()
        best_index = 0
        best_deadline = None
        for index, task in enumerate(queue):
            deadline = self.deadline_of(task)
            if best_deadline is None or deadline < best_deadline:
                best_index = index
                best_deadline = deadline
        return _pop_at(queue, best_index)

    def select_victim(self, worker, workers: Sequence) -> Optional[object]:
        victim = None
        best_deadline = None
        best_index = 0
        for other in workers:
            if other is worker:
                continue
            for index, task in enumerate(other.queue):
                deadline = self.deadline_of(task)
                if best_deadline is None or deadline < best_deadline:
                    best_deadline = deadline
                    victim = other
                    best_index = index
        if victim is not None and best_index != 0:
            # Per the select_victim contract the mechanism steals from
            # the queue head; rotate the earliest-deadline task there so
            # the steal honours EDF instead of grabbing whatever the
            # victim admitted first.  (EDF keeps steal_count at 1, so
            # only the rotated head is taken.)
            victim.queue.rotate(-best_index)
        return victim

    def on_task_done(self, task, worker, elapsed_us: float) -> None:
        if not task.has_work():
            self._deadline.pop(task.task_id, None)


@register_policy
class NumaPolicy(SchedulingPolicy):
    """Placement and stealing aware of the socket topology.

    Pairs with :class:`~repro.net.stackprofiles.CoreTopology`: the
    scheduler labels each worker with its socket and charges
    cross-socket steals ``remote_steal_penalty_us`` extra *per
    interconnect hop*.  This policy keeps work close to avoid those
    penalties: a task is hashed to a *socket* (stable affinity) and
    placed on that socket's least-loaded core, and an idle worker steals
    *hierarchically* — the longest queue on its own socket first, then
    the nearest non-empty socket by hop distance (read through the
    scheduler's topology binding), widening one tier at a time, so a
    two-hop steal on a four-socket ring happens only when both the home
    socket and its one-hop neighbours are empty.  Without a topology
    every socket is one hop from every other and the policy degenerates
    to the flat local-then-anywhere order.
    """

    name = "numa"

    def __init__(self, timeslice_us: float = 50.0):
        super().__init__(timeslice_us)
        self._socket_members: Optional[list] = None
        self._grouped_workers = None

    def reset(self) -> None:
        self._socket_members = None
        self._grouped_workers = None

    @staticmethod
    def _socket_of(worker) -> int:
        return getattr(worker, "socket", 0)

    def _groups(self, workers: Sequence) -> list:
        # place() runs on every enqueue; the socket grouping is fixed
        # for a scheduler's lifetime, so build it once per worker set.
        if self._socket_members is None or self._grouped_workers is not workers:
            by_socket: Dict[int, list] = {}
            for candidate in workers:
                by_socket.setdefault(self._socket_of(candidate), []).append(
                    candidate
                )
            self._socket_members = [
                by_socket[socket] for socket in sorted(by_socket)
            ]
            self._grouped_workers = workers
        return self._socket_members

    def place(self, task, workers: Sequence) -> object:
        hint = task.home_hint
        if hint is not None:
            return workers[hint % len(workers)]
        groups = self._groups(workers)
        members = groups[task.placement_hash % len(groups)]
        return min(members, key=lambda w: (len(w.queue), w.index))

    def select_victim(self, worker, workers: Sequence) -> Optional[object]:
        topology = self._bound_topology
        home = self._socket_of(worker)
        victim = None
        victim_len = 0
        victim_hops = None
        for other in workers:
            if other is worker:
                continue
            qlen = len(other.queue)
            if qlen == 0:
                continue
            socket = self._socket_of(other)
            if topology is not None:
                hops = topology.socket_hops(home, socket)
            else:
                hops = 0 if socket == home else 1
            if (
                victim_hops is None
                or hops < victim_hops
                or (hops == victim_hops and qlen > victim_len)
            ):
                victim, victim_len, victim_hops = other, qlen, hops
        return victim


@register_policy
class AdaptiveTimeslicePolicy(SchedulingPolicy):
    """Shrink/grow the cooperative budget from observed queue depth.

    Section 5 gives 10-100 µs as the useful timeslice band; this policy
    sweeps it live.  An EWMA of the post-decision queue depth (fed by
    ``on_task_done``) measures contention: empty queues mean fairness is
    cheap, so the budget grows toward ``max_us`` to amortise scheduling
    overhead; deep queues mean tasks are waiting, so it shrinks toward
    ``min_us`` to interleave them.  Budgets never leave the band.

    The band defaults scale with the configured quantum — ``min_us =
    timeslice_us / 5`` and ``max_us = timeslice_us * 2``, i.e. the
    paper's 10-100 µs at the default 50 µs timeslice — so the
    ``timeslice_us`` the policy is built with moves the whole band; pass
    explicit bounds to pin it instead.
    """

    name = "adaptive-timeslice"

    def __init__(
        self,
        timeslice_us: float = 50.0,
        min_us: Optional[float] = None,
        max_us: Optional[float] = None,
        depth_saturation: float = 8.0,
        smoothing: float = 0.2,
    ):
        super().__init__(timeslice_us)
        if min_us is None:
            min_us = timeslice_us / 5.0
        if max_us is None:
            max_us = timeslice_us * 2.0
        if not 0 < min_us < max_us:
            raise RuntimeFlickError(
                f"need 0 < min_us < max_us, got [{min_us}, {max_us}]"
            )
        if depth_saturation <= 0:
            raise RuntimeFlickError(
                f"depth saturation must be positive, got {depth_saturation}"
            )
        if not 0 < smoothing <= 1:
            raise RuntimeFlickError(
                f"smoothing must be in (0, 1], got {smoothing}"
            )
        self.min_us = min_us
        self.max_us = max_us
        self.depth_saturation = depth_saturation
        self.smoothing = smoothing
        self._depth_ewma = 0.0

    def reset(self) -> None:
        self._depth_ewma = 0.0

    def budget(self, task) -> Optional[float]:
        pressure = min(1.0, self._depth_ewma / self.depth_saturation)
        return self.max_us - (self.max_us - self.min_us) * pressure

    def on_task_done(self, task, worker, elapsed_us: float) -> None:
        a = self.smoothing
        self._depth_ewma = a * len(worker.queue) + (1.0 - a) * self._depth_ewma


@register_policy
class StealHalfPolicy(SchedulingPolicy):
    """Cilk-style batched stealing: take half the victim's queue at once.

    A thief that went idle is likely to stay idle relative to a loaded
    victim, so single-task steals just ping-pong it back to the victim's
    queue.  Taking ``len(queue) // 2`` tasks in one steal pays
    ``STEAL_US`` (and any cross-socket penalty) once per batch and
    halves the load imbalance in a single operation.
    """

    name = "steal-half"

    def steal_count(self, thief, victim) -> int:
        return max(1, len(victim.queue) // 2)
