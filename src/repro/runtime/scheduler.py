"""Scheduling *mechanism* over simulated worker cores (section 5).

This module is the mechanism half of a policy/mechanism split: it owns
the workers, their FIFO task queues, sleep/wake bookkeeping and CPU cost
accounting, and delegates every scheduling *decision* — budget, home
placement, victim selection, local pick order, batching — to a
:class:`~repro.runtime.policy.SchedulingPolicy` object, which also owns
the cooperative quantum, and how many workers are active to an
:class:`~repro.runtime.allocator.AllocationPolicy`.  Policies are
selected by registry name (or passed as instances); the three paper
policies reproduce Figure 7 exactly, and new policies plug in without
touching this file.  There is one path through the mechanism for every
allocator: the default ``static`` one ticks like the others and never
asks for a change.

Mechanism invariants, independent of policy:

* Workers are engine callbacks pinned to the middlebox's cores: a wake
  posts a worker's loop at the current instant, a timeslice schedules
  it back for the slice's end, and ``sleeping`` is the whole sleep
  state.  Each owns one task queue; a task is always enqueued on its
  home queue (cache affinity), which the policy chooses — by default a
  hash of the task id, as in the paper.
* An idle worker asks the policy for a steal victim — only while some
  active queue holds a task, which a count of queued tasks tells in
  O(1) — then sleeps until new work arrives; every steal is charged
  ``STEAL_US`` (plus the topology's per-hop penalty times the socket
  distance between thief and victim) and every scheduling decision
  ``SCHEDULE_US``; the thief's ``steals``, ``stolen_tasks`` and
  ``steal_us`` counters sum them.  A policy may batch a steal
  (``steal_count``): the thief runs the first stolen task and moves the
  rest to its own queue, paying the steal cost once for the whole
  batch.
* A scheduled task runs until its ``step(budget)`` contract returns:
  ``budget`` is a float timeslice in virtual µs, ``0.0`` for one item,
  or ``None`` for run-to-completion — whatever the policy dictates.
* Timing fidelity: a task's outputs are *deferred* — ``step`` returns
  both the virtual time consumed and a list of emission thunks, which
  the worker executes only after the virtual time has elapsed, so
  downstream tasks can never observe data before the producing
  timeslice finished.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.core.errors import RuntimeFlickError
from repro.core.ids import stable_hash
from repro.runtime.allocator import AllocView, resolve_allocator
from repro.runtime.costs import SCHEDULE_US, STEAL_US
from repro.runtime.policy import overridden_hook, resolve_policy
from repro.sim.engine import Engine
from repro.sim.stats import SloScoreboard

# Task scheduling states.
IDLE = 0
QUEUED = 1
RUNNING = 2


@dataclass(frozen=True)
class AllocRecord:
    """One applied core-allocation change, as the mechanism performed it.

    ``active_before``/``active_after`` are the active worker index sets
    around the change, ``parked``/``unparked`` the indices that moved
    between them, ``moved_tasks`` how many queued tasks the mechanism
    re-homed off parked workers, and ``queue_depths`` every worker's
    queue length at the moment the policy decided (so tests can
    reconstruct what the policy saw and replay the log into the final
    active set).
    """

    at_us: float
    active_before: Tuple[int, ...]
    active_after: Tuple[int, ...]
    parked: Tuple[int, ...]
    unparked: Tuple[int, ...]
    moved_tasks: int
    queue_depths: Tuple[int, ...]


class _Worker:
    __slots__ = (
        "index",
        "socket",
        "queue",
        "sleeping",
        "active",
        "busy_us",
        "steals",
        "stolen_tasks",
        "steal_us",
    )

    def __init__(self, index: int, socket: int = 0):
        self.index = index
        self.socket = socket
        self.queue: Deque = deque()
        self.sleeping = False
        self.active = True
        self.busy_us = 0.0
        self.steals = 0
        self.stolen_tasks = 0
        self.steal_us = 0.0


class Scheduler:
    """Scheduling mechanism running task objects on N simulated cores.

    ``policy`` may be a registered policy name (see
    :func:`repro.runtime.policy.registered_policies`) or a
    :class:`~repro.runtime.policy.SchedulingPolicy` instance.  The
    policy owns the timeslice: a name gets its class's default quantum,
    and an instance keeps the one it was built with.

    ``topology`` (a :class:`~repro.net.stackprofiles.CoreTopology`, a
    registered topology name, or ``None`` for the flat default) labels
    each worker with its socket and prices cross-socket steals; the
    ``numa`` policy consumes the labels to keep work on-socket.

    ``allocator`` (a registered allocator name — see
    :func:`repro.runtime.allocator.registered_allocators` — or an
    :class:`~repro.runtime.allocator.AllocationPolicy` instance) elects
    how many of the ``cores`` workers are *active*.  The mechanism here
    evaluates the policy on deterministic tick boundaries, parks the
    highest-index workers first and unparks the lowest-index parked
    workers first (so the active set is always the worker prefix),
    drains a parked worker's queue back onto active workers, and logs
    every applied change as an :class:`AllocRecord` in
    :attr:`alloc_log`.  The default ``static`` allocator is an ordinary
    policy: its ticks run, always ask for every core, and so never
    change (or log) anything.
    """

    def __init__(
        self,
        engine: Engine,
        cores: int,
        policy="cooperative",
        topology=None,
        allocator="static",
    ):
        if cores < 1:
            raise RuntimeFlickError("scheduler needs at least one core")
        if isinstance(topology, str):
            # Imported here, not at module load: net is a sibling layer
            # and only this optional feature reaches into it.
            from repro.net.stackprofiles import core_topology

            try:
                topology = core_topology(topology)
            except KeyError as exc:
                raise RuntimeFlickError(str(exc.args[0])) from None
        self.engine = engine
        self.cores = cores
        self.topology = topology
        self.policy = resolve_policy(policy)
        bound = self.policy._bound_engine
        if bound is engine or (bound is not None and bound.pending() > 0):
            # Two live schedulers must not share one policy's mutable
            # state — neither in the same simulation nor across engines
            # that still have events in flight.  (Sequential reuse —
            # the previous engine fully ran — is fine and resets below.)
            raise RuntimeFlickError(
                f"policy instance {self.policy!r} is already used by "
                "another live scheduler; pass a fresh instance or a "
                "policy name"
            )
        self.policy._bound_engine = engine
        # Topology-aware policies (numa's hierarchical stealing) read
        # socket distances through this binding; flat schedulers bind
        # None and the policies degenerate to 0/1 socket distances.
        self.policy._bound_topology = topology
        self.policy.reset()  # a reused instance must not carry over state
        self.policy_name = self.policy.name
        # Bound policy hooks, cached once: these run on every scheduling
        # decision and every enqueue.  A hook the policy leaves at its
        # base definition is cached as None and never called: the
        # mechanism knows its answer (the queue's head, 1 task, 1 step,
        # nothing).
        self._place = self.policy.place
        self._budget = self.policy.budget
        self._next_local = overridden_hook(self.policy, "next_local")
        self._select_victim = self.policy.select_victim
        self._steal_count = overridden_hook(self.policy, "steal_count")
        self._steps_of = overridden_hook(self.policy, "steps_per_decision")
        self._on_task_done = overridden_hook(self.policy, "on_task_done")
        self._workers = [
            _Worker(i, topology.socket_of(i) if topology else 0)
            for i in range(cores)
        ]
        self.allocator = resolve_allocator(allocator)
        self._active = list(self._workers)
        self._next_alloc_at = self.allocator.tick_us
        self._last_alloc_change_at = -math.inf
        self._started = False
        self._queued = 0  # tasks waiting in worker queues
        self.tasks_executed = 0
        #: One :class:`AllocRecord` per applied allocation change.
        self.alloc_log: list = []
        #: Per-service-class completion/latency/SLO-miss accounting.
        self.scoreboard = SloScoreboard()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for worker in self._workers:
            self._rouse(worker)

    @property
    def active_workers(self) -> int:
        """How many workers are currently unparked."""
        return len(self._active)

    def active_worker_indices(self) -> Tuple[int, ...]:
        """Indices of the currently active workers, ascending."""
        return tuple(w.index for w in self._active)

    def queue_depths(self) -> Tuple[int, ...]:
        """Per-worker queue lengths, index-aligned with the workers.

        Parked workers read 0 (their queues drain at park time).  This
        is the same snapshot the allocation tick hands to
        :class:`~repro.runtime.allocator.AllocView`.
        """
        return tuple(len(w.queue) for w in self._workers)

    @property
    def total_busy_us(self) -> float:
        return sum(w.busy_us for w in self._workers)

    @property
    def total_steals(self) -> int:
        """Steal operations across all workers (a batch counts once)."""
        return sum(w.steals for w in self._workers)

    @property
    def total_stolen_tasks(self) -> int:
        """Tasks moved between queues by steals (batches count fully)."""
        return sum(w.stolen_tasks for w in self._workers)

    @property
    def total_steal_us(self) -> float:
        """Total steal cost charged, including cross-socket penalties."""
        return sum(w.steal_us for w in self._workers)

    def utilisation(self, duration_us: float) -> float:
        if duration_us <= 0:
            return 0.0
        return self.total_busy_us / (duration_us * self.cores)

    # -- task admission -----------------------------------------------------------

    def notify_runnable(self, task) -> None:
        """Called when a task gains input; enqueues it exactly once."""
        if self.engine.now >= self._next_alloc_at:
            self._allocation_tick()
        if task.sched_state == QUEUED:
            return
        if task.sched_state == RUNNING:
            task.pending_wakeup = True
            return
        if task.admitted_at is None:
            # The SLO clock starts here and runs until the task drains
            # (one scoreboard "busy period"), mirroring the deadline
            # policy's admission-to-drain EDF clock.
            task.admitted_at = self.engine.now
        task.sched_state = QUEUED
        worker = self._place(task, self._active)
        worker.queue.append(task)
        self._queued += 1
        self._wake(worker)

    def _wake(self, preferred: _Worker) -> None:
        if preferred.sleeping:
            self._rouse(preferred)
            return
        # Home worker is busy: rouse one sleeping worker so it can
        # steal.  Parked workers stay asleep — only an allocation
        # change may resume them.
        for worker in self._active:
            if worker.sleeping:
                self._rouse(worker)
                return

    def _rouse(self, worker: _Worker) -> None:
        """Post ``worker``'s loop at the current instant."""
        worker.sleeping = False
        self.engine.schedule(0.0, self._run, worker)

    # -- elastic core allocation ----------------------------------------------

    def _allocation_tick(self) -> None:
        """Evaluate the allocation policy at a due tick boundary.

        Runs lazily from scheduler activity (admission and the worker
        loop) at the first event at-or-after each ``tick_us`` boundary —
        a perpetual ticker process would keep the event engine alive
        forever, so the mechanism never self-schedules.
        """
        now = self.engine.now
        tick = self.allocator.tick_us
        # Catch up past idle gaps: the next boundary is strictly ahead.
        self._next_alloc_at = (math.floor(now / tick) + 1.0) * tick
        if now - self._last_alloc_change_at < self.allocator.cooldown_us:
            return
        queue_depths = self.queue_depths()
        view = AllocView(
            active=len(self._active),
            cores=self.cores,
            queue_depths=queue_depths,
        )
        target = max(1, min(self.cores, int(self.allocator.target_workers(view))))
        current = len(self._active)
        if target == current:
            return
        before = self.active_worker_indices()
        moved = 0
        if target < current:
            # Park highest-index actives first; the active set stays the
            # worker prefix, so grow/shrink are exact inverses.
            for worker in self._workers[target:current]:
                worker.active = False
                moved += self._drain_parked(worker, target)
        else:
            for worker in self._workers[current:target]:
                worker.active = True
        # A fresh list object exactly when membership changes: policies
        # that cache per-worker-set state by identity (numa's socket
        # groups) rebuild once per change instead of every placement.
        self._active = self._workers[:target]
        if target > current and self._started:
            for worker in self._workers[current:target]:
                if worker.sleeping:
                    self._rouse(worker)
        self._last_alloc_change_at = now
        self.alloc_log.append(
            AllocRecord(
                at_us=now,
                active_before=before,
                active_after=self.active_worker_indices(),
                parked=tuple(w.index for w in self._workers[target:current]),
                unparked=tuple(w.index for w in self._workers[current:target]),
                moved_tasks=moved,
                queue_depths=queue_depths,
            )
        )

    def _drain_parked(self, worker: _Worker, target: int) -> int:
        """Re-home a parked worker's queue onto the surviving actives."""
        survivors = self._workers[:target]
        moved = 0
        while worker.queue:
            task = worker.queue.popleft()
            new_home = self._place(task, survivors)
            new_home.queue.append(task)
            moved += 1
            if new_home.sleeping:
                self._rouse(new_home)
        return moved

    # -- worker loop -----------------------------------------------------------------

    def _run(self, worker: _Worker, task=None, emissions=()) -> None:
        """One turn of ``worker``'s loop, as an engine callback.

        ``task`` is the timeslice that just ended, if any: its emissions
        fire now that its virtual time has elapsed.  The worker then
        starts its next timeslice, whose end is scheduled back into this
        method (a slice costs at least ``SCHEDULE_US``), or finds nothing
        to run and sleeps until :meth:`_rouse`.
        """
        if task is not None:
            for emit in emissions:
                emit()
            task.sched_state = IDLE
            if task.has_work() or task.pending_wakeup:
                task.pending_wakeup = False
                self.notify_runnable(task)
            elif task.admitted_at is not None:
                # The task drained: close its busy period.
                admitted, task.admitted_at = task.admitted_at, None
                service_class = task.service_class
                self.scoreboard.record(
                    task,
                    "default" if service_class is None else service_class.name,
                    admitted,
                    self.engine.now,
                    getattr(task, "slo_us", None),
                )
        if self.engine.now >= self._next_alloc_at:
            self._allocation_tick()
        if not worker.active:
            # Parked: queue already drained, nothing new can be placed
            # here, and _wake skips parked workers — only an unpark
            # rouses it.
            worker.sleeping = True
            return
        queue = worker.queue
        if queue:
            self._queued -= 1
            pick = self._next_local
            task = queue.popleft() if pick is None else pick(worker)
            steal_us = 0.0
        else:
            task, steal_us = self._steal(worker)
            if task is None:
                worker.sleeping = True
                return
        task.sched_state = RUNNING
        budget_of = self._budget
        elapsed, emissions = task.step(budget_of(task))
        if self._steps_of is not None:
            extra_steps = self._steps_of(task) - 1
            while extra_steps > 0 and task.has_work():
                extra_steps -= 1
                more_us, more_emissions = task.step(budget_of(task))
                elapsed += more_us
                emissions += more_emissions
        cost = elapsed + SCHEDULE_US + steal_us
        worker.busy_us += cost
        self.tasks_executed += 1
        if self._on_task_done is not None:
            self._on_task_done(task, worker, elapsed)
        self.engine.schedule(cost, self._run, worker, task, emissions)

    def _steal(self, worker: _Worker):
        """A task for ``worker``, whose own queue is empty, taken from
        another queue, plus the steal cost it incurred (µs)."""
        if not self._queued:
            return None, 0.0  # every queue is empty: nothing to steal
        victim = self._select_victim(worker, self._active)
        if victim is None or not victim.queue:
            return None, 0.0
        steal_count = self._steal_count
        count = 1 if steal_count is None else max(
            1, min(int(steal_count(worker, victim)), len(victim.queue))
        )
        task = victim.queue.popleft()
        self._queued -= 1
        # Batch steal: the rest of the batch migrates to the thief's
        # queue (still QUEUED — they only changed queues) and the steal
        # cost is paid once for all of them.
        for _ in range(count - 1):
            worker.queue.append(victim.queue.popleft())
        cost = STEAL_US
        topology = self.topology
        if topology is not None and worker.socket != victim.socket:
            cost += (
                topology.socket_hops(worker.socket, victim.socket)
                * topology.remote_steal_penalty_us
            )
        worker.steals += 1
        worker.stolen_tasks += count
        worker.steal_us += cost
        return task, cost


class TaskBase:
    """Minimal scheduling contract every task implements.

    Subclasses provide ``has_work`` and ``step(budget_us)``; ``step``
    returns ``(virtual_us_consumed, emission_thunks)`` and must respect
    the budget: ``None`` runs to completion; otherwise the step takes
    no further item once its elapsed virtual time reaches ``budget_us``.
    Elapsed time never falls, so a budget of ``0`` takes one item.

    ``home_hint``, when set, pins the task to a worker index (modulo the
    core count) instead of hash placement — used by dispatch tasks and
    microbenchmarks that need controlled placement.
    """

    #: Optional worker-index pin honoured by the default placement policy.
    home_hint: Optional[int] = None

    #: Service class (a :class:`~repro.runtime.qos.ServiceClass`) the
    #: task graph stamped on this task; ``None`` = unclassified, pooled
    #: under the scoreboard's "default" class.
    service_class = None

    #: When the current busy period was admitted (scheduler-maintained;
    #: ``None`` while drained).  Feeds the SLO scoreboard.
    admitted_at: Optional[float] = None

    def __init__(self, name: str, task_id: int):
        self.name = name
        # Ids drive hash placement and key adaptive policy state, so they
        # must be unique among a scheduler's tasks: the run's engine
        # hands them out (``next(engine.task_ids)``).
        self.task_id = task_id
        #: ``stable_hash(task_id)``, what hash placement reads: the id
        #: never changes, so a task is hashed once, here.
        self.placement_hash = stable_hash(task_id)
        self.sched_state = IDLE
        self.pending_wakeup = False
        self.busy_us = 0.0

    def has_work(self) -> bool:
        raise NotImplementedError

    def step(self, budget_us: Optional[float]):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.name} #{self.task_id}>"
