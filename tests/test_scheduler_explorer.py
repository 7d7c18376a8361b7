"""Exhaustive small-scope exploration of the scheduling mechanism.

The real :class:`~repro.sim.engine.Engine`, :class:`Scheduler` and
:class:`~repro.runtime.channel.TaskChannel` run small task graphs — a
four-task pipeline and a three-task fan-in, over channels of capacity 1
and 2, on 2 and 3 workers — while external stimuli are injected at
*every* distinct timing over a small set of virtual timestamps: every
order of the stimuli, every way of spreading that order over the
timestamps, so same-time ties in every order.  The stimuli are what a
platform's sockets and clock do to the scheduler:

* ``push`` — a source receives one item (a socket's data callback);
* ``close`` — the sources reach end of stream (a socket's close);
* ``wake`` — a spurious ``notify_runnable`` of the sink;
* ``tick`` — scheduler activity at an allocation tick boundary (only
  with the ``queue-depth`` allocator, tuned here to park and unpark on
  every tick; ``static`` never ticks).

That space is crossed with every registered scheduling policy and the
``static`` and ``queue-depth`` allocators.  Properties, after every
engine event:

* the scheduler's queued-task count equals the scan definition,
  ``sum(len(w.queue) for w in workers)``;
* a parked worker's queue is empty;
* an active worker goes to sleep only when every active queue is empty
  (work conservation: a sleeper leaves nothing it could have stolen);
* no task is stepped by two workers at once;
* the engine quiesces (a bounded number of events per run);

and at quiescence:

* every pushed item is consumed exactly once (in order, through the
  pipeline);
* no lost wakeup: no task ``has_work()``, every task is idle and every
  worker queue is empty;
* scoreboard busy periods balance: one recorded period per admission
  (seen through the scoreboard's ``record``, wrapped on the instance),
  in order, none open.

Each test prints how many schedules and post-event states it checked
(``pytest -s``) and asserts both counts (``SCHEDULES``, ``STATES``).
Seeded mutations of ``runtime/scheduler.py`` and the property that
catches each are recorded in ``CHANGES.md``.
"""

import itertools
from collections import deque
from functools import partial

import pytest

from repro.runtime.allocator import make_allocator
from repro.runtime.channel import EOS, TaskChannel
from repro.runtime.policy import make_policy, registered_policies
from repro.runtime.scheduler import IDLE, Scheduler, TaskBase
from repro.sim.engine import Engine
from tests.explore import timings

#: Stimulus timestamps (virtual µs).  One item costs ITEM_US, so a
#: stimulus at 3.0 lands inside the second timeslice of the run.
TIMES = (0.0, 3.0)
ITEM_US = 2.0
TIMESLICE_US = 5.0  # the smallest the deadline policy accepts
EVENT_LIMIT = 2_000
WORKER_COUNTS = (2, 3)
CAPACITIES = (1, 2)
ALLOCATORS = ("static", "queue-depth")


def _allocator(name):
    if name == "static":
        return name
    # Ticks every µs with no cooldown, and shrinks on an empty backlog:
    # the active set moves at almost every stimulus.
    return make_allocator(
        name,
        tick_us=1.0,
        cooldown_us=0.0,
        high_per_worker=1.0,
        low_per_worker=0.5,
    )


class _Task(TaskBase):
    """Moves items from its inputs to ``out``, ``ITEM_US`` each.

    A source's input is ``backlog`` (filled by ``push`` stimuli) and
    ``eof`` (set by ``close``); other tasks read their ``inputs``
    channels.  A task without ``out`` is the sink and logs what it
    consumed.  Items leave through deferred emissions, like every
    product task, so the room left in ``out`` discounts pushes still in
    flight (a batching policy steps a task several times per decision);
    a task that frees space in an input notifies that input's producer
    (the credit a bounded channel needs).
    """

    def __init__(self, name, scheduler):
        super().__init__(name, next(scheduler.engine.task_ids))
        self._scheduler = scheduler
        self.inputs = []
        self.producers = []
        self.out = None
        self.wake = None  # the consumer's notify, set with ``out``
        self.backlog = deque()
        self.eof = False
        self.closed = False
        self.consumed = []
        self.in_flight = 0
        self._stepping = False

    def _has_input(self):
        if self.backlog or (self.eof and not self.closed):
            return True
        return any(not chan.empty() for chan in self.inputs)

    def _room(self):
        out = self.out
        if out is None:
            return 1
        return out.capacity - len(out) - self.in_flight

    def has_work(self):
        return self._room() > 0 and self._has_input()

    def step(self, budget_us):
        assert not self._stepping, f"{self.name} stepped concurrently"
        self._stepping = True
        out = self.out
        elapsed = 0.0
        emissions = []
        freed = set()
        while self.has_work():
            elapsed += ITEM_US
            if self.backlog:
                item = self.backlog.popleft()
            elif self.eof and not self.closed:
                item = EOS
                self.closed = True
            else:
                index = next(
                    i for i, chan in enumerate(self.inputs) if not chan.empty()
                )
                item = self.inputs[index].pop()
                freed.add(index)
            if item is EOS:
                if out is not None and all(
                    chan.exhausted() for chan in self.inputs
                ):
                    emissions.append(self._close)
            elif out is None:
                emissions.append(partial(self.consumed.append, item))
            else:
                self.in_flight += 1
                emissions.append(partial(self._push, item))
            if budget_us == 0.0 or (
                budget_us is not None and elapsed >= budget_us
            ):
                break
        for index in sorted(freed):
            emissions.append(partial(self._credit, self.producers[index]))
        self.busy_us += elapsed
        self._stepping = False
        return elapsed, emissions

    def _push(self, item):
        self.in_flight -= 1
        self.out.push(item)
        self.wake()

    def _close(self):
        if self.out.close():
            self.wake()

    def _credit(self, producer):
        if producer.has_work():
            self._scheduler.notify_runnable(producer)


def _connect(producer, consumer, capacity, scheduler):
    chan = TaskChannel(f"{producer.name}->{consumer.name}", capacity)
    producer.wake = partial(scheduler.notify_runnable, consumer)
    producer.out = chan
    consumer.inputs.append(chan)
    consumer.producers.append(producer)
    return chan


def _pipeline(scheduler, capacity):
    tasks = [_Task(name, scheduler) for name in ("src", "a", "b", "sink")]
    for producer, consumer in zip(tasks, tasks[1:]):
        _connect(producer, consumer, capacity, scheduler)
    return tasks, tasks[:1]


def _fan_in(scheduler, capacity):
    tasks = [_Task(name, scheduler) for name in ("src0", "src1", "sink")]
    for producer in tasks[:2]:
        _connect(producer, tasks[2], capacity, scheduler)
    return tasks, tasks[:2]


#: shape -> (builder, stimuli, ordering constraints as index pairs).
#: Two pushes into one source are ordered (they differ only in which
#: item id they carry), and no push follows its source's close.
SHAPES = {
    "pipeline": (
        _pipeline,
        (("push", 0), ("push", 0), ("close",), ("wake",), ("tick",)),
        ((0, 1), (1, 2)),
    ),
    "fan-in": (
        _fan_in,
        (("push", 0), ("push", 1), ("close",), ("wake",), ("tick",)),
        ((0, 2), (1, 2)),
    ),
}


class _CheckedEngine(Engine):
    """The product engine, running ``check`` after every event.

    Every entry is filed through ``schedule`` or ``at``;
    :data:`STATES` pins how many events the runs check, so an entry
    point that bypasses these wrappers fails the test.
    """

    def __init__(self, check):
        super().__init__()
        self.check = check
        self.events = 0

    def schedule(self, delay, callback, *args):
        super().schedule(delay, self._checked, callback, args)

    def at(self, when, callback, *args):
        super().at(when, self._checked, callback, args)

    def _checked(self, callback, args):
        callback(*args)
        self.events += 1
        assert self.events <= EVENT_LIMIT, "the engine does not quiesce"
        self.check()


class _Run:
    """One configuration under one timing, checked as it runs."""

    def __init__(self, policy, allocator, workers, shape, capacity):
        self.engine = _CheckedEngine(self.check)
        self.scheduler = Scheduler(
            self.engine,
            workers,
            make_policy(policy, timeslice_us=TIMESLICE_US),
            allocator=_allocator(allocator),
        )
        build = SHAPES[shape][0]
        self.tasks, self.sources = build(self.scheduler, capacity)
        self.pushed = []
        self.was_sleeping = [False] * workers
        self.admitted = {task: None for task in self.tasks}
        self.admissions = {task: 0 for task in self.tasks}
        self.periods = {task: [] for task in self.tasks}
        self.pending_seen = 0
        scoreboard = self.scheduler.scoreboard
        record = scoreboard.record

        def recording(task, service_class, admitted_us, completed_us, slo_us):
            self.periods[task].append((admitted_us, completed_us))
            record(task, service_class, admitted_us, completed_us, slo_us)

        scoreboard.record = recording

    def fire(self, stimulus):
        scheduler = self.scheduler
        kind = stimulus[0]
        if kind == "push":
            source = self.sources[stimulus[1]]
            item = len(self.pushed)
            self.pushed.append(item)
            source.backlog.append(item)
            scheduler.notify_runnable(source)
        elif kind == "close":
            for source in self.sources:
                source.eof = True
                scheduler.notify_runnable(source)
        elif kind == "wake":
            scheduler.notify_runnable(self.tasks[-1])
        elif self.engine.now >= scheduler._next_alloc_at:
            scheduler._allocation_tick()

    def check(self):
        scheduler = self.scheduler
        workers = scheduler._workers
        assert scheduler._queued == sum(
            len(w.queue) for w in workers
        ), "the queued-task count left the scan definition"
        for worker in workers:
            if not worker.active:
                assert not worker.queue, "a parked worker holds tasks"
            elif worker.sleeping and not self.was_sleeping[worker.index]:
                assert not any(w.queue for w in scheduler._active), (
                    f"worker {worker.index} slept beside stealable work"
                )
            self.was_sleeping[worker.index] = worker.sleeping
        for task in self.tasks:
            admitted = task.admitted_at
            if admitted is not None and admitted != self.admitted[task]:
                self.admissions[task] += 1
            self.admitted[task] = admitted
            self.pending_seen += task.pending_wakeup

    def run(self, timing):
        self.scheduler.start()
        for at, stimulus in timing:
            self.engine.at(at, self.fire, stimulus)
        self.engine.run()
        self.check_quiescent()
        return self.engine.events

    def check_quiescent(self):
        scheduler = self.scheduler
        sink = self.tasks[-1]
        if len(self.sources) == 1:
            assert sink.consumed == self.pushed, "pipeline lost or reordered"
        else:
            assert sorted(sink.consumed) == self.pushed, "fan-in lost items"
        assert all(chan.exhausted() for chan in sink.inputs), "EOS lost"
        for task in self.tasks:
            assert not task.has_work(), f"lost wakeup: {task.name} has work"
            assert task.sched_state == IDLE
        assert not any(w.queue for w in scheduler._workers), "task left queued"
        for task in self.tasks:
            assert task.admitted_at is None, f"{task.name} busy period open"
            periods = self.periods[task]
            assert len(periods) == self.admissions[task], "busy periods"
            for (_, completed_us), (admitted_us, _) in zip(
                periods, periods[1:]
            ):
                assert completed_us <= admitted_us
            assert all(admitted <= completed for admitted, completed in periods)


def _stimuli_for(shape, allocator):
    _, stimuli, before = SHAPES[shape]
    if allocator == "static":
        # A tick is a no-op without an allocator: leave it out.
        stimuli = tuple(s for s in stimuli if s != ("tick",))
    return stimuli, before


#: Timings per (policy, allocator), summed over both shapes and the 4
#: (workers, capacity) pairs.  Five stimuli under their ordering
#: constraints have 20 orders (pipeline) or 40 (fan-in), each spread
#: over the 2 timestamps 6 ways; without the tick, 4 or 8 orders, 5 ways.
SCHEDULES = {"static": (4 + 8) * 5 * 4, "queue-depth": (20 + 40) * 6 * 4}

#: Post-event states checked per (policy, allocator), summed over every
#: schedule: the count of engine events the runs fire, each followed by
#: ``check``.  A hook that stopped seeing some events would check fewer.
STATES = {
    ("adaptive-timeslice", "static"): 5207,
    ("adaptive-timeslice", "queue-depth"): 26291,
    ("batch", "static"): 5207,
    ("batch", "queue-depth"): 26291,
    ("cooperative", "static"): 5207,
    ("cooperative", "queue-depth"): 26363,
    ("deadline", "static"): 5207,
    ("deadline", "queue-depth"): 26363,
    ("locality", "static"): 5193,
    ("locality", "queue-depth"): 26363,
    ("non_cooperative", "static"): 5207,
    ("non_cooperative", "queue-depth"): 26291,
    ("numa", "static"): 5203,
    ("numa", "queue-depth"): 26746,
    ("priority", "static"): 5207,
    ("priority", "queue-depth"): 26363,
    ("round_robin", "static"): 5615,
    ("round_robin", "queue-depth"): 29655,
    ("steal-half", "static"): 5207,
    ("steal-half", "queue-depth"): 26363,
}


@pytest.mark.parametrize("allocator", ALLOCATORS)
@pytest.mark.parametrize("policy", registered_policies())
def test_every_small_schedule(policy, allocator):
    schedules = states = steals = pending = parks = unparks = 0
    for shape in SHAPES:
        stimuli, before = _stimuli_for(shape, allocator)
        for workers, capacity in itertools.product(WORKER_COUNTS, CAPACITIES):
            for timing in timings(stimuli, before, TIMES):
                run = _Run(policy, allocator, workers, shape, capacity)
                states += run.run(timing)
                schedules += 1
                steals += run.scheduler.total_steals
                pending += run.pending_seen
                for record in run.scheduler.alloc_log:
                    parks += bool(record.parked)
                    unparks += bool(record.unparked)
    print(
        f"{policy}/{allocator}: {schedules} schedules, {states} states, "
        f"{steals} steals, {parks} parks, {unparks} unparks"
    )
    assert schedules == SCHEDULES[allocator]
    assert states == STATES[policy, allocator]
    # The space reaches the paths it exists to check.
    assert steals and pending
    assert bool(parks and unparks) == (allocator != "static")
