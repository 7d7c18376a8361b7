"""Runtime unit tests: channels, scheduler, tasks, dispatchers,
and what a connection's task graph builds and lets go of."""

import dataclasses
import gc
import hashlib
import re
import weakref
from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import http_lb, memcached_proxy
from repro.bench import testbeds
from repro.core.errors import ChannelClosed, ChannelFull
from repro.core.units import GBPS
from repro.grammar.protocols import hadoop, http, memcached
from repro.lang.values import Record
from repro.net.faults import make_fault
from repro.net.tcp import TcpNetwork
from repro.runtime.channel import EOS, TaskChannel
from repro.runtime.costs import RuntimeConfig
from repro.runtime.graph import OutboundTarget, TaskGraph
from repro.runtime import platform as platform_module
from repro.runtime import graph as graph_module
from repro.runtime.platform import FlickPlatform
from repro.runtime.policy import CooperativePolicy
from repro.runtime.scheduler import Scheduler, TaskBase
from repro.runtime.task import MergeTask
from repro.sim.engine import Engine
from repro.workloads.backends import BackendMemcachedServer, BackendWebServer
from repro.workloads.arrivals import (
    ClientPopulation,
    HttpRequestCodec,
    MemcachedRequestCodec,
)
from test_close_explorer import CountingStack


class TestChannel:
    def test_fifo_order(self):
        chan = TaskChannel("c", 8)
        for i in range(3):
            chan.push(i)
        assert [chan.pop() for _ in range(3)] == [0, 1, 2]

    def test_capacity_enforced(self):
        chan = TaskChannel("c", 2)
        chan.push(1)
        chan.push(2)
        assert not chan.has_space()
        with pytest.raises(ChannelFull):
            chan.push(3)

    def test_eos_after_close(self):
        chan = TaskChannel("c", 8)
        chan.push("last")
        chan.close()
        assert chan.pop() == "last"
        assert chan.pop() is EOS
        assert chan.exhausted()

    def test_push_after_close_rejected(self):
        chan = TaskChannel("c", 8)
        chan.close()
        with pytest.raises(ChannelClosed):
            chan.push(1)

    def test_pop_empty_rejected(self):
        chan = TaskChannel("c", 8)
        with pytest.raises(ChannelClosed):
            chan.pop()

    def test_close_reports_whether_it_closed(self):
        """Only the first close is news for the consumer."""
        chan = TaskChannel("c", 8)
        assert chan.close() is True
        assert chan.close() is False

    def test_peek_skips_nothing(self):
        chan = TaskChannel("c", 8)
        chan.push("a")
        assert _peek(chan) == "a"
        assert chan.pop() == "a"

    def test_at_eos_only_when_drained(self):
        chan = TaskChannel("c", 8)
        chan.push("a")
        chan.close()
        assert not _at_eos(chan)
        chan.pop()
        assert _at_eos(chan)

    def test_push_run_is_all_or_nothing(self):
        chan = TaskChannel("c", 3)
        chan.push("a")
        with pytest.raises(ChannelFull):
            chan.push_run(deque(["b", "c", "d"]))
        assert len(chan) == 1
        chan.push_run(deque(["b", "c"]))
        assert [chan.pop() for _ in range(3)] == ["a", "b", "c"]
        chan.push_run(deque())
        assert not isinstance(chan._queue, deque)
        chan.close()
        with pytest.raises(ChannelClosed):
            chan.push_run(deque(["e"]))

    def test_an_empty_channel_takes_the_run_over(self):
        """The run becomes the queue: no copy, and it stays bounded."""
        chan = TaskChannel("c", 2)
        run = deque(["a", "b"])
        chan.push_run(run)
        assert chan._queue is run
        with pytest.raises(ChannelFull):
            chan.push_run(deque(["c"]))
        assert [chan.pop(), chan.pop()] == ["a", "b"]

    def test_a_run_read_pops_data_and_settles_empty(self):
        """A consumer pops heads straight off the run, never the EOS
        behind them, and the drained channel settles back to ``()``."""
        chan = TaskChannel("c", 4)
        chan.push_run(deque(["a", "b"]))
        run, count = chan.run()
        assert (list(run), count) == (["a", "b"], 2)
        assert [run.popleft(), run.popleft()] == ["a", "b"]
        chan.settle()
        assert chan._queue == () and chan.empty()
        chan.push("c")
        chan.close()
        run, count = chan.run()
        assert (list(run), count) == (["c", EOS], 1)
        run.popleft()
        chan.settle()
        assert _at_eos(chan) and not chan.exhausted()
        assert chan.pop() is EOS
        assert chan.run() == ((), 0)

    @staticmethod
    def _state(chan):
        """The consumer's view, and whether a deque is held."""
        return (
            len(chan), chan.ready(), _peek(chan), _at_eos(chan),
            isinstance(chan._queue, deque),
        )

    def test_empty_to_full_to_empty(self):
        """A deque is held only while items wait: the first push creates
        it, the pop that drains the channel drops it, and a refill
        creates a new one."""
        chan = TaskChannel("c", 2)
        assert self._state(chan) == (0, False, None, False, False)
        chan.push("a")
        assert self._state(chan) == (1, True, "a", False, True)
        chan.push("b")
        with pytest.raises(ChannelFull):
            chan.push("c")
        assert self._state(chan) == (2, True, "a", False, True)
        assert chan.pop() == "a"
        assert self._state(chan) == (1, True, "b", False, True)
        assert chan.pop() == "b"
        assert self._state(chan) == (0, False, None, False, False)
        chan.push("d")
        assert self._state(chan) == (1, True, "d", False, True)
        assert chan.pop() == "d"
        assert self._state(chan) == (0, False, None, False, False)

    def test_close_on_an_empty_channel(self):
        chan = TaskChannel("c", 2)
        assert chan.close()
        assert self._state(chan) == (0, False, None, True, True)
        assert not chan.exhausted()
        assert chan.pop() is EOS
        assert self._state(chan) == (0, False, None, True, False)
        assert chan.exhausted()
        with pytest.raises(ChannelClosed):
            chan.pop()
        assert not chan.close()
        assert self._state(chan) == (0, False, None, True, False)


def _peek(chan):
    """The next data item, or None (EOS is not peekable), read off the
    channel's run."""
    run, count = chan.run()
    return run[0] if count else None


def _at_eos(chan):
    """True once the producer closed and all data was consumed."""
    return chan.closed and not chan.run()[1]


class _ScanChannel:
    """Reference model: the channel as it was defined while ``__len__``
    scanned the queue and a consumer read it one item at a time.  Kept
    test-side so the O(1) arithmetic and the run reads in
    :class:`TaskChannel` are checked against the definition, not
    against themselves."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.queue = []
        self.closed = False
        self.eos_delivered = False

    def copy(self):
        twin = _ScanChannel(self.capacity)
        twin.queue = list(self.queue)
        twin.closed, twin.eos_delivered = self.closed, self.eos_delivered
        return twin

    def has_space(self):
        return len(self.queue) < self.capacity

    def push(self, item):
        if self.closed:
            raise ChannelClosed("closed")
        if len(self.queue) >= self.capacity:
            raise ChannelFull("full")
        self.queue.append(item)

    def push_run(self, items):
        """Each item pushed in turn, or none if one would not fit."""
        if self.closed:
            raise ChannelClosed("closed")
        if len(self.queue) + len(items) > self.capacity:
            raise ChannelFull("full")
        for item in items:
            self.push(item)

    def close(self):
        if self.closed:
            return False
        self.closed = True
        self.queue.append(EOS)
        return True

    def __len__(self):
        return sum(1 for item in self.queue if item is not EOS)

    def ready(self):
        return len(self) > 0

    def empty(self):
        return not self.queue

    def peek(self):
        if self.queue and self.queue[0] is not EOS:
            return self.queue[0]
        return None

    def at_eos(self):
        return self.eos_delivered or (
            self.closed and len(self.queue) == 1 and self.queue[0] is EOS
        )

    def exhausted(self):
        return self.eos_delivered

    def pop(self):
        if not self.queue:
            raise ChannelClosed("empty")
        item = self.queue.pop(0)
        if item is EOS:
            self.eos_delivered = True
        return item

    def take(self):
        """A merge's read: the next data item if one is ready."""
        return self.pop() if self.ready() else None


_CHANNEL_OPS = ("push", "push_run", "pop", "take", "close")


def _copy(chan):
    """A twin of ``chan`` that shares no queue with it."""
    twin = TaskChannel(chan.name, chan.capacity)
    twin.closed, twin._eos_delivered = chan.closed, chan._eos_delivered
    if chan._queue:
        twin._queue = deque(chan._queue)
    return twin


def _take(chan):
    """The merge's read: pop the run's head if it is data, then settle."""
    run, count = chan.run()
    item = run.popleft() if count else None
    chan.settle()
    return item


def _apply(chan, op, item):
    """Run one operation; the outcome is its value or exception class.
    A run push carries 0, 1 or 2 items, by the step's number."""
    try:
        if op == "push":
            return chan.push(item)
        if op == "push_run":
            return chan.push_run(deque((item, k) for k in range(item % 3)))
        if op == "pop":
            return chan.pop()
        if op == "take":
            return chan.take() if isinstance(chan, _ScanChannel) else _take(chan)
        return chan.close()
    except (ChannelClosed, ChannelFull) as exc:
        return type(exc)


def _observe(chan):
    if isinstance(chan, _ScanChannel):
        peek, at_eos = chan.peek(), chan.at_eos()
        run = (tuple(chan.queue), len(chan))
    else:
        peek, at_eos = _peek(chan), _at_eos(chan)
        queue, count = chan.run()
        run = (tuple(queue), count)
    length = len(chan)
    assert type(length) is int
    return (
        length,
        chan.ready(),
        chan.empty(),
        chan.has_space(),
        peek,
        at_eos,
        chan.exhausted(),
        run,
    )


def _check_step(real, model, op, step, trail):
    """Apply ``op`` to both; they must agree on it and on every view."""
    assert _apply(real, op, step) == _apply(model, op, step), trail
    assert _observe(real) == _observe(model), trail
    # A deque is held exactly while something is queued.
    assert isinstance(real._queue, deque) == bool(model.queue), trail


def _check_sequence(capacity, ops):
    real, model = TaskChannel("c", capacity), _ScanChannel(capacity)
    for step, op in enumerate(ops):
        _check_step(real, model, op, step, ops[: step + 1])


class TestChannelAgainstScanModel:
    """``TaskChannel`` vs its old definition over a stated space: every
    sequence of push / run push / pop / run read / close up to length 8
    on a capacity-2 channel (488,281 sequences) — every observer after
    every call, and the exception class of every call.

    Each sequence extends its prefix's states by one call.  What follows
    a prefix depends only on both channels' whole state and the step
    number, so a prefix that reaches a (state, step) already explored
    counts its extensions as checked without repeating them."""

    def test_every_sequence_up_to_length_8(self):
        explored = {}

        def extend(real, model, prefix):
            depth = len(prefix)
            seen = (
                type(real._queue), tuple(real._queue), real.closed,
                real._eos_delivered, tuple(model.queue), model.closed,
                model.eos_delivered, depth,
            )
            if seen in explored:
                return explored[seen]
            checked = 1
            if depth < 8:
                for op in _CHANNEL_OPS:
                    twin, twin_model = _copy(real), model.copy()
                    trail = prefix + (op,)
                    _check_step(twin, twin_model, op, depth, trail)
                    checked += extend(twin, twin_model, trail)
            explored[seen] = checked
            return checked

        checked = extend(TaskChannel("c", 2), _ScanChannel(2), ())
        assert checked == sum(5**n for n in range(9))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(_CHANNEL_OPS), max_size=400))
    def test_long_sequences_at_default_capacity(self, ops):
        _check_sequence(4096, tuple(ops))


class _CountingTask(TaskBase):
    """Processes `n` items, `cost_us` each."""

    def __init__(self, name, n, cost_us, engine):
        super().__init__(name, next(engine.task_ids))
        self.remaining = n
        self.cost_us = cost_us
        self.engine = engine
        self.finished_at = None

    def has_work(self):
        return self.remaining > 0

    def step(self, budget_us):
        elapsed = 0.0
        while self.remaining > 0:
            self.remaining -= 1
            elapsed += self.cost_us
            if budget_us == 0.0:
                break
            if budget_us is not None and elapsed >= budget_us:
                break
        emissions = []
        if self.remaining == 0 and self.finished_at is None:
            emissions.append(self._finish)
        return elapsed, emissions

    def _finish(self):
        self.finished_at = self.engine.now


class TestScheduler:
    def test_single_task_runs_to_completion(self):
        engine = Engine()
        sched = Scheduler(engine, 1)
        task = _CountingTask("t", 10, 5.0, engine)
        sched.start()
        sched.notify_runnable(task)
        engine.run()
        assert task.remaining == 0
        assert task.finished_at is not None

    def test_timeslice_respected(self):
        """No single scheduling of a task exceeds timeslice + one item."""
        engine = Engine()
        sched = Scheduler(engine, 1, CooperativePolicy(timeslice_us=20.0))
        task = _CountingTask("t", 100, 6.0, engine)
        sched.start()
        sched.notify_runnable(task)
        engine.run()
        # 100 items x 6us = 600us of work in >= 600/24 slices
        assert sched.tasks_executed >= 600 / 24

    def test_work_stealing(self):
        engine = Engine()
        sched = Scheduler(engine, 4)
        tasks = [_CountingTask(f"t{i}", 40, 5.0, engine) for i in range(8)]
        sched.start()
        for t in tasks:
            sched.notify_runnable(t)
        engine.run()
        assert all(t.remaining == 0 for t in tasks)
        # With 8 tasks on 4 cores, the makespan benefits from stealing:
        # total work 1600us over 4 cores ~ 400us + overheads.
        assert engine.now < 1600

    def test_parallel_speedup(self):
        def run(cores):
            engine = Engine()
            sched = Scheduler(engine, cores)
            tasks = [_CountingTask(f"t{i}", 50, 4.0, engine) for i in range(16)]
            sched.start()
            for t in tasks:
                sched.notify_runnable(t)
            engine.run()
            return engine.now

        assert run(8) < run(1) / 4

    def test_no_duplicate_enqueue(self):
        engine = Engine()
        sched = Scheduler(engine, 2)
        task = _CountingTask("t", 5, 1.0, engine)
        sched.start()
        for _ in range(10):
            sched.notify_runnable(task)
        engine.run()
        assert task.remaining == 0

    def test_utilisation_bounded(self):
        engine = Engine()
        sched = Scheduler(engine, 2)
        tasks = [_CountingTask(f"t{i}", 30, 5.0, engine) for i in range(4)]
        sched.start()
        for t in tasks:
            sched.notify_runnable(t)
        engine.run()
        busy_us = sum(w.busy_us for w in sched._workers)
        assert 0.0 < busy_us / (engine.now * sched.cores) <= 1.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(Exception):
            Scheduler(Engine(), 2, "fifo")


class TestSchedulerWakeups:
    """Deterministic drives of the wake/steal paths through the sim."""

    def _sleeping(self, sched):
        return [w for w in sched._workers if w.sleeping]

    def test_wake_rouses_only_home_worker(self):
        engine = Engine()
        sched = Scheduler(engine, 3)
        sched.start()
        engine.run()  # no work: all three workers go to sleep
        assert len(self._sleeping(sched)) == 3

        task = _CountingTask("t", 4, 5.0, engine)
        task.home_hint = 1
        sched.notify_runnable(task)
        # Exactly the home worker woke; the other two still sleep.
        assert not sched._workers[1].sleeping
        assert len(self._sleeping(sched)) == 2
        engine.run()
        assert task.remaining == 0
        assert all(w.steals == 0 for w in sched._workers)

    def test_busy_home_wakes_exactly_one_thief(self):
        engine = Engine()
        sched = Scheduler(engine, 3)
        sched.start()
        engine.run()
        first = _CountingTask("first", 40, 5.0, engine)
        first.home_hint = 0
        sched.notify_runnable(first)
        engine.run(until=engine.now + 10.0)  # worker 0 is mid-timeslice
        from repro.runtime.scheduler import RUNNING

        assert first.sched_state == RUNNING

        second = _CountingTask("second", 4, 5.0, engine)
        second.home_hint = 0
        sched.notify_runnable(second)
        # Home worker is busy: exactly one sleeper was roused to steal.
        assert len(self._sleeping(sched)) == 1
        engine.run()
        assert second.remaining == 0
        assert sum(w.steals for w in sched._workers) == 1
        # The never-woken worker slept through the whole run.
        assert len(self._sleeping(sched)) >= 1

    def test_notify_while_queued_enqueues_once(self):
        engine = Engine()
        sched = Scheduler(engine, 2)
        task = _CountingTask("t", 3, 1.0, engine)
        task.home_hint = 0
        sched.start()
        for _ in range(5):
            sched.notify_runnable(task)
        assert list(sched._workers[0].queue).count(task) == 1
        engine.run()
        assert task.remaining == 0

    def test_pending_wakeup_race_enqueues_once(self):
        """A task notified while RUNNING (e.g. by its own emissions) is
        re-enqueued exactly once, after the timeslice ends."""
        engine = Engine()
        sched = Scheduler(engine, 1)

        class SelfNotifyingTask(TaskBase):
            def __init__(self):
                super().__init__("selfnotify", 1)
                self.remaining = 10
                self.queue_hits = []

            def has_work(self):
                return self.remaining > 0

            def step(self, budget_us):
                elapsed = 0.0
                while self.remaining > 0:
                    self.remaining -= 1
                    elapsed += 10.0
                    if budget_us is not None and elapsed >= budget_us:
                        break

                def emit():
                    # Emissions run while sched_state is still RUNNING:
                    # these notifies must only set pending_wakeup, never
                    # enqueue a second copy.
                    sched.notify_runnable(self)
                    sched.notify_runnable(self)
                    self.queue_hits.append(
                        sum(
                            list(w.queue).count(self)
                            for w in sched._workers
                        )
                    )

                return elapsed, [emit] if elapsed > 0 else []

        task = SelfNotifyingTask()
        sched.start()
        sched.notify_runnable(task)
        engine.run()
        assert task.remaining == 0
        # The task was never present in any queue during its own timeslice.
        assert task.queue_hits and all(n == 0 for n in task.queue_hits)
        # 10 items at 10us under a 50us slice = 2 full slices, plus one
        # final zero-work decision forced by the emission-time notifies.
        assert sched.tasks_executed == 3


def _mk(key, value="1"):
    return Record("kv", {"key": key, "value": value})


class TestMergeTask:
    def _run_merge(self, left_items, right_items):
        engine = Engine()
        sched = Scheduler(engine, 1)
        left = TaskChannel("l", 64)
        right = TaskChannel("r", 64)
        out = TaskChannel("o", 64)
        merge = MergeTask(
            "m", left, right, out, task_id=1,
            key_fn=lambda r: r.key,
            combine_fn=lambda a, b: (
                Record("kv", {"key": a.key, "value": str(int(a.value) + int(b.value))}),
                1.0,
            ),
        )
        sched.start()
        for item in left_items:
            left.push(item)
        for item in right_items:
            right.push(item)
        left.close()
        right.close()
        # The test is both inputs' producer, so it wakes the merge.
        sched.notify_runnable(merge)
        engine.run()
        result = []
        while not out.empty():
            item = out.pop()
            if item is not EOS:
                result.append((item.key, item.value))
        assert out.exhausted()  # merge closed its output
        return result

    def test_disjoint_merge(self):
        out = self._run_merge([_mk("a"), _mk("c")], [_mk("b"), _mk("d")])
        assert [k for k, _ in out] == ["a", "b", "c", "d"]

    def test_equal_keys_combined(self):
        out = self._run_merge(
            [_mk("a", "1"), _mk("b", "2")], [_mk("a", "3"), _mk("b", "4")]
        )
        assert out == [("a", "4"), ("b", "6")]

    def test_one_side_empty(self):
        out = self._run_merge([_mk("x", "5")], [])
        assert out == [("x", "5")]

    def test_both_empty(self):
        assert self._run_merge([], []) == []

    def test_duplicates_within_one_stream(self):
        out = self._run_merge([_mk("a", "1"), _mk("a", "2")], [_mk("a", "4")])
        assert out == [("a", "7")]


# -- what a connection builds, and what it lets go of -----------------------


def _proxy_testbed(app="lb", **config):
    """The paper's topology by hand: a 4-core middlebox running the
    HTTP load balancer (or the Memcached proxy, or Listing 1's cache
    router) in front of ten backends; ``config`` adds
    :class:`RuntimeConfig` fields."""
    engine = Engine()
    net = TcpNetwork(engine)
    mbox = net.add_host("mbox", 10 * GBPS, "core")
    client_hosts = [
        net.add_host(f"client{i}", 1 * GBPS, "edge") for i in range(4)
    ]
    backend_hosts = [
        net.add_host(f"backend{i}", 1 * GBPS, "edge") for i in range(10)
    ]
    if app == "lb":
        port, backend_port, server = 80, 8080, BackendWebServer
        program, proc = http_lb.compile_http_lb(), "HttpBalancer"
        registry, bindings = http_lb.http_codec_registry(), http_lb.lb_bindings
    else:
        port, backend_port, server = 11211, 11211, BackendMemcachedServer
        program, proc = (
            (memcached_proxy.compile_cache_router(), "memcached")
            if app == "cache-router"
            else (memcached_proxy.compile_proxy(), "Memcached")
        )
        registry = memcached_proxy.memcached_codec_registry(program)
        bindings = memcached_proxy.proxy_bindings
    backends = [
        server(engine, net, host, backend_port) for host in backend_hosts
    ]
    platform = FlickPlatform(
        engine, net, mbox, RuntimeConfig(cores=4, **config), registry
    )
    instance = platform.register_program(
        program,
        proc,
        port,
        bindings([OutboundTarget(h, backend_port) for h in backend_hosts]),
    )
    platform.start()
    graphs = []
    build = instance.graph_dispatcher._build_graph

    def capture():
        graphs.append(build())
        return graphs[-1]

    instance.graph_dispatcher._build_graph = capture
    return engine, net, mbox, client_hosts, backends, graphs


def _one_shot(engine, net, host, mbox, at_us, raw, replies):
    """At ``at_us`` open a connection, send ``raw``, close on the first
    reply bytes (or on the middlebox's EOF)."""

    def connected(socket):
        def on_data(data):
            replies.append(data)
            socket.close()

        socket.on_receive(on_data)
        socket.on_close(socket.close)
        socket.send(raw)

    engine.schedule(at_us, net.connect, host, mbox, 80, connected)


def _task_ids(graphs):
    return {task.name: task.task_id for g in graphs for task in g.tasks}


#: ``(task.name, task.task_id)`` of every task the eager design (the
#: parent of the lazy-leg change) created for three one-request LB
#: connections opened at t = 0, 100 and 300 µs — recorded there by
#: wrapping ``TaskGraph._add_task``.  The second connection binds after
#: the first one's request went out and before its backend handshake
#: completed, so the ``.fwd`` ids interleave with a later graph's.  Ids
#: are observable (hash placement), so a lazily built task must carry
#: the id this table gives its name.
_EAGER_LB_IDS = {
    **{"g1:compute": 5, "g1:client.out": 6, "g1:client.in": 17},
    **{f"g1:backends[{k}].out": 7 + k for k in range(10)},
    **{"g2:compute": 18, "g2:client.out": 19, "g2:client.in": 30},
    **{f"g2:backends[{k}].out": 20 + k for k in range(10)},
    **{"g1:backends[5].fwd": 31, "g2:backends[9].fwd": 32},
    **{"g3:compute": 33, "g3:client.out": 34, "g3:client.in": 45},
    **{f"g3:backends[{k}].out": 35 + k for k in range(10)},
    **{"g3:backends[2].fwd": 46},
}

#: The same for one Memcached-proxy connection whose 40 GETKs reach all
#: ten shards: ``.out`` ids in endpoint order, ``.fwd`` ids in the order
#: the shards were first used.
_EAGER_MEMCACHED_IDS = {
    **{"g1:compute": 5, "g1:client.out": 6, "g1:client.in": 17},
    **{f"g1:backends[{k}].out": 7 + k for k in range(10)},
    **{
        f"g1:backends[{k}].fwd": 18 + order
        for order, k in enumerate((1, 4, 8, 6, 3, 9, 2, 5, 0, 7))
    },
}


def _three_one_shots(**config):
    """Three one-request LB connections opened at t = 0, 100 and 300 µs;
    returns ``(graphs, replies)``."""
    engine, net, mbox, hosts, _backends, graphs = _proxy_testbed(**config)
    replies = []
    for index, at_us in enumerate((0.0, 100.0, 300.0)):
        raw = http.make_request("GET", f"/{index}", keep_alive=False).raw
        _one_shot(engine, net, hosts[index], mbox, at_us, raw, replies)
    engine.run()
    return graphs, replies


class TestLazyLegs:
    def _three_connections(self):
        graphs, replies = _three_one_shots()
        assert len(replies) == 3
        return graphs

    def test_lazily_built_tasks_carry_their_eager_ids(self):
        created = _task_ids(self._three_connections())
        assert created.items() <= _EAGER_LB_IDS.items()
        # The subset is exactly: everything but the never-used legs.
        assert set(_EAGER_LB_IDS) - set(created) == {
            f"g{g}:backends[{k}].out"
            for g, used in ((1, 5), (2, 9), (3, 2))
            for k in range(10)
            if k != used
        }

    def test_one_request_connection_builds_five_tasks(self):
        for graph in self._three_connections():
            names = [task.name.split(":")[1] for task in graph.tasks]
            assert len(names) == 5, names
            assert names[:3] == ["compute", "client.out", "client.in"]
            leg = names[3][: -len(".out")]
            assert names[3:] == [f"{leg}.out", f"{leg}.fwd"]

    def test_leg_opens_once_however_many_sends_precede_connected(self):
        engine, net, mbox, hosts, backends, graphs = _proxy_testbed()
        replies = []
        # Three pipelined keep-alive requests in one segment: all three
        # are forwarded to the same leg before its handshake completes.
        raw = b"".join(
            http.make_request("GET", f"/{n}").raw for n in range(3)
        )

        def connected(socket):
            socket.on_receive(replies.append)
            socket.send(raw)

        net.connect(hosts[0], mbox, 80, connected)
        engine.run()
        assert net.connections_established == 2  # client + one backend
        assert sum(b.requests_served for b in backends) == 3
        parser = http.HttpResponseParser()
        parser.feed(b"".join(replies))
        assert len(list(parser.messages())) == 3
        assert len(graphs) == 1 and len(graphs[0].tasks) == 5

    def test_memcached_connection_reaching_all_shards_builds_all_legs(self):
        engine, net, mbox, hosts, backends, graphs = _proxy_testbed(
            "memcached"
        )
        population = ClientPopulation(
            engine, net, hosts, mbox, 11211, MemcachedRequestCodec(),
            connections=1, n_requests=40,
        )
        population.start()
        engine.run()
        assert population.finished and population.errors == 0
        assert all(b.requests_served for b in backends)
        assert _task_ids(graphs) == _EAGER_MEMCACHED_IDS


class TestBackendCloseTeardown:
    """A backend EOF ends the connection through the graph's one close,
    after what the backend sent ahead of it."""

    def test_every_one_shot_reply_is_delivered(self):
        """``Connection: close``: each backend closes right behind its
        reply, and the reply still reaches its client whole (the close
        this replaced, switched on, dropped all three)."""
        graphs, replies = _three_one_shots()
        assert [len(reply) for reply in replies] == [177] * 3
        assert all(graph.finished for graph in graphs)

    def test_a_parsed_return_leg_ends_the_connection(self):
        """The cache router's ``backends => update_cache(cache) =>
        client`` leg is parsed, into the compute inbox it shares with
        the client; its EOF must neither close that inbox nor charge a
        teardown.  One client pipelines GETKs 100 µs apart and every
        backend goes down at 1000 µs: the platform closes the client,
        where ``ChannelClosed`` (a push into ``compute.in``) used to
        escape ``engine.run()`` at t = 1160.9 µs."""
        engine, net, mbox, hosts, backends, graphs = _proxy_testbed(
            "cache-router"
        )
        for backend in backends:
            engine.at(1000.0, backend.set_up, False)
        replies, closed_at = [], []

        def connected(socket):
            def getk(n):
                if not socket.closed:
                    request = memcached.make_request(
                        memcached.OP_GETK, f"key-{n}"
                    )
                    socket.send(memcached.encode(request))

            def on_close():
                closed_at.append(engine.now)
                socket.close()

            socket.on_receive(replies.append)
            socket.on_close(on_close)
            for n in range(1, 21):
                engine.at(n * 100.0, getk, n)

        net.connect(hosts[0], mbox, 11211, connected)
        engine.run()
        (graph,) = graphs
        assert graph.finished and len(closed_at) == 1
        assert replies and sum(b.connections_reset for b in backends) > 0


def _staggered_closes(offsets_us):
    """One keep-alive LB request per client, 50 µs apart; client ``i``
    closes ``offsets_us[i]`` µs after sending its request (the reply,
    if it comes first, is kept)."""
    engine, net, mbox, hosts, backends, graphs = _proxy_testbed()
    replies = []
    for index, offset_us in enumerate(offsets_us):
        raw = http.make_request("GET", f"/{index}").raw

        def connected(socket, raw=raw, offset_us=offset_us):
            socket.on_receive(replies.append)
            socket.send(raw)
            engine.schedule(offset_us, socket.close)

        engine.schedule(
            index * 50.0, net.connect, hosts[index], mbox, 80, connected
        )
    engine.run()
    return graphs, backends, replies


def test_tasks_woken_after_teardown_are_still_charged():
    """Clients close around their request: after the backend leg is
    connected (teardown closes it before the response), with the
    response in flight (the forward task and the client output task run
    after teardown), and after the reply.  Alone, one request's leg
    opens 182 µs after the send and connects at 254, the backend answers
    at 308 and the reply lands at 392; a close at +160 / +240 / +450
    tears the graph down at +286 / +366 / +576.  Every task's
    ``(name, busy_us)`` and the scheduler's total busy time are pinned
    to the digest of the code before any reference cycle was broken:
    dropping a reference at its last use charges the same work.  (A close before the leg connects is the case
    ``test_a_leg_connected_after_teardown_is_closed`` changed on
    purpose, so it is not here.)"""
    graphs, _backends, replies = _staggered_closes((160.0, 240.0, 450.0))
    rows = [
        (task.name, task.busy_us)
        for graph in graphs
        for task in graph.tasks
    ]
    rows.append(sum(w.busy_us for w in graphs[0].scheduler._workers))
    assert len(graphs) == 3 and len(replies) == 1
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "de1c36bff3282f6a864f2135eff7aaf29a46c9c40526e7ab976ad261e84ad73e"
    )


def test_every_runtime_config_field_is_read_by_the_platform():
    """A field nothing reads is a knob that moves no number: each one
    must be read as ``config.<field>`` somewhere outside its own module."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for path in src.rglob("*.py")
        if path.name != "costs.py"
    )
    unread = [
        field.name
        for field in dataclasses.fields(RuntimeConfig)
        if not re.search(rf"config\.{field.name}\b", text)
    ]
    assert unread == []


def test_graph_channels_take_the_task_channel_default_capacity(monkeypatch):
    """A graph's channels are bounded at ``TaskChannel``'s default, the
    one capacity every configuration used; no config field sets it.  A
    channel is named by its role in the graph alone (``compute.in``):
    nothing formats the graph id into it."""
    made = []

    def recording(name):
        made.append(TaskChannel(name))
        return made[-1]

    monkeypatch.setattr(graph_module, "TaskChannel", recording)
    engine, net, mbox, hosts, _backends, graphs = _proxy_testbed()
    replies = []
    raw = http.make_request("GET", "/", keep_alive=False).raw
    _one_shot(engine, net, hosts[0], mbox, 0.0, raw, replies)
    engine.run()
    assert len(replies) == 1 and len(graphs) == 1
    assert made
    assert {chan.capacity for chan in made} == {
        TaskChannel("default").capacity
    }
    assert "compute.in" in {chan.name for chan in made}


def cyclic_garbage(run):
    """Run ``run()`` with the cycle collector off, then collect, and
    return the ``repro`` objects the collector found, counted by type.

    Whatever ``run()`` returns stays alive through the collection, so a
    testbed it hands back is not counted.  What is counted is what
    reference counting could not free: objects in a reference cycle, or
    held only by one.
    """
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    alive = None
    gc.disable()
    try:
        alive = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(
            type(obj).__qualname__
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
        del alive


#: Four of ten backends reset their connections twice: 39 resets, each
#: a backend EOF on a persistent connection.  The close this replaced
#: left each reset's graph in a reference cycle, with its tasks,
#: channels and ten outbound legs (39 graphs for the collector).
_LB_FLAPPING = testbeds.Scenario(
    app="http_lb", arrival="poisson",
    arrival_params=(("rate_rps", 40_000.0),), total_requests=1024,
    faults="flapping-backend",
    fault_params=(
        ("first_down_us", 5_000.0), ("downtime_us", 2_000.0),
        ("period_us", 8_000.0), ("targets", 4),
    ),
)


@pytest.mark.parametrize(
    "spec",
    [
        testbeds.Scenario(
            app="http_lb", persistent=False, concurrency=16,
            requests_per_client=12,
        ),
        testbeds.Scenario(
            app="memcached_proxy", arrival="poisson",
            arrival_params=(("rate_rps", 40_000.0),), concurrency=16,
            total_requests=768, faults="conn-churn",
            fault_params=(("lifetime_requests", 16),),
        ),
        _LB_FLAPPING,
    ],
    ids=["backend-first", "client-first", "reset"],
)
def test_each_closed_connection_is_charged_one_teardown(spec, monkeypatch):
    """Whichever end closes first, a connection pays ``teardown_us``
    exactly once: the client's input task charges it when the client
    closes first, the client's output task when a backend does (a
    ``Connection: close`` reply, or a reset).  A connection still open
    when the run drains pays nothing."""
    graphs = []

    class CountedGraph(TaskGraph):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.stack = CountingStack(self.stack)
            graphs.append(self)

    monkeypatch.setattr(platform_module, "TaskGraph", CountedGraph)
    testbeds.run_experiment(spec)
    closed = [g.stack.teardowns for g in graphs if g.finished]
    assert closed and set(closed) == {1}
    assert all(g.stack.teardowns == 0 for g in graphs if not g.finished)


class TestConnectionRelease:
    """A finished connection is freed by reference counting: no
    reference cycle keeps its graph, tasks, channels, parsers or
    sockets for the cycle collector to find."""

    def test_non_persistent_connections_are_let_go(self):
        engine, net, mbox, hosts, backends, graphs = _proxy_testbed()
        population = ClientPopulation(
            engine, net, hosts, mbox, 80, HttpRequestCodec(),
            connections=8, persistent=False,
            n_requests=25, warmup_requests=0,
        )
        freed = []

        def run():
            population.start()
            engine.run()
            alive = [weakref.ref(graph) for graph in graphs]
            del graphs[:]
            # With the collector off, only reference counting frees.
            freed.extend(ref() is None for ref in alive)
            return engine, net, backends, population

        assert cyclic_garbage(run) == Counter()
        assert population.finished and population.errors == 0
        assert len(freed) == 200 and all(freed)
        # ``Connection: close``: the backend closes first, so it never
        # hears the peer's EOF — it must forget the socket on its own
        # close, or every server socket pins its whole graph.
        assert [len(b._live_sockets) for b in backends] == [0] * 10

    @pytest.mark.parametrize(
        "spec",
        [
            testbeds.Scenario(
                app="http_lb", persistent=False, concurrency=16,
                requests_per_client=12,
            ),
            testbeds.Scenario(
                app="http_lb", mode="web", persistent=False,
                concurrency=16, requests_per_client=12,
            ),
            testbeds.Scenario(
                app="memcached_proxy", arrival="poisson",
                arrival_params=(("rate_rps", 40_000.0),), concurrency=16,
                total_requests=768, faults="conn-churn",
                fault_params=(("lifetime_requests", 16),),
            ),
            # A foldt graph: four input tasks, three merges that hold
            # their heads' keys and a pending record, one output task.
            testbeds.Scenario(
                app="hadoop_agg", data_kb_per_mapper=8, n_mappers=4,
            ),
            _LB_FLAPPING,
        ],
        ids=[
            "lb-non-persistent", "web-non-persistent", "memcached-churn",
            "hadoop-foldt", "lb-flapping",
        ],
    )
    def test_no_closed_connection_is_left_to_the_collector(
        self, spec, monkeypatch
    ):
        """The whole testbed stays alive through the collection (its
        population, servers and network, and through the network's
        listeners every platform), so everything found is the remains
        of a closed connection."""
        testbed = []
        population_of = testbeds._population

        def keep(spec, app, engine, tcpnet, mbox, servers):
            population = population_of(spec, app, engine, tcpnet, mbox, servers)
            testbed.extend((engine, tcpnet, servers, population))
            return population

        monkeypatch.setattr(testbeds, "_population", keep)
        # A wire codec is generated once per process, and generating it
        # leaves a cycle of its own: build this app's codecs first.  The
        # aggregator's program needs its reducer target, so it builds
        # just the codec.
        if spec.app == "hadoop_agg":
            hadoop.codec()
        else:
            testbeds.APPS[spec.app].program(spec, [])
        results = []

        def run():
            results.append(testbeds.run_experiment(spec))
            return testbed

        assert cyclic_garbage(run) == Counter()
        entry = results[0].entry
        assert (entry["job"]["egress_bytes"] if "job" in entry else entry["completed"]) > 0

    def test_a_leg_connected_after_teardown_is_closed(self):
        """A request sent and closed in one tick: the graph finishes
        before its backend leg's handshake does.  The new socket is
        closed the way the graph's close closed the rest, and no return task
        is built to read it — the backend keeps no open connection, and
        nothing pins the finished graph."""
        graphs, backends, _replies = _staggered_closes((0.0,))
        (graph,) = graphs
        assert graph.finished
        assert [len(b._live_sockets) for b in backends] == [0] * 10
        names = [task.name.split(":")[1] for task in graph.tasks]
        assert names[:3] == ["compute", "client.out", "client.in"]
        assert len(names) == 4 and names[3].endswith(".out")

    def test_flapping_resets_count_only_open_connections(self):
        engine, net, mbox, hosts, backends, _graphs = _proxy_testbed()
        make_fault(
            "flapping-backend",
            first_down_us=3_000.0,
            downtime_us=1_000.0,
            period_us=4_000.0,
            cycles=2,
            targets=10,
        ).install(engine, backends)
        replies = []
        for index in range(200):
            raw = http.make_request("GET", f"/{index}", keep_alive=False).raw
            _one_shot(
                engine, net, hosts[index % 4], mbox, index * 50.0, raw, replies
            )
        engine.run()
        # 35 is the count recorded at the parent, where the sockets a
        # backend had closed itself sat in its live set and were skipped
        # by ``if not socket.closed``; now they are simply not there.
        # Every connection was either answered or reset.
        assert sum(b.connections_reset for b in backends) == 35
        assert len(replies) == 165
        assert [len(b._live_sockets) for b in backends] == [0] * 10
