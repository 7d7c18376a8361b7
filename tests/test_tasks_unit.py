"""Unit tests for the connection and compute tasks outside the full
platform: each task on its own, the socket-reader half that input and
raw-forward tasks share, and the budget contract of ``TaskBase``."""

import pytest

from repro.bench.scheduling import SyntheticTask
from repro.grammar.protocols import memcached as mc
from repro.net.stackprofiles import KERNEL
from repro.runtime.channel import EOS, TaskChannel
from repro.runtime.dispatcher import DispatcherTask
from repro.runtime.task import (
    ComputeTask,
    InputTask,
    OutputTask,
    RawForwardTask,
)
from repro.sim.engine import Engine


class _FakeSocket:
    """Socket stub: captures sends, lets tests inject receive/close."""

    def __init__(self):
        self.sent = []
        self._recv = None
        self._close = None
        self.closed = False

    def on_receive(self, cb):
        self._recv = cb

    def on_close(self, cb):
        self._close = cb

    def send(self, data):
        self.sent.append(data)

    def close(self):
        self.closed = True

    # test helpers
    def deliver(self, data):
        self._recv(data)

    def eof(self):
        self._close()


def _drain(task, budget=None):
    """Step a task to quiescence, running its emissions."""
    while task.has_work():
        _, emissions = task.step(budget)
        for emit in emissions:
            emit()


class TestInputTask:
    def _make(self, capacity=64):
        out = TaskChannel("out", capacity)
        task = InputTask(
            "in", mc.full_codec().parser(), out, KERNEL, cores=1, task_id=1
        )
        socket = _FakeSocket()
        notified = []
        task.attach(socket, notified.append)
        return task, out, socket, notified

    def test_parses_stream_into_records(self):
        task, out, socket, notified = self._make()
        raw = mc.encode(mc.make_request(mc.OP_GETK, "k1"))
        socket.deliver(raw)
        assert notified == [task]  # data made the task runnable
        _drain(task)
        record = out.pop()
        assert record.key == "k1"

    def test_each_push_and_the_close_wake_the_consumer(self):
        """The producer wakes its out channel's reader, each time after
        the item is in the channel."""
        task, out, socket, _ = self._make()
        woken = []
        task.wake = lambda: woken.append(len(out))
        raw = mc.encode(mc.make_request(mc.OP_GETK, "k"))
        socket.deliver(raw * 2)
        socket.eof()
        _drain(task)
        assert woken == [1, 2, 2]  # two records, then EOS

    def test_partial_message_waits(self):
        task, out, socket, _ = self._make()
        raw = mc.encode(mc.make_request(mc.OP_GETK, "k1"))
        socket.deliver(raw[:10])
        _drain(task)
        assert out.empty()
        socket.deliver(raw[10:])
        _drain(task)
        assert not out.empty()

    def test_eof_closes_downstream(self):
        task, out, socket, _ = self._make()
        socket.eof()
        _drain(task)
        assert out.pop() is EOS

    def test_backpressure_stops_parsing(self):
        task, out, socket, _ = self._make(capacity=2)
        raw = mc.encode(mc.make_request(mc.OP_GETK, "k")) * 5
        socket.deliver(raw)
        _drain(task)
        assert len(out) == 2  # capacity respected
        out.pop()
        out.pop()
        _drain(task)  # resumes once space frees up
        assert len(out) == 2

    def test_tagging(self):
        out = TaskChannel("out", 8)
        task = InputTask(
            "in", mc.full_codec().parser(), out, KERNEL, cores=1, task_id=1,
            tag=("backends", 3),
        )
        socket = _FakeSocket()
        task.attach(socket, lambda task: None)
        socket.deliver(mc.encode(mc.make_request(mc.OP_GET, "x")))
        _drain(task)
        endpoint, index, record = out.pop()
        assert (endpoint, index) == ("backends", 3)
        assert record.key == "x"

    def test_budget_zero_emits_at_most_one_message(self):
        """Round-robin budget: one work item per step (the first step
        consumes the chunk read, the next one message)."""
        task, out, socket, _ = self._make()
        socket.deliver(mc.encode(mc.make_request(mc.OP_GET, "a")) * 3)
        _, emissions = task.step(0.0)
        for emit in emissions:
            emit()
        assert len(out) <= 1
        assert task.has_work()  # backlog remembered
        _, emissions = task.step(0.0)
        for emit in emissions:
            emit()
        assert len(out) == 1


class TestOutputTask:
    def test_serialises_and_sends(self):
        inbox = TaskChannel("in", 8)
        task = OutputTask(
            "out", inbox, lambda r: mc.full_codec().serialize(r),
            KERNEL, cores=1, task_id=1,
        )
        socket = _FakeSocket()
        task.bind_socket(socket)
        record = mc.make_request(mc.OP_GETK, "key")
        inbox.push(record)
        _drain(task)
        assert socket.sent == [mc.encode(record)]

    def test_raw_bytes_pass_through(self):
        inbox = TaskChannel("in", 8)
        task = OutputTask("out", inbox, lambda r: (b"", 0.0), KERNEL, cores=1, task_id=1)
        socket = _FakeSocket()
        task.bind_socket(socket)
        inbox.push(b"raw-bytes")
        _drain(task)
        assert socket.sent == [b"raw-bytes"]

    def test_unbound_task_has_no_work(self):
        inbox = TaskChannel("in", 8)
        task = OutputTask("out", inbox, lambda r: (b"", 0.0), KERNEL, cores=1, task_id=1)
        inbox.push(b"x")
        assert not task.has_work()
        task.bind_socket(_FakeSocket())
        assert task.has_work()

    def test_close_on_eos(self):
        inbox = TaskChannel("in", 8)
        task = OutputTask(
            "out", inbox, lambda r: (b"", 0.0), KERNEL, cores=1, task_id=1,
            close_on_eos=True,
        )
        socket = _FakeSocket()
        task.bind_socket(socket)
        inbox.push(b"x")
        inbox.close()
        _drain(task)
        assert socket.closed


class TestRawForwardTask:
    def test_bytes_copied_verbatim(self):
        out = TaskChannel("out", 8)
        task = RawForwardTask("fwd", out, KERNEL, cores=1, task_id=1)
        socket = _FakeSocket()
        task.attach(socket, lambda task: None)
        socket.deliver(b"chunk-1")
        socket.deliver(b"chunk-2")
        _drain(task)
        assert out.pop() == b"chunk-1"
        assert out.pop() == b"chunk-2"

    def test_eof_does_not_close_shared_output(self):
        """The forward target (the client's output channel) is shared
        with the compute path and must survive a backend close."""
        out = TaskChannel("out", 8)
        task = RawForwardTask("fwd", out, KERNEL, cores=1, task_id=1)
        socket = _FakeSocket()
        task.attach(socket, lambda task: None)
        socket.eof()
        _drain(task)
        assert not out.closed

    def test_slice_stops_at_out_channel_headroom(self):
        """Pushes land only after the slice, so a slice emits no more
        chunks than the out channel has room for; the rest wait."""
        out = TaskChannel("out", 2)
        task = RawForwardTask("fwd", out, KERNEL, cores=1, task_id=1)
        socket = _FakeSocket()
        task.attach(socket, lambda task: None)
        for chunk in (b"a", b"b", b"c"):
            socket.deliver(chunk)
        _, emissions = task.step(None)
        assert len(emissions) == 2
        for emit in emissions:
            emit()  # ChannelFull if the slice overran the headroom
        assert not task.has_work()
        assert [out.pop(), out.pop()] == [b"a", b"b"]
        _drain(task)
        assert out.pop() == b"c"

    def test_cost_scales_with_bytes(self):
        out = TaskChannel("out", 1024)
        task = RawForwardTask("fwd", out, KERNEL, cores=1, task_id=1)
        socket = _FakeSocket()
        task.attach(socket, lambda task: None)
        socket.deliver(b"x" * 10)
        small, _ = task.step(None)
        socket.deliver(b"x" * 10_000)
        big, _ = task.step(None)
        assert big > small


def _input_reader(out):
    return InputTask(
        "in", mc.full_codec().parser(), out, KERNEL, cores=1, task_id=1
    )


def _raw_reader(out):
    return RawForwardTask("fwd", out, KERNEL, cores=1, task_id=1)


#: The two tasks that read a connection, built on one out channel.
READERS = {"input": _input_reader, "raw": _raw_reader}


class TestSocketReader:
    """What an input task and a raw forwarder share: the socket's data
    and close callbacks, the EOF flags and ``has_work``."""

    def _attached(self, kind, capacity=8):
        out = TaskChannel("out", capacity)
        task = READERS[kind](out)
        socket = _FakeSocket()
        notified = []
        task.attach(socket, notified.append)
        return task, out, socket, notified

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_an_attached_reader_waits_for_its_socket(self, kind):
        task, _, _, notified = self._attached(kind)
        assert not task.has_work()
        assert not task.eof_seen
        assert notified == []

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_data_queues_a_chunk_and_marks_the_reader_runnable(self, kind):
        task, _, socket, notified = self._attached(kind)
        socket.deliver(mc.encode(mc.make_request(mc.OP_GETK, "k")))
        assert notified == [task]
        assert task.has_work()

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_eof_is_handled_once_and_ends_the_work(self, kind):
        task, _, socket, notified = self._attached(kind)
        ended = []
        task.on_eof = lambda: ended.append(True)
        socket.eof()
        assert task.eof_seen
        assert notified == [task]
        assert task.has_work()
        _drain(task)
        assert ended == [True]
        assert task.on_eof is None
        assert not task.has_work()

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_a_full_out_channel_holds_the_reader(self, kind):
        task, out, socket, _ = self._attached(kind, capacity=1)
        out.push(b"occupant")
        socket.deliver(mc.encode(mc.make_request(mc.OP_GETK, "k")))
        socket.eof()
        assert not task.has_work()
        out.pop()
        assert task.has_work()


class _StubDispatcher:
    """A graph dispatcher whose assignment costs nothing."""

    def __init__(self):
        self.assigned = []

    def assign_cost_us(self):
        return 0.0

    def assign(self, socket):
        self.assigned.append(socket)


def _three_item_task(kind, free=False):
    """A task of ``kind`` with three items ready; with ``free``, items
    that cost no virtual time (where the task allows it).  Returns the
    task and a count of the items it has taken so far, read off what
    the task produces or consumes: records pushed, inbox pops, sends,
    assignments, or the synthetic task's remaining work."""
    request = mc.make_request(mc.OP_GETK, "k")
    if kind in READERS:
        out = TaskChannel("out", 8)
        task = READERS[kind](out)
        socket = _FakeSocket()
        task.attach(socket, lambda task: None)
        if kind == "input":
            socket.deliver(mc.encode(request) * 3)
        else:
            for chunk in (b"a", b"b", b"c"):
                socket.deliver(chunk)
        return task, lambda: len(out)
    if kind == "compute":
        inbox = TaskChannel("in", 8)
        task = ComputeTask("compute", inbox, task_id=1)
        task.add_handler("client", lambda record: 0.0)
        for _ in range(3):
            inbox.push(("client", 0, request))
        return task, lambda: 3 - len(inbox)
    if kind == "output":
        inbox = TaskChannel("in", 8)
        task = OutputTask(
            "out", inbox, mc.full_codec().serialize, KERNEL, cores=1,
            task_id=1,
        )
        socket = _FakeSocket()
        task.bind_socket(socket)
        for _ in range(3):
            inbox.push(request)
        return task, lambda: len(socket.sent)
    if kind == "dispatcher":
        dispatcher = _StubDispatcher()
        task = DispatcherTask(
            "dispatch", dispatcher, 0.0 if free else KERNEL.accept_us,
            task_id=1,
        )
        for index in range(3):
            task.enqueue(f"socket-{index}")
        return task, lambda: len(dispatcher.assigned)
    assert kind == "synthetic"
    task = SyntheticTask("synthetic", 3, 0 if free else 64, Engine())
    return task, lambda: 3 - task._remaining


TASK_KINDS = ("compute", "dispatcher", "input", "output", "raw", "synthetic")


class TestBudgetContract:
    """``TaskBase``: a step takes no further item once its elapsed time
    reaches the budget, so a zero budget takes one item per step, and
    ``None`` runs to completion."""

    @staticmethod
    def _step(task, taken, budget):
        before = taken()
        _, emissions = task.step(budget)
        for emit in emissions:
            emit()
        return taken() - before

    @pytest.mark.parametrize("kind", TASK_KINDS)
    def test_zero_budget_takes_at_most_one_item_per_step(self, kind):
        task, taken = _three_item_task(kind)
        per_step = []
        while task.has_work():
            per_step.append(self._step(task, taken, 0.0))
        assert max(per_step) == 1
        assert sum(per_step) == 3

    @pytest.mark.parametrize("kind", TASK_KINDS)
    def test_no_budget_takes_every_ready_item_in_one_step(self, kind):
        task, taken = _three_item_task(kind)
        assert self._step(task, taken, None) == 3
        assert not task.has_work()

    @pytest.mark.parametrize("kind", ("dispatcher", "synthetic"))
    def test_free_items_still_stop_a_zero_budget_step(self, kind):
        """Elapsed time never falls, so ``0.0 >= 0.0`` ends the step
        after one item even when the item cost nothing."""
        task, taken = _three_item_task(kind, free=True)
        assert [self._step(task, taken, 0.0) for _ in range(3)] == [1, 1, 1]
        assert not task.has_work()
