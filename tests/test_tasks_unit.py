"""Unit tests for input/output/raw-forward tasks outside the full platform."""

from repro.grammar.protocols import memcached as mc
from repro.net.stackprofiles import KERNEL
from repro.runtime.channel import EOS, TaskChannel
from repro.runtime.task import InputTask, OutputTask, RawForwardTask


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
        assert task.bytes_out == len(socket.sent[0])

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
