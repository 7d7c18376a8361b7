"""Task implementations: input, compute, output and foldt-merge tasks.

Tasks are the schedulable units of section 5.  Each consumes a stream of
input values and produces a stream of output values:

* :class:`InputTask` — drains raw bytes from one TCP connection, runs the
  generated incremental parser, emits typed records; charges the stack's
  read costs and the parser's ops.
* :class:`ComputeTask` — executes the compiled routing rules of a FLICK
  process on tagged messages; charges the handlers' ops.
* :class:`OutputTask` — serialises records (raw fast path for unmodified
  messages) and writes them to one TCP connection; charges serialiser ops
  and the stack's write costs.
* :class:`MergeTask` — one node of a foldt combine tree: a streaming
  two-way merge that combines equal-key elements (Figure 3c).

All tasks follow the deferred-emission contract of the scheduler: side
effects produced during a timeslice are returned as thunks and performed
only after the timeslice's virtual time has elapsed.

Hand-off: a producer's slice is one emission per out channel.  An
input, raw-forward or merge task collects the slice's items in a deque
and emits one thunk that pushes them all, in order, with
:meth:`~repro.runtime.channel.TaskChannel.push_run` (an empty channel
takes the deque over as its queue) and then wakes the consumer once; a
close that ends the stream is one more emission after it.  An output
task emits one thunk that sends the slice's buffers in order, one
``send`` each.  A compute task is the exception: its handlers' sends
interleave across channels record by record, and the order in which
consumers wake decides where they queue, so each send stays its own
emission.  A consumer (compute, output and merge tasks) reads each
input's queued run once per slice and pops its items straight off it.
What is charged stays per record: the dispatch cost, the parser's and
the combine's ops, and the budget and headroom checks.

Who wakes whom: a socket's data and close callbacks wake the task that
reads it (``attach`` hands the task the scheduler's ``notify_runnable``,
which it calls with itself, so a task holds no closure over itself);
a producer's ``wake``, set by the task graph, wakes the consumer of its
out channel after the slice's items are in it and after the close.  A
second wake at the same instant changes nothing: the consumer is
already queued, or running with a wake-up pending.  Nothing leads from a
consumer back to its producers, and a task drops the references that
lead back to its graph once it has used them for the last time — the
end-of-stream callback once emitted (the graph's close drops the rest),
a compute task's handlers and send proxies once it pops EOS — so a
finished connection's tasks are freed by reference counting.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Tuple

from repro.core.errors import ParseError, RuntimeFlickError
from repro.lang.values import Record
from repro.net.stackprofiles import StackProfile
from repro.runtime.channel import EOS, TaskChannel
from repro.runtime.costs import TASK_DISPATCH_US, ops_to_us
from repro.runtime.scheduler import TaskBase


def _unwired() -> None:
    """The ``wake`` of a producer whose channel no task reads."""


def _emit_run(out: TaskChannel, wake: Callable[[], None], run: deque):
    """An emission: the items of ``run`` enter ``out`` in order, then its
    consumer wakes once; a run after the close is dropped, as
    :func:`_emit_sends` drops a write to a closed socket."""

    def emit() -> None:
        if not out.closed:
            out.push_run(run)
            wake()

    return emit


def _emit_close(out: TaskChannel, wake: Callable[[], None]):
    """An emission: ``out`` closes, and its consumer wakes if that was
    news (a second close of a channel is a no-op)."""

    def emit() -> None:
        if out.close():
            wake()

    return emit


#: A head whose key the merge has not computed yet.
_UNKEYED = object()


class _SocketReader(TaskBase):
    """A task that reads one connection into ``out``.

    ``attach`` registers the socket's data and close callbacks: each
    queues what arrived (a chunk, or the EOF) and marks the task
    runnable.  The task has work while ``out`` has room and a chunk, a
    parsed backlog or an unhandled EOF waits.
    """

    #: Whether a parser may still hold complete messages; only an
    #: :class:`InputTask` has one.
    _backlog = False

    def __init__(
        self,
        name: str,
        out: TaskChannel,
        stack: StackProfile,
        cores: int,
        on_eof: Optional[Callable[[], None]] = None,
        *,
        task_id: int,
    ):
        super().__init__(name, task_id)
        self._out = out
        self._stack = stack
        self._cores = cores
        self.on_eof = on_eof
        #: Chunks not yet read: ``()`` while none wait, as in a
        #: :class:`TaskChannel`; a deque only while some do.
        self._chunks = ()
        self.eof_seen = False
        self._eof_handled = False
        self._notify: Optional[Callable[[TaskBase], None]] = None
        #: Wakes the consumer of ``out``; the task graph sets it.
        self.wake: Callable[[], None] = _unwired

    def attach(self, socket, notify: Callable[[TaskBase], None]) -> None:
        """Bind to a socket; ``notify(task)`` marks a task runnable."""
        self._notify = notify
        socket.on_receive(self._on_data)
        socket.on_close(self._on_close)

    def _on_data(self, data: bytes) -> None:
        if not self._chunks:
            self._chunks = deque()
        self._chunks.append(data)
        self._notify(self)

    def _on_close(self) -> None:
        self.eof_seen = True
        self._notify(self)

    def has_work(self) -> bool:
        if not self._out.has_space():
            return False
        return (
            bool(self._chunks)
            or self._backlog
            or (self.eof_seen and not self._eof_handled)
        )


class InputTask(_SocketReader):
    """Deserialises one connection's byte stream into typed records;
    malformed bytes end it as an EOF would.  At EOF, a task that
    ``owns_out`` charges the teardown and closes ``out``."""

    def __init__(
        self,
        name: str,
        parser,
        out: TaskChannel,
        stack: StackProfile,
        cores: int,
        tag: Optional[Tuple[str, int]] = None,
        on_eof: Optional[Callable[[], None]] = None,
        *,
        task_id: int,
        owns_out: bool = True,
    ):
        super().__init__(name, out, stack, cores, on_eof, task_id=task_id)
        self._parser = parser
        self._tag = tag
        self._owns_out = owns_out

    def detach(self, socket) -> None:
        """Stop reading ``socket``; the connection ended at its far end."""
        socket.on_receive(None)
        socket.on_close(None)
        self._eof_handled = True  # and an EOF already on its way is ignored

    def step(self, budget_us: Optional[float]):
        # The emitted message count must respect downstream capacity: the
        # out-channel only fills after emissions run, so track headroom
        # locally within this timeslice.
        elapsed = 0.0
        run = deque()
        tag = self._tag
        headroom = self._out.capacity - len(self._out)
        done = eof = False
        while not done:
            # Drain parsed messages first (backlog from a previous slice).
            while headroom > 0:
                try:
                    record = self._parser.poll()
                except ParseError:
                    record, self.eof_seen = None, True
                if record is None:
                    self._backlog = False
                    break
                elapsed += ops_to_us(self._parser.take_ops())
                run.append(record if tag is None else (tag[0], tag[1], record))
                headroom -= 1
                if budget_us is not None and elapsed >= budget_us:
                    self._backlog = True
                    done = True
                    break
            if done or headroom <= 0:
                break
            chunks = self._chunks
            if chunks:
                chunk = chunks.popleft()
                if not chunks:
                    self._chunks = ()
                try:
                    self._parser.feed(chunk)
                except ParseError:
                    self.eof_seen = True
                self._backlog = True
                elapsed += self._stack.read_cost_us(len(chunk), self._cores)
                if budget_us is not None and elapsed >= budget_us:
                    break
            elif self.eof_seen and not self._eof_handled:
                self._eof_handled = eof = True
                if self._owns_out:
                    elapsed += self._stack.teardown_us
                break
            else:
                break
        self.busy_us += elapsed
        emissions = [_emit_run(self._out, self.wake, run)] if run else []
        if eof:
            if self._owns_out:
                emissions.append(_emit_close(self._out, self.wake))
            if self.on_eof is not None:
                # Emitted once; holding it on would pin the graph.
                emissions.append(self.on_eof)
                self.on_eof = None
        return elapsed, emissions


class RawForwardTask(_SocketReader):
    """Forwards one connection's byte stream without parsing.

    Used for pipeline rules of the form ``backends => client`` with no
    function stages: the compiler knows no computation touches these
    messages, so the return path copies bytes verbatim (§6.1: "On their
    return path no computation or parsing is needed, and the data is
    forwarded without change").
    """

    def step(self, budget_us: Optional[float]):
        elapsed = 0.0
        run = deque()
        on_eof = None
        out = self._out
        # Pushes land only after the slice, so count the room they take.
        headroom = out.capacity - len(out)
        while self.has_work():
            chunks = self._chunks
            if chunks:
                if headroom <= 0:
                    break
                chunk = chunks.popleft()
                if not chunks:
                    self._chunks = ()
                elapsed += self._stack.read_cost_us(len(chunk), self._cores)
                run.append(chunk)
                headroom -= 1
            else:
                # No chunk waits: the EOF follows the slice's run.
                self._eof_handled = True
                on_eof, self.on_eof = self.on_eof, None
            if budget_us is not None and elapsed >= budget_us:
                break
        self.busy_us += elapsed
        emissions = [_emit_run(out, self.wake, run)] if run else []
        if on_eof is not None:
            emissions.append(on_eof)
        return elapsed, emissions


class _BufferingSendProxy:
    """A channel endpoint handed to FLICK code during a compute step.

    Sends are buffered and turned into deferred emissions, preserving the
    rule that downstream tasks cannot observe data before the producing
    timeslice completes.
    """

    __slots__ = ("_chan", "buffered", "wake")

    def __init__(self, chan: Optional[TaskChannel]):
        self._chan = chan
        self.buffered: List[object] = []
        #: Wakes the consumer of the channel; the task graph sets it.
        self.wake: Callable[[], None] = _unwired

    def send(self, value) -> None:
        self.buffered.append(value)

    def _sink(self, value) -> None:
        if not self._chan.closed:
            self._chan.push(value)
            self.wake()

    def flush_thunks(self) -> List[Callable[[], None]]:
        sink = self._sink
        thunks = [
            (lambda v=value: sink(v)) for value in self.buffered
        ]
        self.buffered.clear()
        return thunks


class ChannelArrayView:
    """Indexable view over an array endpoint's send proxies.

    Supports ``len``, indexing and ``ready()`` (for ``all_ready``), which
    is all the FLICK builtins need.
    """

    def __init__(self, proxies: List[_BufferingSendProxy]):
        self._proxies = proxies

    def __len__(self) -> int:
        return len(self._proxies)

    def __getitem__(self, index: int):
        return self._proxies[index]


class ComputeTask(TaskBase):
    """Executes compiled FLICK routing rules on tagged messages.

    Input items are ``(endpoint, index, record)`` tuples pushed by input
    tasks.  ``handlers`` maps endpoint names to the rule-handler
    callables produced by the compiler; the handler's context contains
    the buffering proxies this task owns.
    """

    def __init__(self, name: str, inbox: TaskChannel, *, task_id: int):
        super().__init__(name, task_id)
        self.inbox = inbox
        self._handlers = {}
        self._proxies: List[_BufferingSendProxy] = []

    def add_handler(self, endpoint: str, handler) -> None:
        self._handlers.setdefault(endpoint, []).append(handler)

    def register_proxy(self, proxy: _BufferingSendProxy) -> None:
        self._proxies.append(proxy)

    def has_work(self) -> bool:
        return not self.inbox.empty()

    def step(self, budget_us: Optional[float]):
        elapsed = 0.0
        emissions: List[Callable[[], None]] = []
        inbox = self.inbox
        run, count = inbox.run()
        while count:
            endpoint, _index, record = run.popleft()
            count -= 1
            elapsed += TASK_DISPATCH_US
            handlers = self._handlers.get(endpoint, ())
            if not handlers:
                inbox.settle()
                raise RuntimeFlickError(
                    f"compute task {self.name!r}: no rule consumes messages "
                    f"from endpoint {endpoint!r}"
                )
            for handler in handlers:
                ops = handler(record)
                elapsed += ops_to_us(ops)
            for proxy in self._proxies:
                if proxy.buffered:
                    emissions.extend(proxy.flush_thunks())
            if budget_us is not None and elapsed >= budget_us:
                break
        else:
            if run:  # the EOS behind the data
                inbox.pop()
                # Nothing is handled or sent after EOS, and the handlers'
                # context and the proxies lead back to the graph.
                self._handlers = {}
                self._proxies = []
        inbox.settle()
        self.busy_us += elapsed
        return elapsed, emissions


def _emit_sends(socket, buffers: List[bytes]):
    """An emission: ``buffers`` go out on ``socket`` in order, one
    ``send`` each, and each is dropped if the socket closed (EPIPE).

    A connection can die under a running program — the peer vanished or
    a front-end router severed the pipe — with responses still queued
    behind the compute.  A real middlebox takes EPIPE and drops the
    write; so does this, instead of raising out of the scheduler.
    """

    def emit() -> None:
        for data in buffers:
            if not socket.closed:
                socket.send(data)

    return emit


class OutputTask(TaskBase):
    """Serialises records from its inbox onto one TCP connection."""

    def __init__(
        self,
        name: str,
        inbox: TaskChannel,
        serialize: Callable[[Record], Tuple[bytes, float]],
        stack: StackProfile,
        cores: int,
        close_on_eos: bool = False,
        *,
        task_id: int,
    ):
        super().__init__(name, task_id)
        self.inbox = inbox
        self._serialize = serialize
        self._stack = stack
        self._cores = cores
        self._socket = None
        self._close_on_eos = close_on_eos

    def bind_socket(self, socket) -> None:
        self._socket = socket

    def has_work(self) -> bool:
        return self._socket is not None and not self.inbox.empty()

    def step(self, budget_us: Optional[float]):
        elapsed = 0.0
        socket = self._socket
        if socket is None:
            return elapsed, []
        buffers: List[bytes] = []
        close = False
        inbox = self.inbox
        run, count = inbox.run()
        while count:
            item = run.popleft()
            count -= 1
            if isinstance(item, (bytes, bytearray)):
                # Raw forwarding path: bytes cross unparsed and unserialised.
                data, ops = bytes(item), len(item) / 256.0
            else:
                data, ops = self._serialize(item)
            elapsed += ops_to_us(ops)
            elapsed += self._stack.write_cost_us(len(data), self._cores)
            buffers.append(data)
            if budget_us is not None and elapsed >= budget_us:
                break
        else:
            if run:  # the EOS behind the data
                inbox.pop()
                if self._close_on_eos:
                    elapsed += self._stack.teardown_us
                    close = True
        inbox.settle()
        self.busy_us += elapsed
        emissions = [_emit_sends(socket, buffers)] if buffers else []
        if close:
            emissions.append(socket.close)
        return elapsed, emissions


class MergeTask(TaskBase):
    """One foldt tree node: streaming merge-combine of two sorted inputs.

    Emits a sorted stream with unique keys: consecutive equal-key elements
    (across or within inputs) are combined with the foldt body.  Closes
    its output when both inputs are exhausted.
    """

    def __init__(
        self,
        name: str,
        left: TaskChannel,
        right: TaskChannel,
        out: TaskChannel,
        key_fn: Callable[[Record], object],
        combine_fn: Callable[[Record, Record], Tuple[Record, float]],
        *,
        task_id: int,
    ):
        super().__init__(name, task_id)
        self._left = left
        self._right = right
        self._out = out
        self._key = key_fn
        self._combine = combine_fn
        self._pending: Optional[Record] = None  # last element, not yet final
        # Keys of the pending record and of the two heads, once computed.
        self._pending_key = self._left_key = self._right_key = _UNKEYED
        self._done = False
        #: Wakes the consumer of ``out``; the task graph sets it.
        self.wake: Callable[[], None] = _unwired

    def has_work(self) -> bool:
        if self._done or not self._out.has_space():
            return False
        # The next record is decidable once each input holds one or has
        # closed (a closed input holds only what comes before its EOS).
        left, right = self._left, self._right
        return (left.ready() or left.closed) and (right.ready() or right.closed)

    def step(self, budget_us: Optional[float]):
        # One loop over locals.  Each input's queued run and data count
        # are read once; records are popped straight off the runs, and
        # the channels settle when the slice ends.  Only this task pops
        # its inputs and no producer runs during the slice, so a count
        # stays exact and a closed input stays closed.  A record's key
        # is computed once, when the merge first looks at it as a head,
        # and kept while it is a head or pending.  The out channel fills
        # only when the slice's emission runs, so the slice stops taking
        # records once its output fills the headroom the channel had
        # when it began.
        elapsed = 0.0
        headroom = self._out.capacity - len(self._out)
        if self._done or headroom <= 0:
            return elapsed, []
        left, right, key = self._left, self._right, self._key
        lrun, lcount = left.run()
        rrun, rcount = right.run()
        lclosed, rclosed = left.closed, right.closed
        lkey, rkey = self._left_key, self._right_key
        pending, pkey = self._pending, self._pending_key
        merged = deque()
        while True:
            if lcount:
                if lkey is _UNKEYED:
                    lkey = key(lrun[0])
                if rcount:
                    if rkey is _UNKEYED:
                        rkey = key(rrun[0])
                    from_left = lkey <= rkey
                elif rclosed:
                    from_left = True
                else:
                    break
            elif not lclosed:
                break
            elif rcount:
                if rkey is _UNKEYED:
                    rkey = key(rrun[0])
                from_left = False
            elif rclosed:
                for chan in (left, right):
                    if not chan.exhausted():
                        chan.pop()  # consume the EOS marker
                if pending is not None:
                    merged.append(pending)
                    pending = None
                self._done = True
                break
            else:
                break
            if from_left:
                element, ekey, lkey = lrun.popleft(), lkey, _UNKEYED
                lcount -= 1
            else:
                element, ekey, rkey = rrun.popleft(), rkey, _UNKEYED
                rcount -= 1
            elapsed += TASK_DISPATCH_US
            if pending is None:
                pending, pkey = element, ekey
            elif pkey == ekey:
                pending, ops = self._combine(pending, element)
                pkey = key(pending)
                elapsed += ops_to_us(ops)
            else:
                merged.append(pending)
                pending, pkey = element, ekey
                headroom -= 1
            if not headroom or (budget_us is not None and elapsed >= budget_us):
                break
        left.settle()
        right.settle()
        self._left_key, self._right_key = lkey, rkey
        self._pending, self._pending_key = pending, pkey
        self.busy_us += elapsed
        emissions = [_emit_run(self._out, self.wake, merged)] if merged else []
        if self._done:
            emissions.append(_emit_close(self._out, self.wake))
        return elapsed, emissions
