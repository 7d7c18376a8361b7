"""The earlier foldt merge node, preserved as a semantic oracle.

This is the :class:`repro.runtime.task.MergeTask` the Hadoop aggregator
ran before the merge became one loop over locals: each record asks
``has_work``, drains end-of-stream markers, picks the smaller head with
up to four ``key_fn`` calls, and each push is its own emission.  It is
deliberately *not* optimised — it **defines** what a merge slice
charges and emits, the way ``tests/engine_oracle.py`` defines the event
engine's firing order.

One consumer: ``tests/test_merge_oracle.py`` drives it and the
production merge through the same deliveries, closes, slices and
drains, and requires the same output stream, per-slice ``elapsed``,
``busy_us``, input records popped and exception class.  Nothing under
``src/`` imports this module.

It reads its inputs one item at a time, through the channel observers
the merge asked before it read runs: :func:`_peek` and :func:`_at_eos`
keep their definitions here, next to their one reader.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.lang.values import Record
from repro.runtime.channel import EOS, TaskChannel
from repro.runtime.costs import TASK_DISPATCH_US, ops_to_us
from repro.runtime.scheduler import TaskBase


def _unwired() -> None:
    """The ``wake`` of a merge whose channel no task reads."""


def _peek(chan: TaskChannel):
    """The next data item, or None (EOS is not peekable)."""
    queue = chan._queue
    if queue and queue[0] is not EOS:
        return queue[0]
    return None


def _at_eos(chan: TaskChannel) -> bool:
    """True once the producer closed and all data was consumed."""
    queue = chan._queue
    return chan.exhausted() or (
        chan.closed and len(queue) == 1 and queue[0] is EOS
    )


def _emit_push(out: TaskChannel, wake: Callable[[], None], item):
    def emit() -> None:
        out.push(item)
        wake()

    return emit


def _emit_close(out: TaskChannel, wake: Callable[[], None]):
    def emit() -> None:
        if out.close():
            wake()

    return emit


class ReferenceMergeTask(TaskBase):
    """One foldt tree node: streaming merge-combine of two sorted inputs."""

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
        self._done = False
        self.wake: Callable[[], None] = _unwired

    @staticmethod
    def _finished(chan: TaskChannel) -> bool:
        """No further data will ever arrive on ``chan``."""
        return chan.exhausted() or _at_eos(chan)

    def has_work(self) -> bool:
        if self._done or not self._out.has_space():
            return False
        left, right = self._left, self._right
        if left.ready() and (right.ready() or self._finished(right)):
            return True
        if right.ready() and self._finished(left):
            return True
        return self._finished(left) and self._finished(right)

    def _take_next(self) -> Optional[Record]:
        """Pop the smaller-keyed head, if the choice is decidable."""
        left, right = self._left, self._right
        lhead = _peek(left) if left.ready() else None
        rhead = _peek(right) if right.ready() else None
        if lhead is not None and rhead is not None:
            if self._key(lhead) <= self._key(rhead):
                return left.pop()
            return right.pop()
        if lhead is not None and self._finished(right):
            return left.pop()
        if rhead is not None and self._finished(left):
            return right.pop()
        return None

    def _drain_eos(self) -> None:
        for chan in (self._left, self._right):
            if _at_eos(chan) and not chan.exhausted():
                chan.pop()  # consume the EOS marker

    def step(self, budget_us: Optional[float]):
        elapsed = 0.0
        emissions: List[Callable[[], None]] = []
        out, wake = self._out, self.wake
        # Records pushed into ``out`` only when the emissions run, so the
        # slice stops once it has as many pushes as ``out`` had room for.
        headroom = out.capacity - len(out)
        while self.has_work():
            self._drain_eos()
            element = self._take_next()
            if element is not None:
                elapsed += TASK_DISPATCH_US
                if self._pending is None:
                    self._pending = element
                elif self._key(self._pending) == self._key(element):
                    self._pending, ops = self._combine(self._pending, element)
                    elapsed += ops_to_us(ops)
                else:
                    done = self._pending
                    emissions.append(_emit_push(out, wake, done))
                    headroom -= 1
                    self._pending = element
                if not headroom:
                    break
            elif self._left.exhausted() and self._right.exhausted():
                if self._pending is not None:
                    done = self._pending
                    emissions.append(_emit_push(out, wake, done))
                    self._pending = None
                emissions.append(_emit_close(out, wake))
                self._done = True
                break
            else:
                break
            if budget_us == 0.0:
                break
            if budget_us is not None and elapsed >= budget_us:
                break
        self.busy_us += elapsed
        return elapsed, emissions
