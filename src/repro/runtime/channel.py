"""Task channels: bounded FIFO queues between tasks of a task graph.

A channel carries values from its producers to exactly one consumer
task, and holds no reference to either.  The producer wakes the
consumer: each producer holds a ``wake`` callable (the task graph
builds it from the consumer) and calls it after every push and after
the close that ends the stream.  So nothing leads from a channel back
to the task that reads it, and a closed connection's channels and
tasks are freed by reference counting.  Capacity is finite so the
graphs of section 5 have bounded memory, and producers must check
:meth:`has_space` — input tasks stop draining their socket when
downstream is full, which is the platform's backpressure mechanism.

A channel is empty nearly all the time, and an empty ``deque`` still
takes 760 bytes on CPython 3.11, its first 64-slot block included: an
empty channel holds the shared empty tuple instead, and a deque only
while it holds items.
"""

from __future__ import annotations

from collections import deque

from repro.core.errors import ChannelClosed, ChannelFull

#: Sentinel queued to signal end-of-stream to the consumer.
EOS = object()


class TaskChannel:
    """Bounded single-producer/single-consumer queue of messages."""

    def __init__(self, name: str, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        #: ``()`` while empty; a deque only while it holds items.
        self._queue = ()
        self.closed = False
        self._eos_delivered = False

    # -- producer side ------------------------------------------------------

    def has_space(self) -> bool:
        return len(self._queue) < self.capacity

    def push(self, item) -> None:
        if self.closed:
            raise ChannelClosed(f"push into closed channel {self.name!r}")
        queue = self._queue
        if len(queue) >= self.capacity:
            raise ChannelFull(
                f"channel {self.name!r} is full ({self.capacity} items)"
            )
        if not queue:
            # ``deque()`` then ``append``: building from an iterable
            # costs more, once per item on a channel that drains.
            queue = self._queue = deque()
        queue.append(item)

    def close(self) -> bool:
        """Producer is done; consumer sees EOS after draining.

        True if this call closed the channel: only that close is news
        for the consumer, so only then does the producer wake it.
        """
        if self.closed:
            return False
        self.closed = True
        if not self._queue:
            self._queue = deque()
        self._queue.append(EOS)
        return True

    # -- consumer side ----------------------------------------------------------

    def __len__(self) -> int:
        # Data items only.  EOS is appended once by close() and popped
        # once, so it is in the queue exactly while the channel is
        # closed and the marker undelivered.
        return len(self._queue) - (self.closed and not self._eos_delivered)

    def ready(self) -> bool:
        """True if a data item (not EOS) is available."""
        # ``len(self) > 0`` spelled out: a merge node asks it of both
        # inputs once per record it takes.
        return len(self._queue) > (self.closed and not self._eos_delivered)

    def empty(self) -> bool:
        return not self._queue

    def peek(self):
        """The next data item, or None (EOS is not peekable)."""
        if self._queue and self._queue[0] is not EOS:
            return self._queue[0]
        return None

    def at_eos(self) -> bool:
        """True once the producer closed and all data was consumed."""
        return self._eos_delivered or (
            self.closed and len(self._queue) == 1 and self._queue[0] is EOS
        )

    def exhausted(self) -> bool:
        """True when EOS has been popped: no more data will ever arrive."""
        return self._eos_delivered

    def pop(self):
        """Pop the next data item; returns EOS exactly once at the end."""
        queue = self._queue
        if not queue:
            raise ChannelClosed(f"pop from empty channel {self.name!r}")
        item = queue.popleft()
        if not queue:
            self._queue = ()
        if item is EOS:
            self._eos_delivered = True
        return item
