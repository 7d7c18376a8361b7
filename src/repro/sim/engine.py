"""Discrete-event simulation engine (virtual time in microseconds).

This is the substrate that replaces the paper's physical testbed: all
networking, scheduling and CPU accounting in the reproduction run on this
engine's virtual clock.  The external surface is deliberately small —
``schedule``/``at``/``run(until)``, every entry one callback and its
arguments — and the firing order is the total order a single binary
heap of ``(time, seq)`` keys would produce (``seq`` is a global
schedule counter breaking same-time ties in schedule order).  That
contract is what makes runs reproducible, and it is locked by the
differential oracle harness (``tests/test_engine_equivalence.py``),
which drives this engine and the seed heap-only oracle
(``tests/engine_oracle.py``) through generated schedules and asserts
identical firing sequences.  Activity that repeats — a scheduler
worker's loop, the open-loop arrival clock — is a callback that files
its own next turn.

Two stages
----------

* **Ready queue** — a FIFO ``deque`` of events at the *current* tick.
  Zero-delay schedules (and a delay too small to move the clock) never
  touch the heap.  Every ready entry carries ``time == now``.
* **Heap** — one binary heap holding every strictly-future event.

The pending set is bounded by live connections, not by run length (35 to
189 heap entries across the scenario matrix and the host-time ledger), so
a cache-resident heap's C push/pop is all the calendar this traffic
needs.  Event records are flat ``(time, seq, callback, args)`` tuples
compared whole — ``seq`` is unique, so a comparison never reaches the
callback.  The clock never runs backwards, hence a heap entry is never
earlier than ``now``, and when both stages hold work one tuple comparison
of their heads picks the next event: the heap wins only on a same-time
entry that was scheduled first.

Determinism contract
--------------------

* Events fire in strictly non-decreasing ``(time, seq)`` order; same-time
  events fire in schedule order.  No wall-clock time is involved
  anywhere; ``engine.now`` is the only clock.
* ``at()`` schedules the *exact* absolute timestamp given — there is no
  ``when - now`` → ``now + delay`` float round-trip, so an event lands on
  the requested time to the last ulp.
* ``schedule(delay)`` with a delay so small that ``now + delay`` rounds
  back to ``now`` fires at ``now``, after events already queued for the
  tick (its seq is larger).
* Negative and NaN times are rejected; ``run(until)`` with ``until`` in
  the past is a no-op, so nothing can rewind the clock.
* A callback that raises consumes exactly its own entry: everything else
  stays queued and a later ``run()`` carries on in order.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Deque, List, Optional, Tuple

from repro.core.errors import SimulationError

_INF = float("inf")

_Entry = Tuple[float, int, Callable, tuple]


class Engine:
    """The event loop: schedule callbacks, run.

    One engine is one run, so it also numbers the run's tasks and task
    graphs: ``next(engine.task_ids)`` and ``next(engine.graph_ids)``
    count from 1.  Task ids drive hash placement, so a spec run twice
    places every task the same way, whatever ran in the process before.
    """

    __slots__ = (
        "now", "_seq", "_running", "_ready", "_heap", "task_ids", "graph_ids"
    )

    def __init__(self):
        self.now: float = 0.0
        self._seq = 0
        self.task_ids = count(1)
        self.graph_ids = count(1)
        self._running = False
        # Events at the current tick, FIFO in seq order.
        self._ready: Deque[_Entry] = deque()
        # Every strictly-future event.
        self._heap: List[_Entry] = []

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` after ``delay`` µs of virtual time."""
        if not delay >= 0.0:  # negative or NaN
            raise SimulationError(f"cannot schedule in the past ({delay})")
        now = self.now
        when = now + delay
        seq = self._seq
        self._seq = seq + 1
        if when > now:
            heappush(self._heap, (when, seq, callback, args))
        else:
            self._ready.append((when, seq, callback, args))

    def at(self, when: float, callback: Callable, *args) -> None:
        """Run ``callback`` at the exact absolute virtual time ``when``."""
        now = self.now
        if not when >= now:  # earlier or NaN
            raise SimulationError(
                f"cannot schedule in the past ({when - now})"
            )
        seq = self._seq
        self._seq = seq + 1
        if when > now:
            heappush(self._heap, (when, seq, callback, args))
        else:
            self._ready.append((when, seq, callback, args))

    # -- execution ------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until none remain or ``until`` is reached.

        Returns the final virtual time.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        if until is not None and until < self.now:
            return self.now
        limit = _INF if until is None else until
        self._running = True
        ready = self._ready
        heap = self._heap
        try:
            while True:
                if ready:
                    if heap and heap[0] < ready[0]:
                        entry = heappop(heap)
                    else:
                        entry = ready.popleft()
                elif heap:
                    entry = heap[0]
                    if entry[0] > limit:
                        self.now = until
                        return until
                    heappop(heap)
                    self.now = entry[0]
                else:
                    if until is not None and until > self.now:
                        self.now = until
                    return self.now
                entry[2](*entry[3])
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of scheduled events (for tests/diagnostics)."""
        return len(self._ready) + len(self._heap)
