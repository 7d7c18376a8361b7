"""The seed heap-only event engine, preserved as a semantic oracle.

This is the engine the repository grew up on: one binary heap of
``(time, seq, callback, args)`` tuples, popped one comparison at a time.
It is deliberately *not* optimised — its value is that the firing order
it produces **defines** the determinism contract the production engine
(:mod:`repro.sim.engine`) must reproduce bit-for-bit, the same way
``tests/grammar_oracle.py`` is the oracle for the generated codecs.

One consumer: ``tests/test_engine_equivalence.py`` runs
hypothesis-generated schedules through both engines and asserts
identical firing sequences and final clocks — any divergence is a
production-engine bug by definition.  Nothing under ``src/`` imports
this module.

Three intentional departures from the seed, all shared with the
production engine so the harness can exercise them freely:
:meth:`ReferenceEngine.at` schedules the exact absolute timestamp
instead of round-tripping through ``when - now`` → ``now + delay`` float
arithmetic; a NaN delay or timestamp is rejected like a negative one;
and ``run(until)`` with ``until`` in the past is a no-op instead of
rewinding the clock.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, List, Optional, Tuple

from repro.core.errors import SimulationError


class ReferenceEvent:
    """One-shot signal, identical in behaviour to :class:`engine.Event`."""

    __slots__ = ("_engine", "_triggered", "_payload", "_callbacks")

    def __init__(self, engine: "ReferenceEngine"):
        self._engine = engine
        self._triggered = False
        self._payload = None
        self._callbacks: List[Callable] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def payload(self):
        return self._payload

    def trigger(self, payload=None) -> None:
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._payload = payload
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._engine.schedule(0.0, callback, payload)

    def add_callback(self, callback: Callable) -> None:
        if self._triggered:
            self._engine.schedule(0.0, callback, self._payload)
        else:
            self._callbacks.append(callback)


class ReferenceTimeout:
    """Yielded by a process to sleep for ``delay`` microseconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"negative timeout {delay}")
        self.delay = delay


class ReferenceProcess:
    """A running generator-based process (heap-only engine flavour)."""

    __slots__ = ("_engine", "_gen", "finished", "result")

    def __init__(self, engine: "ReferenceEngine", gen: Generator):
        self._engine = engine
        self._gen = gen
        self.finished = ReferenceEvent(engine)
        self.result = None
        engine.schedule(0.0, self._resume, None)

    def _resume(self, payload) -> None:
        try:
            yielded = self._gen.send(payload)
        except StopIteration as stop:
            self.result = stop.value
            self.finished.trigger(stop.value)
            return
        if isinstance(yielded, ReferenceTimeout):
            self._engine.schedule(yielded.delay, self._resume, None)
        elif isinstance(yielded, ReferenceEvent):
            yielded.add_callback(self._resume)
        elif isinstance(yielded, ReferenceProcess):
            yielded.finished.add_callback(self._resume)
        else:
            raise SimulationError(
                f"process yielded unsupported object {yielded!r}"
            )


class ReferenceEngine:
    """The seed event loop: one heap, one pop per event."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self._running = False

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` after ``delay`` µs of virtual time."""
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"cannot schedule in the past ({delay})")
        heapq.heappush(
            self._heap, (self.now + delay, self._seq, callback, args)
        )
        self._seq += 1

    def at(self, when: float, callback: Callable, *args) -> None:
        """Run ``callback`` at the exact absolute virtual time ``when``."""
        if not when >= self.now:  # earlier or NaN
            raise SimulationError(
                f"cannot schedule in the past ({when - self.now})"
            )
        heapq.heappush(self._heap, (when, self._seq, callback, args))
        self._seq += 1

    def event(self) -> ReferenceEvent:
        return ReferenceEvent(self)

    def timeout(self, delay: float) -> ReferenceTimeout:
        return ReferenceTimeout(delay)

    def process(self, gen: Generator) -> ReferenceProcess:
        """Spawn a generator as a simulated process."""
        return ReferenceProcess(self, gen)

    # -- execution ------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the heap empties or ``until`` is reached.

        Returns the final virtual time.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        if until is not None and until < self.now:
            return self.now
        self._running = True
        try:
            heap = self._heap
            while heap:
                when = heap[0][0]
                if until is not None and when > until:
                    self.now = until
                    return self.now
                _, _, callback, args = heapq.heappop(heap)
                self.now = when
                callback(*args)
            if until is not None:
                self.now = max(self.now, until)
            return self.now
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of scheduled events (for tests/diagnostics)."""
        return len(self._heap)
