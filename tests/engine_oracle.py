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
from typing import Callable, List, Optional, Tuple

from repro.core.errors import SimulationError


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
