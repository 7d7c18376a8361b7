"""Frozen calibration: the yardstick every host time is divided by.

The sandbox's speed moves by 10-15% from one second to the next (CPU
time, not only wall: it is the shared machine that moves), so raw
seconds of identical code do not repeat, and a yardstick timed *beside*
a two-second testbed call is already stale.  The calibrator therefore
runs *inside* the measured interpreter: a ``SIGALRM`` interval timer
fires every ``INTERVAL_S`` and its handler times one fixed quantum of
work, so every 20 ms of the call carries its own reading of how fast
the machine was.  Host times are reported in calibrated seconds::

    (cpu_s - time spent in quanta) * CALIB_NOMINAL_S * mean(1 / quantum_s)

i.e. seconds on a machine where the quantum always takes
``CALIB_NOMINAL_S``.  No threads: a Python signal handler runs on the
main thread between two bytecodes.

The quantum is stdlib-only and mixed so that it slows down as the
simulator does when a neighbour takes the core's shared resources:
about two thirds interpreter dispatch shaped like the grammar engine's
field loop (method calls, ``isinstance``, dict traffic, byte slices),
one third a random pointer walk over a working set far larger than the
private caches.  Dispatch alone over-reacts to a busy neighbour (fitted
slope of log call time on log quantum time 0.7-0.9), the walk alone
under-reacts (1.1-1.4); the mix straddles 1 (0.83-1.19 over the four
workloads).

Editing anything in this file re-baselines every calibrated number in
``baseline.json`` and belongs to a ``benchmark`` issue of its own.
"""

from __future__ import annotations

import gc
import random
import signal
import time

#: The builder's measured median quantum on the reference sandbox.
CALIB_NOMINAL_S = 0.00078

INTERVAL_S = 0.02

_DISPATCH_ROUNDS = 130
_WALK_STEPS = 350
_WORKING_SET = 40_000

_process_time = time.process_time


class _Field:
    __slots__ = ("name", "width")

    def __init__(self, name, width):
        self.name = name
        self.width = width

    def size(self, values):
        width = self.width
        if isinstance(width, int):
            return width
        return values.get(width, 0)


class Calibrator:
    """Times one quantum every ``INTERVAL_S`` between ``start``/``stop``."""

    def __init__(self):
        self.samples: list = []
        self._fields = [
            _Field(f"f{i}", 2 + i % 3 if i % 4 else f"f{i - 1}")
            for i in range(12)
        ]
        self._payload = bytes(range(256))
        order = list(range(_WORKING_SET))
        random.Random(1).shuffle(order)
        self._objects = [
            [order[i], f"k{i:06d}", float(i), bytes(64)]
            for i in range(_WORKING_SET)
        ]
        self._at = 0
        # The working set is the yardstick's, not the program's: keep the
        # collector from walking it on every full collection of the run.
        gc.freeze()

    def _quantum(self) -> int:
        payload = self._payload
        fields = self._fields
        total = 0
        for r in range(_DISPATCH_ROUNDS):
            values = {}
            offset = 0
            for field in fields:
                size = field.size(values)
                chunk = payload[offset:offset + size]
                values[field.name] = len(chunk) + (r & 3)
                offset += size
            total += offset
        objects = self._objects
        at = self._at
        for _ in range(_WALK_STEPS):
            obj = objects[at]
            total += len(obj[1]) + len(obj[3])
            at = obj[0]
        self._at = at
        return total

    def _tick(self, signum, frame) -> None:
        start = _process_time()
        self._quantum()
        self.samples.append(_process_time() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def calibrated_seconds(cpu_s: float, quanta, speed_from=None) -> float:
    """``cpu_s`` of a span during which ``quanta`` ran, in calibrated
    seconds.  The machine's speed is read from ``speed_from`` (default:
    the span's own quanta); with no reading the span is reported raw."""
    readings = quanta if speed_from is None else speed_from
    work_s = cpu_s - sum(quanta)
    if not readings:
        return work_s
    speed = sum(1.0 / q for q in readings) / len(readings)
    return work_s * CALIB_NOMINAL_S * speed
