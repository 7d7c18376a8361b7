"""Elastic core allocation: the *policy* half of overload survival.

The platform has always run a fixed worker set, so under sustained
open-loop overload the only possible outcome is unbounded queueing.
This module adds the first of two overload-survival policy planes
(:mod:`repro.runtime.admission` is the other): string-keyed *allocation
policies* that grow or shrink a scheduler's **active** worker set from
observed load, following the same policy/mechanism discipline as
:mod:`repro.runtime.policy` — the mechanism (worker park/unpark,
queue draining, the :class:`~repro.runtime.scheduler.AllocRecord` log)
lives in :class:`~repro.runtime.scheduler.Scheduler`; every *decision*
is delegated to an :class:`AllocationPolicy` through one hook,
``target_workers(view)``: how many workers should be active, given an
:class:`AllocView` snapshot (active count, core count, per-worker queue
depths).  The mechanism
clamps the answer into ``[1, cores]`` and applies at most one change
per cooldown window.

Decisions are evaluated on deterministic **tick boundaries** (every
``tick_us`` of virtual time, at the first scheduler activity at or
after each boundary), and a change is only applied when ``cooldown_us``
has elapsed since the previous one — the mechanism-enforced hysteresis
that the conformance harness (``tests/test_allocator_invariants.py``)
checks from the alloc log.

Two policies ship built in: ``static`` (the fixed worker set, and the
default: its ticks always ask for every core, so nothing changes) and
``queue-depth`` (grow when the mean backlog per active worker
crosses a high watermark, shrink below a low one; the
``http-ramp-elastic`` scenario pins it).  Like scheduling policies,
unknown names get near-miss suggestions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.errors import RuntimeFlickError
from repro.core.registry import Registry


@dataclass(frozen=True)
class AllocView:
    """What an allocation policy may observe at one tick boundary.

    ``queue_depths`` is index-aligned with the scheduler's workers
    (parked workers included — their queues are drained at park time,
    so they read 0).
    """

    active: int
    cores: int
    queue_depths: Tuple[int, ...]

    @property
    def queued_tasks(self) -> int:
        return sum(self.queue_depths)


class AllocationPolicy:
    """Base class: keep every core active (subclasses override)."""

    #: Registry key; subclasses must override.
    name = "abstract"

    def __init__(
        self,
        tick_us: float = 500.0,
        cooldown_us: float = 2_000.0,
    ):
        if tick_us <= 0:
            raise RuntimeFlickError(
                f"allocator tick must be positive, got {tick_us}"
            )
        if cooldown_us < 0:
            raise RuntimeFlickError(
                f"allocator cooldown must be >= 0, got {cooldown_us}"
            )
        #: Virtual µs between decision boundaries.
        self.tick_us = tick_us
        #: Minimum virtual µs between two *applied* changes
        #: (mechanism-enforced hysteresis).
        self.cooldown_us = cooldown_us

    def target_workers(self, view: AllocView) -> int:
        """How many workers should be active (clamped by the mechanism
        into ``[1, view.cores]``)."""
        raise NotImplementedError


# -- registry ----------------------------------------------------------------

ALLOCATORS = Registry(
    "core allocator",
    AllocationPolicy,
    RuntimeFlickError,
    first=("static",),
    title="Core-allocation policies",
    decorator="register_allocator",
    consumed_by="`RuntimeConfig(allocator=...)`; `Scenario(allocator=...)`",
)
register_allocator = ALLOCATORS.register
registered_allocators = ALLOCATORS.names
make_allocator = ALLOCATORS.make
resolve_allocator = ALLOCATORS.resolve


# -- built-in policies --------------------------------------------------------


@register_allocator
class StaticAllocator(AllocationPolicy):
    """Every core active for the whole run: each tick asks for all of
    them, so the mechanism never parks a worker or logs a change."""

    name = "static"

    def target_workers(self, view: AllocView) -> int:
        return view.cores


@register_allocator
class QueueDepthAllocator(AllocationPolicy):
    """Hysteresis on the mean backlog per active worker.

    Grow by one worker when the queued-task count per active worker
    exceeds ``high_per_worker``; shrink by one when it falls below
    ``low_per_worker``.  The watermark band is the policy-side
    hysteresis; the mechanism's cooldown bounds the change rate on top.
    """

    name = "queue-depth"

    def __init__(
        self,
        tick_us: float = 500.0,
        cooldown_us: float = 2_000.0,
        high_per_worker: float = 4.0,
        low_per_worker: float = 0.5,
    ):
        super().__init__(tick_us, cooldown_us)
        if not 0 <= low_per_worker < high_per_worker:
            raise RuntimeFlickError(
                "need 0 <= low_per_worker < high_per_worker, got "
                f"[{low_per_worker}, {high_per_worker}]"
            )
        self.high_per_worker = high_per_worker
        self.low_per_worker = low_per_worker

    def target_workers(self, view: AllocView) -> int:
        per_worker = view.queued_tasks / view.active
        if per_worker > self.high_per_worker:
            return view.active + 1
        if per_worker < self.low_per_worker:
            return view.active - 1
        return view.active
