"""CPU cost model for task execution (virtual µs).

The compiler-generated C++ of the paper becomes generated Python here,
so absolute speed is meaningless; instead every task reports abstract
*ops* (one per FLICK AST node executed, parser field/byte work) and this module
converts ops to virtual microseconds on the simulated middlebox cores.

``OP_US`` is calibrated so that the end-to-end per-request CPU cost of
the static web server (parse + compute + serialise + stack ops) lands
near the paper's measured peak (~306k requests/s on 16 cores with the
kernel stack, i.e. ~52 µs of CPU per request).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import FlickError

#: Virtual µs charged per abstract handler/parser op.
OP_US = 2.3

#: Fixed cost of dispatching one message into a task (queue pop, state).
TASK_DISPATCH_US = 0.5

#: Cost of a scheduling decision (dequeue from worker queue, bookkeeping).
SCHEDULE_US = 0.4

#: Cost to steal work from another worker's queue.
STEAL_US = 0.9

#: Cost to construct a task graph when the pre-allocated pool is empty.
GRAPH_BUILD_US = 35.0

#: Cost to reset + recycle a pooled task graph.
GRAPH_RECYCLE_US = 3.0


def ops_to_us(ops: float) -> float:
    """Convert abstract ops to virtual microseconds."""
    return ops * OP_US


@dataclass(frozen=True)
class RuntimeConfig:
    """Tunables of one FLICK platform instance.

    ``policy`` selects a scheduling policy by registry name (any name
    in :func:`repro.runtime.policy.registered_policies` — the paper's
    'cooperative', 'non_cooperative' and 'round_robin' plus the
    extensions) or is a ready :class:`~repro.runtime.policy.\
SchedulingPolicy` instance for custom parameters.  The cooperative
    quantum (section 5: "typically 10-100 µs") is the policy's own: a
    name gets its class's 50 µs default, an instance keeps its own.

    ``slo_us`` is the per-connection service-level objective: the task
    graph stamps it on every task of an accepted connection, and the
    'deadline' policy turns it into an EDF deadline at admission
    (``None`` leaves the policy's default SLO in force).
    ``service_classes`` refines that single value into per-endpoint QoS
    tiers: a :class:`~repro.runtime.qos.ServiceClassMap`, as
    :func:`~repro.runtime.qos.parse_slo_class_specs` builds it from
    specs, whose classes the task graph stamps by endpoint name (the
    same name means the same tier in every program on the platform),
    classified tasks overriding the platform-wide ``slo_us``.
    ``topology`` is a :class:`~repro.net.stackprofiles.CoreTopology`, a
    registered topology name ('uniform', 'two-socket', 'four-socket'),
    or ``None`` for the flat single-socket default; it prices
    cross-socket steals (per hop around its ring of sockets) and feeds
    the 'numa' policy's placement.

    ``allocator`` selects the elastic core-allocation policy by
    registry name (:func:`repro.runtime.allocator.registered_allocators`
    — 'static', the default, keeps every core active) or is a
    ready :class:`~repro.runtime.allocator.AllocationPolicy` instance.
    Admission control is not a platform tunable: it sits in the
    client population in front of the platform
    (:class:`~repro.workloads.arrivals.ClientPopulation`); a shed
    request never reaches the platform at all.

    ``graph_pool_size`` pre-allocates task graphs per registered
    program; a connection that finds the pool empty pays the full build
    cost.  Memory is not modelled: channels have a fixed capacity and
    input tasks stop draining their socket when downstream is full.
    """

    cores: int = 16
    policy: object = "cooperative"
    slo_us: Optional[float] = None
    service_classes: object = None
    topology: object = None
    stack: str = "kernel"
    graph_pool_size: int = 512
    allocator: object = "static"

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.slo_us is not None and self.slo_us <= 0:
            raise ValueError(f"slo_us must be positive, got {self.slo_us}")
        if self.topology is not None:
            from repro.net.stackprofiles import CoreTopology, core_topology

            if isinstance(self.topology, str):
                try:
                    core_topology(self.topology)
                except KeyError as exc:
                    raise ValueError(str(exc.args[0])) from None
            elif not isinstance(self.topology, CoreTopology):
                raise ValueError(
                    "topology must be a registered name or a CoreTopology, "
                    f"got {type(self.topology).__name__}"
                )
        # Imported lazily: this module is a leaf dependency of the
        # runtime package and must not import it at load time.
        from repro.runtime.allocator import ALLOCATORS
        from repro.runtime.policy import POLICIES
        from repro.runtime.qos import check_class_map

        # A ConfigError, which is a ValueError.
        check_class_map(self.service_classes)
        try:
            POLICIES.check(self.policy)
            ALLOCATORS.check(self.allocator)
        except FlickError as exc:
            raise ValueError(str(exc)) from None
