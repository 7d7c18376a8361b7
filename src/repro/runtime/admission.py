"""Per-service-class admission control: shed load before it queues.

The second overload-survival policy plane (the first is
:mod:`repro.runtime.allocator`): string-keyed *admission policies* that
decide, request by request, whether a client admits a request into
the platform or **sheds** it at the door.
Shedding is a first-class per-class outcome — every shed is counted
once, by the workload generator, and the testbed joins that count to
the platform's completions and SLO misses in ``class_stats``, the
bench report tables and ``BENCH_scenarios.json``.

The mechanism half lives in
:class:`~repro.workloads.arrivals.ClientPopulation`: for each offer (an
arrival, a retry, or a closed-rule client's next request) it builds an
:class:`AdmissionRequest` snapshot and asks the policy's
``admit(request)``; a ``False`` answer drops the request before any
bytes hit the simulated network, so shed requests cost the platform
nothing — exactly the point of admission control.  The policy is
therefore chosen where the population is built (the testbeds'
``admission=`` argument), not in the platform's ``RuntimeConfig``.

Two policies ship built in: ``admit-all`` (today's behaviour, the
default) and ``shed-bronze`` (threshold shedding: above an in-flight
watermark only protected classes get in; the ``http-overload-shed``
and ``http-retry-storm-shed`` scenarios pin it).  Unknown names get
near-miss suggestions, mirroring :mod:`repro.runtime.policy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.errors import RuntimeFlickError
from repro.core.registry import Registry


@dataclass(frozen=True)
class AdmissionRequest:
    """What an admission policy may observe for one arriving request.

    ``inflight`` counts requests admitted but not yet completed across
    the whole workload (the client-visible congestion signal).
    """

    service_class: str
    inflight: int


class AdmissionPolicy:
    """Base class; subclasses override :meth:`admit`."""

    #: Registry key; subclasses must override.
    name = "abstract"

    def admit(self, request: AdmissionRequest) -> bool:
        """Whether this arrival enters the platform (``False`` = shed)."""
        raise NotImplementedError


# -- registry ----------------------------------------------------------------

ADMISSIONS = Registry(
    "admission policy",
    AdmissionPolicy,
    RuntimeFlickError,
    first=("admit-all",),
    title="Admission-control policies",
    decorator="register_admission",
    consumed_by="`ClientPopulation(admission=...)` via `Scenario(admission=...)`",
)
register_admission = ADMISSIONS.register
registered_admissions = ADMISSIONS.names
make_admission = ADMISSIONS.make
resolve_admission = ADMISSIONS.resolve


# -- built-in policies --------------------------------------------------------


@register_admission
class AdmitAll(AdmissionPolicy):
    """Today's behaviour: every arrival is admitted."""

    name = "admit-all"

    def admit(self, request: AdmissionRequest) -> bool:
        return True


@register_admission
class ShedBronze(AdmissionPolicy):
    """Threshold shedding that protects the premium classes.

    While the in-flight count sits at or below ``max_inflight`` every
    arrival gets in; above it, only the ``protect`` classes are
    admitted and the rest are shed.  The watermark is the knob that
    turns an open-loop SLO collapse into bounded premium-class misses:
    unprotected (bronze) arrivals stop adding queueing delay the moment
    the platform saturates.
    """

    name = "shed-bronze"

    def __init__(
        self,
        max_inflight: int = 192,
        protect: Tuple[str, ...] = ("gold",),
    ):
        if max_inflight < 1:
            raise RuntimeFlickError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if not protect:
            raise RuntimeFlickError(
                "shed-bronze needs at least one protected class"
            )
        self.max_inflight = max_inflight
        self.protect = tuple(protect)

    def admit(self, request: AdmissionRequest) -> bool:
        if request.inflight < self.max_inflight:
            return True
        return request.service_class in self.protect
