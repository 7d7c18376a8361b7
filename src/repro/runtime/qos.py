"""Service-class QoS model: per-endpoint SLOs and scheduling weights.

The paper's runtime exists to give application-specific network services
predictable latency, but a single platform-wide ``slo_us`` cannot say
"gold traffic gets 1 ms, bronze gets 50 ms" on one shared middlebox.  A
:class:`ServiceClass` names one QoS tier (an SLO in virtual µs plus a
scheduling weight); a :class:`ServiceClassMap` assigns tiers to channel
endpoints by name — two programs on one platform that need different
tiers give their endpoints different names — and is threaded
``RuntimeConfig(service_classes=...)`` →
:class:`~repro.runtime.platform.FlickPlatform` →
:class:`~repro.runtime.graph.TaskGraph`, which stamps every connection
task with its endpoint's class (``task.service_class`` and
``task.slo_us``), falling back to the platform-wide ``slo_us`` for
unclassified endpoints.

Consumers:

* the ``deadline`` policy turns each class SLO into a per-class EDF
  deadline and slack-scaled budget;
* the ``priority`` policy divides its observed-cost score by the class
  weight, so heavier classes are picked first at equal cost;
* the scheduler's :class:`~repro.sim.stats.SloScoreboard` logs each
  task's busy period under its class, and
  :func:`~repro.sim.stats.class_summary` turns the log into the
  per-class completions, latency and SLO misses of the bench report.

A map has one spelling: specs ``endpoint=[name:]slo_us[@weight]``
(``Scenario.service_classes``, the four-socket Figure 7 row), which
:func:`parse_slo_class_specs` parses into a map, rejecting malformed
specs with near-miss suggestions in the same style as unknown policy
names.  ``RuntimeConfig`` and ``run_scheduling_experiment`` take the
parsed map (or ``None``) and reject anything else
(:func:`check_class_map`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.core.errors import ConfigError
from repro.core.registry import closest_name

#: Class name used for accounting when a task carries no service class.
DEFAULT_CLASS_NAME = "default"


@dataclass(frozen=True)
class ServiceClass:
    """One QoS tier: a latency target and a scheduling weight.

    ``slo_us`` is the per-connection service-level objective in virtual
    µs (the EDF deadline budget); ``weight`` biases weighted policies —
    a weight-4 class is picked ahead of a weight-1 class at equal
    observed cost.
    """

    name: str
    slo_us: float
    weight: float = 1.0

    def __post_init__(self):
        if not self.name or not str(self.name).strip():
            raise ConfigError("service class needs a non-empty name")
        if not isinstance(self.slo_us, (int, float)) or self.slo_us <= 0:
            raise ConfigError(
                f"service class {self.name!r} needs a positive SLO, "
                f"got {self.slo_us!r}"
            )
        if not isinstance(self.weight, (int, float)) or self.weight <= 0:
            raise ConfigError(
                f"service class {self.name!r} needs a positive weight, "
                f"got {self.weight!r}"
            )


class ServiceClassMap:
    """Endpoint name → :class:`ServiceClass`.

    Built from specs by :func:`parse_slo_class_specs`, the one spelling
    of a class map.  An endpoint name means one tier in every program
    on the platform.  One class *name* may serve many endpoints, but
    only with one definition: re-declaring ``gold`` with a different SLO
    or weight is rejected, so a class means the same thing wherever it
    appears.
    """

    def __init__(self):
        self._by_endpoint: Dict[str, ServiceClass] = {}
        self._by_name: Dict[str, ServiceClass] = {}

    def assign(self, endpoint: str, service_class: ServiceClass) -> None:
        """Bind ``endpoint`` to ``service_class``."""
        if endpoint in self._by_endpoint:
            raise ConfigError(
                f"endpoint {endpoint!r} already has service class "
                f"{self._by_endpoint[endpoint].name!r}; each endpoint "
                "maps to exactly one class"
            )
        known = self._by_name.get(service_class.name)
        if known is not None and known != service_class:
            raise ConfigError(
                f"service class {service_class.name!r} defined twice "
                f"with different parameters: slo_us={known.slo_us}/"
                f"weight={known.weight} vs slo_us={service_class.slo_us}/"
                f"weight={service_class.weight}"
            )
        self._by_endpoint[endpoint] = service_class
        self._by_name[service_class.name] = service_class

    def class_for(self, endpoint: Optional[str]) -> Optional[ServiceClass]:
        """The class bound to ``endpoint``; ``None`` when unclassified."""
        return self._by_endpoint.get(endpoint)

    def __iter__(self) -> Iterator[Tuple[str, ServiceClass]]:
        return iter(self._by_endpoint.items())

    def __len__(self) -> int:
        return len(self._by_endpoint)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = ", ".join(
            f"{ep}={sc.name}:{sc.slo_us:g}@{sc.weight:g}"
            for ep, sc in self._by_endpoint.items()
        )
        return f"<ServiceClassMap {entries}>"


def check_class_map(service_classes) -> None:
    """Reject anything but a :class:`ServiceClassMap` or ``None``: a map
    has one spelling, the specs :func:`parse_slo_class_specs` parses."""
    if service_classes is not None and not isinstance(
        service_classes, ServiceClassMap
    ):
        raise ConfigError(
            "service_classes takes a ServiceClassMap built by "
            "parse_slo_class_specs from endpoint=[name:]slo_us[@weight] "
            f"specs, or None; got {type(service_classes).__name__}"
        )


# -- Spec parsing -------------------------------------------------------------


def parse_slo_class(
    spec: str, valid_endpoints: Optional[Sequence[str]] = None
) -> Tuple[str, ServiceClass]:
    """Parse one ``endpoint=[name:]slo_us[@weight]`` spec.

    ``gold=1000`` binds endpoint ``gold`` to a 1000 µs class named after
    it; ``client=gold:1000@4`` names the class explicitly and gives it
    weight 4.  ``valid_endpoints``, when given, rejects unknown
    endpoints with a near-miss suggestion.
    """
    if "=" not in spec:
        raise ConfigError(
            f"malformed service class spec {spec!r}; expected "
            "endpoint=[name:]slo_us[@weight] (e.g. gold=1000 or "
            "client=gold:1000@4)"
        )
    endpoint, _, rest = spec.partition("=")
    endpoint = endpoint.strip()
    if not endpoint:
        raise ConfigError(
            f"malformed service class spec {spec!r}: empty endpoint name"
        )
    if ":" in endpoint:
        raise ConfigError(
            f"malformed service class spec {spec!r}: endpoint {endpoint!r} "
            "is not an endpoint name; a spec names the bare endpoint, "
            "endpoint=[name:]slo_us[@weight]"
        )
    if valid_endpoints is not None and endpoint not in valid_endpoints:
        message = (
            f"unknown endpoint {endpoint!r} in service class spec {spec!r}; "
            f"valid endpoints: {', '.join(sorted(valid_endpoints))}"
        )
        suggestion = closest_name(endpoint, valid_endpoints)
        if suggestion is not None:
            message += f"; did you mean {suggestion!r}?"
        raise ConfigError(message)
    rest, _, weight_text = rest.partition("@")
    name, sep, slo_text = rest.partition(":")
    if not sep:
        name, slo_text = endpoint, rest
    name = name.strip()
    try:
        slo_us = float(slo_text)
    except ValueError:
        raise ConfigError(
            f"malformed service class spec {spec!r}: SLO {slo_text.strip()!r} "
            "is not a number of µs"
        ) from None
    weight = 1.0
    if weight_text:
        try:
            weight = float(weight_text)
        except ValueError:
            raise ConfigError(
                f"malformed service class spec {spec!r}: weight "
                f"{weight_text.strip()!r} is not a number"
            ) from None
    try:
        service_class = ServiceClass(name=name, slo_us=slo_us, weight=weight)
    except ConfigError as exc:
        raise ConfigError(
            f"malformed service class spec {spec!r}: {exc}"
        ) from None
    return endpoint, service_class


def parse_slo_class_specs(
    specs: Sequence[str], valid_endpoints: Optional[Sequence[str]] = None
) -> ServiceClassMap:
    """Parse ``endpoint=[name:]slo_us[@weight]`` specs into a validated map.

    Duplicate endpoints and conflicting re-definitions of one class name
    are rejected by :class:`ServiceClassMap` with the same clear-error
    style as malformed individual specs.
    """
    class_map = ServiceClassMap()
    for spec in specs:
        endpoint, service_class = parse_slo_class(spec, valid_endpoints)
        class_map.assign(endpoint, service_class)
    return class_map
