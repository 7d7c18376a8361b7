"""Deterministic fault injection: adversarial conditions as a policy plane.

The scenario matrix only becomes interesting when traffic turns hostile
— the QoS/admission registries exist to make policies *differ*, and
well-behaved load never separates them.  This module supplies the sixth
string-keyed registry, :class:`FaultPolicy`, mirroring the scheduling /
allocation / admission / routing / arrival discipline (near-miss
errors, ``make_*`` / ``resolve_*`` constructors).  Four injectors ship
built in:

* ``slow-backend`` — service-time inflation windows: backend service
  time is multiplied by ``factor`` during periodic windows, a pure
  function of the virtual clock (no scheduled events), so the injector
  adds zero entries to the event calendar.
* ``flapping-backend`` — a backend goes down and comes back on an
  engine-clock schedule; going down resets every accepted connection
  through the normal :mod:`repro.net.tcp` close path, and connects
  accepted while down are reset immediately.
* ``conn-churn`` — clients recycle each connection after a fixed
  number of responses, so TCP handshakes and task-graph builds
  dominate the accept path (the paper's non-persistent regime, made
  continuous).
* ``retry-storm`` — impatient clients re-offer a request whose
  response exceeded ``retry_after_us``.  Re-offers go back
  through the admission door, closing the metastable feedback loop:
  ``admit-all`` amplifies overload with every round trip, while a
  shedding policy breaks the loop at the door.

Every injector is scheduled on the virtual clock and seeded state only
— runs stay byte-deterministic, and the parallel scenario runner
(``--jobs N``) stays byte-identical to serial.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.errors import ConfigError
from repro.core.registry import Registry


class FaultPolicy:
    """Base class for fault injectors; subclasses override the hooks.

    A fault participates at up to three points of a testbed run:

    * :meth:`population_kwargs` — extra constructor keywords for the
      client population, under either arrival rule (client-side
      faults: churn, retries);
    * :meth:`install` — engine-clock schedules and mechanism hooks on
      the backend servers (server-side faults: slowdowns, flaps);
    * :meth:`counters` — injected-fault accounting for the results
      document, read after the run drains: measured numbers only, none
      the entry holds elsewhere (a ``params`` value, ``retried``).

    ``needs_backends`` marks injectors that are meaningless without
    backend servers behind the middlebox (testbeds reject the
    combination instead of silently dropping it).
    """

    #: Registry key; subclasses must override.
    name = "abstract"
    #: Whether the injector requires backend servers behind the platform.
    needs_backends = False

    def population_kwargs(self) -> dict:
        """Extra ``ClientPopulation`` keywords this fault configures."""
        return {}

    def install(self, engine, backends) -> None:
        """Hook engine-clock schedules into the backend servers."""

    def counters(self, population=None) -> Dict[str, int]:
        """The ``counters`` of the entry's ``faults`` section."""
        return {}

    def params(self) -> Dict[str, object]:
        """JSON-ready parameterisation (mirrors the constructor)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.name!r}>"


# -- registry ----------------------------------------------------------------

FAULTS = Registry(
    "fault policy",
    FaultPolicy,
    ConfigError,
    title="Fault injectors",
    decorator="register_fault",
    consumed_by="`Scenario(faults=..., fault_params=...)`",
)
register_fault = FAULTS.register
registered_faults = FAULTS.names
make_fault = FAULTS.make
resolve_fault = FAULTS.resolve


# -- built-in injectors -------------------------------------------------------


@register_fault
class SlowBackend(FaultPolicy):
    """Service-time inflation windows on the backend servers.

    During the first ``duty`` fraction of every ``period_us`` window the
    affected backends' service time is multiplied by ``factor``; outside
    the window service is nominal.  The multiplier is a pure function of
    the virtual clock sampled when the backend schedules its response,
    so the injector is event-free and trivially deterministic.
    ``targets`` limits the slowdown to the first N backends (``None`` =
    all of them) — a partial brown-out, where only flows hashed onto a
    slow backend feel it.
    """

    name = "slow-backend"
    needs_backends = True

    def __init__(
        self,
        factor: float = 8.0,
        period_us: float = 20_000.0,
        duty: float = 0.5,
        targets: Optional[int] = None,
    ):
        if factor <= 1.0:
            raise ConfigError(
                f"slow-backend factor must be > 1, got {factor:g}"
            )
        if period_us <= 0:
            raise ConfigError(
                f"slow-backend period_us must be positive, got {period_us:g}"
            )
        if not 0.0 < duty <= 1.0:
            raise ConfigError(
                f"slow-backend duty must be in (0, 1], got {duty:g}"
            )
        if targets is not None and targets < 1:
            raise ConfigError(
                f"slow-backend targets must be >= 1, got {targets}"
            )
        self.factor = float(factor)
        self.period_us = float(period_us)
        self.duty = float(duty)
        self.targets = targets

    def _scale(self, now_us: float) -> float:
        if (now_us % self.period_us) < self.duty * self.period_us:
            return self.factor
        return 1.0

    def install(self, engine, backends) -> None:
        count = len(backends) if self.targets is None else self.targets
        self._slowed = backends[:count]
        for backend in self._slowed:
            backend.service_scale = self._scale

    def counters(self, population=None) -> Dict[str, int]:
        inflated = sum(
            backend.inflated_responses
            for backend in getattr(self, "_slowed", ())
        )
        return {"inflated_responses": inflated}

    def params(self) -> Dict[str, object]:
        return {
            "factor": self.factor,
            "period_us": self.period_us,
            "duty": self.duty,
            "targets": self.targets,
        }


@register_fault
class FlappingBackend(FaultPolicy):
    """Periodic backend up/down cycles with connection resets.

    The first ``targets`` backends go down at ``first_down_us`` and
    every ``period_us`` after that, for ``downtime_us`` each time, over
    ``cycles`` cycles (a bounded schedule — the event calendar must
    drain for the run to finish).  Going down closes every accepted
    connection through the normal TCP close path and connects accepted
    while down are reset immediately.  A reset is a backend EOF, so the
    platform's one close ends the client connection after writing what
    the backend sent before it; the client fails its in-flight window
    and reconnects.
    """

    name = "flapping-backend"
    needs_backends = True

    def __init__(
        self,
        first_down_us: float = 10_000.0,
        downtime_us: float = 5_000.0,
        period_us: float = 20_000.0,
        cycles: int = 2,
        targets: int = 1,
    ):
        if first_down_us <= 0:
            raise ConfigError(
                "flapping-backend first_down_us must be positive, "
                f"got {first_down_us:g}"
            )
        if downtime_us <= 0:
            raise ConfigError(
                "flapping-backend downtime_us must be positive, "
                f"got {downtime_us:g}"
            )
        if period_us <= downtime_us:
            raise ConfigError(
                "flapping-backend period_us must exceed downtime_us, "
                f"got period={period_us:g} downtime={downtime_us:g}"
            )
        if cycles < 1:
            raise ConfigError(
                f"flapping-backend cycles must be >= 1, got {cycles}"
            )
        if targets < 1:
            raise ConfigError(
                f"flapping-backend targets must be >= 1, got {targets}"
            )
        self.first_down_us = float(first_down_us)
        self.downtime_us = float(downtime_us)
        self.period_us = float(period_us)
        self.cycles = cycles
        self.targets = targets

    def install(self, engine, backends) -> None:
        flapping = backends[: self.targets]
        for cycle in range(self.cycles):
            down_at = self.first_down_us + cycle * self.period_us
            up_at = down_at + self.downtime_us
            for backend in flapping:
                engine.at(down_at, backend.set_up, False)
                engine.at(up_at, backend.set_up, True)
        self._flapping = flapping

    def counters(self, population=None) -> Dict[str, int]:
        resets = sum(
            backend.connections_reset
            for backend in getattr(self, "_flapping", ())
        )
        return {"backend_resets": resets}

    def params(self) -> Dict[str, object]:
        return {
            "first_down_us": self.first_down_us,
            "downtime_us": self.downtime_us,
            "period_us": self.period_us,
            "cycles": self.cycles,
            "targets": self.targets,
        }


@register_fault
class ConnChurn(FaultPolicy):
    """Short-lived client connections: recycle after N responses.

    Each client connection closes itself once it has drained
    ``lifetime_requests`` responses and, while there is more to offer,
    reconnects, so TCP handshakes and per-connection task-graph builds
    dominate the accept path — the paper's non-persistent regime
    (§6.3), made continuous instead of one-shot.  Under the closed rule
    the client's next request goes out on the reconnect.
    """

    name = "conn-churn"

    def __init__(self, lifetime_requests: int = 16):
        if lifetime_requests < 1:
            raise ConfigError(
                "conn-churn lifetime_requests must be >= 1, "
                f"got {lifetime_requests}"
            )
        self.lifetime_requests = lifetime_requests

    def population_kwargs(self) -> dict:
        return {"conn_lifetime_requests": self.lifetime_requests}

    def counters(self, population=None) -> Dict[str, int]:
        cycles = 0 if population is None else population.conn_cycles
        return {"conn_cycles": cycles}

    def params(self) -> Dict[str, object]:
        return {"lifetime_requests": self.lifetime_requests}


@register_fault
class RetryStorm(FaultPolicy):
    """Impatient clients: re-offer any response slower than the budget.

    A response that took longer than ``retry_after_us`` is discarded
    (never a completion, never a latency sample) and the request is
    re-offered through the full admission path, up to ``max_retries``
    times per original request: at once on an arrival clock, as the
    client's next request under the closed rule.  The entry's
    ``retried`` counts them; the injector counts nothing of its own.
    Above saturation this is the metastable feedback loop: every late
    response adds offered load, which makes more responses late.
    ``admit-all`` lets the loop run (goodput collapses); a shedding
    admission policy breaks it at the door, because re-offers are
    subject to shedding exactly like fresh arrivals.
    """

    name = "retry-storm"

    def __init__(
        self, retry_after_us: float = 2_000.0, max_retries: int = 3
    ):
        if retry_after_us <= 0:
            raise ConfigError(
                "retry-storm retry_after_us must be positive, "
                f"got {retry_after_us:g}"
            )
        if max_retries < 1:
            raise ConfigError(
                f"retry-storm max_retries must be >= 1, got {max_retries}"
            )
        self.retry_after_us = float(retry_after_us)
        self.max_retries = max_retries

    def population_kwargs(self) -> dict:
        return {
            "retry_after_us": self.retry_after_us,
            "max_retries": self.max_retries,
        }

    def params(self) -> Dict[str, object]:
        return {
            "retry_after_us": self.retry_after_us,
            "max_retries": self.max_retries,
        }
