"""Client-side workload generation: arrival processes, protocol codecs
and the one client population.

The paper's evaluation is entirely *closed-loop* (ApacheBench-style: N
clients in lockstep, each waiting for its response before sending the
next request).  Closed-loop clients self-throttle — when the middlebox
saturates, the offered load drops with it, so overload and SLO-miss
behaviour are invisible.  The only thing that separates them from an
open loop is the rule for when the next request is offered, so one
population serves both:

* :class:`ArrivalProcess` — the *policy* side of load generation,
  mirroring the scheduler's policy/mechanism split
  (:mod:`repro.runtime.policy`): a string-keyed registry of processes
  that emit inter-arrival gaps.  ``poisson`` (memoryless), ``bursty``
  (a two-state MMPP: exponential ON/OFF dwells with arrivals only
  while ON), ``ramp`` (deterministic linear rate sweep, for capacity
  walks) and ``replay`` (an explicit timestamp trace) ship built in;
  :func:`register_arrival` adds more.
* :class:`ClientPopulation` — the *mechanism*: a pool of connections
  whose requests are offered on an arrival process's clock
  **regardless of completions** (pipelined, so a backlogged middlebox
  accumulates queueing latency instead of throttling the source — the
  regime where SLO misses become observable), or, with no arrival
  process, by the closed rule: each connection is a client that offers
  its next request when the previous one has ended.  Admission,
  failure, retry and connection-churn accounting are the same under
  both rules.

The population is protocol-agnostic: a :class:`RequestCodec` supplies
the request bytes, the response parser and the error test, as the
generated codecs do for the platform.

Latency is measured from *admission*, not from the socket write, so
connection backlog counts against the SLO exactly as a queueing model
would; under the closed rule a request is admitted when its connection
can carry it, so the two coincide.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.errors import ConfigError
from repro.core.ids import stable_hash
from repro.core.registry import Registry
from repro.core.units import rate_per_second
from repro.grammar.protocols import http
from repro.grammar.protocols import memcached as mc
from repro.net.simnet import Host
from repro.net.tcp import TcpNetwork, TcpSocket
from repro.runtime.admission import AdmissionRequest, resolve_admission
from repro.runtime.qos import DEFAULT_CLASS_NAME
from repro.sim.engine import Engine
from repro.sim.stats import IntervalSeries, LatencySeries

US_PER_S = 1_000_000.0


class ArrivalProcess:
    """Emits inter-arrival gaps (virtual µs) for an open-loop source.

    Subclasses override :meth:`gaps`; randomised processes draw from the
    ``rng`` handed in by the population so one seed reproduces the whole
    run.  A process may be finite (``replay``) — the population stops
    admitting when the iterator is exhausted.
    """

    #: Registry key; subclasses must override.
    name = "abstract"

    def gaps(self, rng: random.Random) -> Iterator[float]:
        raise NotImplementedError

    def stamps(self, rng: random.Random) -> Iterator[float]:
        """Arrival instants in µs after the source starts: the running
        sum of :meth:`gaps`, the times the arrival clock fires at."""
        now = 0.0
        for gap in self.gaps(rng):
            now += gap
            yield now

    def describe(self) -> str:
        """Human-readable parameterisation for reports."""
        return self.name


ARRIVALS = Registry(
    "arrival process",
    ArrivalProcess,
    ConfigError,
    title="Arrival processes",
    decorator="register_arrival",
    consumed_by=(
        "`ClientPopulation(arrival=...)`; `Scenario(arrival=..., "
        "arrival_params=...)`"
    ),
)
register_arrival = ARRIVALS.register
registered_arrivals = ARRIVALS.names
make_arrival = ARRIVALS.make
resolve_arrival = ARRIVALS.resolve


def _check_rate(rate_rps: float, what: str = "rate_rps") -> float:
    if rate_rps <= 0:
        raise ConfigError(f"{what} must be positive, got {rate_rps:g}")
    return float(rate_rps)


def check_class_mix(class_mix) -> tuple:
    """Validate a ``((name, weight), ...)`` class mix; empty is fine."""
    checked = []
    seen = set()
    for pair in class_mix:
        name, weight = pair
        if not name or not isinstance(name, str):
            raise ConfigError(
                f"class_mix names must be non-empty strings, got {name!r}"
            )
        if name in seen:
            raise ConfigError(f"class_mix repeats class {name!r}")
        seen.add(name)
        if weight <= 0:
            raise ConfigError(
                f"class_mix weight for {name!r} must be positive, "
                f"got {weight:g}"
            )
        checked.append((name, float(weight)))
    return tuple(checked)


@register_arrival
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate_rps`` requests/second."""

    name = "poisson"

    def __init__(self, rate_rps: float = 1_000.0):
        self.rate_rps = _check_rate(rate_rps)

    def gaps(self, rng: random.Random) -> Iterator[float]:
        mean_gap_us = US_PER_S / self.rate_rps
        while True:
            yield rng.expovariate(1.0) * mean_gap_us

    def describe(self) -> str:
        return f"poisson({self.rate_rps:g}/s)"


@register_arrival
class BurstyArrivals(ArrivalProcess):
    """Two-state MMPP: Poisson bursts at ``burst_rate_rps`` while ON.

    Dwell times in both states are exponential (means ``mean_on_us`` /
    ``mean_off_us``); no arrivals occur while OFF, so the long-run mean
    rate is ``burst_rate_rps * on_fraction`` but the instantaneous rate
    the middlebox must absorb is the full burst rate.
    """

    name = "bursty"

    def __init__(
        self,
        burst_rate_rps: float = 4_000.0,
        mean_on_us: float = 20_000.0,
        mean_off_us: float = 20_000.0,
    ):
        self.burst_rate_rps = _check_rate(burst_rate_rps, "burst_rate_rps")
        if mean_on_us <= 0 or mean_off_us <= 0:
            raise ConfigError(
                "mean_on_us and mean_off_us must be positive, got "
                f"{mean_on_us:g}/{mean_off_us:g}"
            )
        self.mean_on_us = float(mean_on_us)
        self.mean_off_us = float(mean_off_us)

    def gaps(self, rng: random.Random) -> Iterator[float]:
        mean_gap_us = US_PER_S / self.burst_rate_rps
        on_left = rng.expovariate(1.0) * self.mean_on_us
        while True:
            gap = rng.expovariate(1.0) * mean_gap_us
            # Burn through whole OFF periods the gap straddles: dwells
            # are memoryless, so drawing the next ON window afresh each
            # time an arrival would overshoot the current one is exact.
            # The ON time consumed before each OFF dwell counts toward
            # elapsed time too — dropping it would inflate the realised
            # rate above burst_rate * duty.
            elapsed = 0.0
            while gap > on_left:
                gap -= on_left
                elapsed += on_left
                elapsed += rng.expovariate(1.0) * self.mean_off_us
                on_left = rng.expovariate(1.0) * self.mean_on_us
            on_left -= gap
            yield elapsed + gap

    def describe(self) -> str:
        duty = self.mean_on_us / (self.mean_on_us + self.mean_off_us)
        return (
            f"bursty({self.burst_rate_rps:g}/s x {duty * 100:.0f}% duty)"
        )


@register_arrival
class RampArrivals(ArrivalProcess):
    """Deterministic linear rate sweep: ``start_rps`` → ``end_rps``.

    The rate ramps over ``duration_us`` of virtual time and holds at
    ``end_rps`` afterwards; gaps are the current rate's reciprocal, so
    a ramp past the service capacity walks the workload through the
    saturation knee within a single run.
    """

    name = "ramp"

    def __init__(
        self,
        start_rps: float = 500.0,
        end_rps: float = 4_000.0,
        duration_us: float = 500_000.0,
    ):
        self.start_rps = _check_rate(start_rps, "start_rps")
        self.end_rps = _check_rate(end_rps, "end_rps")
        if duration_us <= 0:
            raise ConfigError(
                f"duration_us must be positive, got {duration_us:g}"
            )
        self.duration_us = float(duration_us)

    def gaps(self, rng: random.Random) -> Iterator[float]:
        elapsed = 0.0
        slope = (self.end_rps - self.start_rps) / self.duration_us
        while True:
            if elapsed >= self.duration_us:
                rate = self.end_rps
            else:
                rate = self.start_rps + slope * elapsed
            gap = US_PER_S / rate
            elapsed += gap
            yield gap

    def describe(self) -> str:
        return (
            f"ramp({self.start_rps:g}->{self.end_rps:g}/s over "
            f"{self.duration_us / 1000.0:g}ms)"
        )


@register_arrival
class ReplayArrivals(ArrivalProcess):
    """Replay an explicit trace of absolute arrival timestamps (µs).

    The only finite process: admission stops when the trace ends.
    Timestamps must be non-decreasing (a captured trace is); the first
    arrival fires at ``timestamps_us[0]``.
    """

    name = "replay"

    def __init__(self, timestamps_us: Iterable[float] = ()):
        trace = [float(t) for t in timestamps_us]
        if not trace:
            raise ConfigError("replay needs a non-empty timestamps_us trace")
        for earlier, later in zip(trace, trace[1:]):
            if later < earlier:
                raise ConfigError(
                    f"replay trace goes backwards ({later:g} after "
                    f"{earlier:g}); timestamps must be non-decreasing"
                )
        if trace[0] < 0:
            raise ConfigError(
                f"replay trace starts before time zero ({trace[0]:g})"
            )
        self.timestamps_us = trace

    def gaps(self, rng: random.Random) -> Iterator[float]:
        previous = 0.0
        for stamp in self.timestamps_us:
            yield stamp - previous
            previous = stamp

    def stamps(self, rng: random.Random) -> Iterator[float]:
        # The trace itself: summing its gaps back can land an ulp off.
        return iter(self.timestamps_us)

    def describe(self) -> str:
        return f"replay({len(self.timestamps_us)} stamps)"


# ---------------------------------------------------------------------------
# Protocol adapters: how one admitted request goes on (and comes off) the wire
# ---------------------------------------------------------------------------


class RequestCodec:
    """Protocol adapter for the client population (one per protocol)."""

    def request_bytes(self, index: int) -> bytes:
        """Wire bytes of the ``index``-th offer on an arrival clock."""
        raise NotImplementedError

    def client_request(self, client: int, n: int, keep_alive: bool) -> bytes:
        """Wire bytes of closed-rule client ``client``'s ``n``-th request."""
        raise NotImplementedError

    def parser(self):
        """A fresh stream parser with ``feed(data)`` / ``messages()``."""
        raise NotImplementedError

    def is_error(self, message) -> bool:
        return False


class HttpRequestCodec(RequestCodec):
    """GETs against one path (the Figure-4 request shape)."""

    def __init__(self, path: str = "/index.html"):
        self.path = path
        # Requests differ only in their numbers: render one per shape
        # around NUL markers and splice the numbers in.
        self._open = self._template("r=\0", keep_alive=True)
        self._closed = {
            keep: self._template("c=\0&n=\0", keep) for keep in (False, True)
        }

    def _template(self, query: str, keep_alive: bool):
        """``GET path?query`` split at its markers: the last NULs, since
        nothing after the path holds one."""
        raw = http.make_request(
            "GET", f"{self.path}?{query}", keep_alive=keep_alive
        ).raw
        return raw.rsplit(b"\0", query.count("\0"))

    def request_bytes(self, index: int) -> bytes:
        head, tail = self._open
        return b"%s%d%s" % (head, index, tail)

    def client_request(self, client: int, n: int, keep_alive: bool) -> bytes:
        head, middle, tail = self._closed[keep_alive]
        return b"%s%d%s%d%s" % (head, client, middle, n, tail)

    def parser(self):
        return http.response_codec(("status",)).parser()

    def is_error(self, message) -> bool:
        return message._fields["status"] != 200


class MemcachedRequestCodec(RequestCodec):
    """Binary-protocol GETK over a deterministic key space (§6.2);
    memcached connections are always persistent."""

    def __init__(self, key_space: int = 10_000):
        self.key_space = key_space

    def _getk(self, bucket: int, opaque: int) -> bytes:
        key = f"key-{bucket % self.key_space:06d}"
        return mc.encode(mc.make_request(mc.OP_GETK, key, opaque=opaque))

    def request_bytes(self, index: int) -> bytes:
        return self._getk(index, index)

    def client_request(self, client: int, n: int, keep_alive: bool) -> bytes:
        return self._getk(stable_hash((client, n)), client)

    def parser(self):
        return mc.specialized_codec({"magic_code"}).parser()

    def is_error(self, message) -> bool:
        return message._fields["magic_code"] != mc.MAGIC_RESPONSE


# ---------------------------------------------------------------------------
# The client population
# ---------------------------------------------------------------------------

#: The per-class outcome columns :class:`ClientPopulation` counts.
OUTCOMES = (
    "offered", "admitted", "shed", "completed", "failed", "retried",
    "slo_misses",
)


class ClientPopulation:
    """Clients over a pool of ``connections`` (opened at :meth:`start`,
    round-robin over ``client_hosts``); the arrival rule says when each
    request is offered:

    * an ``arrival`` process offers ``n_requests`` in all on its clock,
      **regardless of completions**: the ``i``-th admitted request is
      pipelined on connection ``i % connections``, so a backlogged
      middlebox accumulates queueing latency instead of throttling the
      source;
    * ``arrival=None`` is the closed rule, the paper's ApacheBench-style
      loop (§6.2): connection ``i`` is client ``i``, which offers its
      next request, ``n_requests`` times, when its connection can carry
      it — on connect, then on the terminal outcome of the one before.
      With ``persistent=False`` each request gets its own connection,
      closed after the response; the next goes out on the reconnect
      (Figure 4c/4d).  A client's first ``warmup_requests`` completions
      are completed but not measured.

    Responses match the oldest outstanding request of their connection
    (FIFO); latency runs from admission, which under the closed rule is
    the moment the request goes on the wire.  ``slo_us`` marks a slower
    measured completion as an SLO miss.  ``admission`` (a registered
    name or an :class:`~repro.runtime.admission.AdmissionPolicy`) gates
    every offer; a shed request never reaches the wire.  ``class_mix``
    labels offers with service classes by deterministic weighted
    round-robin.  A server-side close fails what its connection had
    outstanding, and the connection reopens while there is more to
    offer (through a shard router, onto a surviving shard).  The
    ``retry-storm`` knobs (``retry_after_us`` / ``max_retries``) discard
    a late response as *retried* and re-offer the request through the
    admission door — at once on an arrival clock, as the client's next
    request under the closed rule; ``conn-churn``'s
    ``conn_lifetime_requests`` recycles a connection after that many
    responses while there is more to offer.

    Every offer ends in exactly one terminal outcome — shed, completed,
    failed or retried — counted once per class in :attr:`per_class`.
    Once the run drains, ``admitted + shed == offered`` and ``completed
    + failed + retried == admitted``, per class and in total.
    """

    def __init__(
        self,
        engine: Engine,
        tcpnet: TcpNetwork,
        client_hosts: List[Host],
        target: Host,
        port: int,
        codec: RequestCodec,
        n_requests: int,
        arrival: Optional[ArrivalProcess] = None,
        connections: int = 64,
        warmup_requests: int = 0,
        persistent: bool = True,
        seed: int = 0xF11C,
        slo_us: Optional[float] = None,
        admission="admit-all",
        class_mix=(),
        retry_after_us: Optional[float] = None,
        max_retries: int = 0,
        conn_lifetime_requests: Optional[int] = None,
    ):
        if n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if connections < 1:
            raise ValueError("connections must be >= 1")
        if not persistent and arrival is not None:
            raise ValueError("persistent=False is part of the closed rule")
        if retry_after_us is not None and retry_after_us <= 0:
            raise ValueError(
                f"retry_after_us must be positive, got {retry_after_us}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if max_retries > 0 and retry_after_us is None:
            raise ValueError("max_retries needs retry_after_us")
        if conn_lifetime_requests is not None and conn_lifetime_requests < 1:
            raise ValueError(
                "conn_lifetime_requests must be >= 1, got "
                f"{conn_lifetime_requests}"
            )
        self.engine = engine
        self.tcpnet = tcpnet
        self.client_hosts = client_hosts
        self.target = target
        self.port = port
        self.codec = codec
        self.n_requests = n_requests
        self.arrival = arrival
        self.connections = connections
        self.warmup_requests = warmup_requests
        self.persistent = persistent
        self.rng = random.Random(seed)
        self.slo_us = slo_us
        self.admission = resolve_admission(admission)
        self.class_mix = check_class_mix(class_mix)
        self.retry_after_us = retry_after_us
        self.max_retries = max_retries
        self.conn_lifetime_requests = conn_lifetime_requests
        self.latency = LatencySeries()
        self.inter_arrivals = IntervalSeries()
        #: Throughput runs from start to the last completion.
        self._started_us = 0.0
        self._last_completion_us = 0.0
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.failed = 0
        self.retried = 0
        self.conn_cycles = 0
        self.errors = 0
        self.slo_misses = 0
        #: Class name → its row of :data:`OUTCOMES` counts, in order of
        #: first offer.
        self.per_class: Dict[str, Dict[str, int]] = {}
        self._classes = self._class_cycle()
        self._conns: List[_Connection] = []
        #: Arrival-clock ticks so far, and whether the clock has stopped.
        self._arrivals = 0
        self._admission_closed = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._conns:
            raise RuntimeError("population already started")
        self._started_us = self.engine.now
        for index in range(self.connections):
            host = self.client_hosts[index % len(self.client_hosts)]
            conn = _Connection(self, index, host)
            self._conns.append(conn)
            conn.open()
        if self.arrival is not None:
            stamps = iter(self.arrival.stamps(self.rng))
            self.engine.schedule(0.0, self._tick, stamps, False)

    def _class_cycle(self) -> Iterator[str]:
        """Deterministic weighted round-robin over ``class_mix`` names.

        Credit-based WRR: every step adds each class's weight to its
        credit, the richest class (first listed on ties) wins and pays
        the total weight back — so any weight ratio is realised exactly
        over a cycle, with no RNG draw that could perturb the arrival
        process stream.
        """
        if not self.class_mix:
            while True:
                yield DEFAULT_CLASS_NAME
        names = [name for name, _ in self.class_mix]
        weights = [weight for _, weight in self.class_mix]
        total = sum(weights)
        credits = [0.0] * len(names)
        while True:
            best = 0
            for i, weight in enumerate(weights):
                credits[i] += weight
                if credits[i] > credits[best]:
                    best = i
            credits[best] -= total
            yield names[best]

    def _tick(self, stamps: Iterator[float], due: bool) -> None:
        """One arrival-clock tick, an engine callback: offer the arrival
        that is ``due``, then each one stamped no later than now, and
        file the next tick at the next later stamp."""
        if due:
            self._arrive()
        now = self.engine.now
        for stamp in stamps:
            # Count arrival-clock ticks, not offers: retry re-offers
            # inflate ``offered`` and must not cut the arrival stream
            # short of ``n_requests``.
            if self._arrivals >= self.n_requests:
                break
            when = self._started_us + stamp
            if when > now:
                self.engine.at(when, self._tick, stamps, True)
                return
            self._arrive()
        self._admission_closed = True

    def _arrive(self) -> None:
        self._arrivals += 1
        self.inter_arrivals.observe(self.engine.now)
        self._offer(next(self._classes))

    def _offer(
        self,
        service_class: str,
        attempt: int = 0,
        conn: Optional["_Connection"] = None,
        n: int = 0,
    ) -> None:
        """One request through the admission door: an arrival or its
        retry, or under the closed rule client ``conn``'s ``n``-th
        request."""
        index = self.offered
        request = AdmissionRequest(
            service_class,
            self.admitted - self.completed - self.failed - self.retried,
        )
        self.offered += 1
        row = self.per_class.get(service_class)
        if row is None:
            row = self.per_class[service_class] = dict.fromkeys(OUTCOMES, 0)
        row["offered"] += 1
        if not self.admission.admit(request):
            self.shed += 1
            row["shed"] += 1
            return
        slot = self.admitted
        self.admitted += 1
        row["admitted"] += 1
        if conn is None:
            conn = self._conns[slot % self.connections]
            payload = self.codec.request_bytes(index)
        else:
            payload = self.codec.client_request(conn.index, n, self.persistent)
        conn.admit(payload, (self.engine.now, service_class, attempt, n))

    # -- completion accounting ----------------------------------------------

    def _on_response(
        self, conn: "_Connection", request: tuple, message
    ) -> None:
        admitted_us, service_class, attempt, n = request
        latency = self.engine.now - admitted_us
        row = self.per_class[service_class]
        if (
            self.retry_after_us is not None
            and latency > self.retry_after_us
            and attempt < self.max_retries
        ):
            # Impatient client: the response is discarded (not a
            # completion, not a latency sample) and the request goes
            # back through the admission door — the metastable loop.
            self.retried += 1
            row["retried"] += 1
            if self.arrival is None:
                conn.retry = (service_class, attempt + 1, n)
            else:
                self._offer(service_class, attempt + 1)
            return
        self.completed += 1
        row["completed"] += 1
        if self.codec.is_error(message):
            self.errors += 1
        self._last_completion_us = self.engine.now
        conn.completions += 1
        if conn.completions <= self.warmup_requests:
            return
        self.latency.record(latency)
        if self.slo_us is not None and latency > self.slo_us:
            self.slo_misses += 1
            row["slo_misses"] += 1

    @property
    def finished(self) -> bool:
        """No connection has a request left to offer, and every admitted
        request saw a response, a dead connection, or an impatient retry
        (which re-offered it — the chain is counted attempt by attempt).
        The arrival clock may offer fewer than ``n_requests`` — ``replay``
        is finite."""
        return (
            bool(self._conns)
            and not any(conn.offering for conn in self._conns)
            and self.completed + self.failed + self.retried == self.admitted
        )

    def admission_summary(self) -> Dict[str, Dict[str, float]]:
        """Client-side per-class admission outcome (plain numbers).

        Every class that offered anything appears; ``admitted + shed``
        equals ``offered`` always, and ``completed + failed + retried``
        equals ``admitted`` once the run has drained (in-flight
        requests are admitted but not yet resolved).
        """
        return {name: dict(row) for name, row in self.per_class.items()}

    # -- results -------------------------------------------------------------

    def kreqs_per_sec(self) -> float:
        """Measured completions per virtual second, in thousands."""
        duration_us = max(self._last_completion_us - self._started_us, 0.0)
        return rate_per_second(self.latency.count, duration_us) / 1_000.0


class _Connection:
    """One client connection: pipelined sends, FIFO response match.
    Under the closed rule it is also client ``index``, which offers its
    next request whenever the connection can carry it."""

    def __init__(self, pop: ClientPopulation, index: int, host: Host):
        self.pop = pop
        self.index = index
        self.host = host
        self.socket: Optional[TcpSocket] = None
        self.parser = pop.codec.parser()
        #: (admitted_us, service_class, attempt, n) of requests in flight
        #: (or queued behind the connect), oldest first.
        self.outstanding: deque = deque()
        #: Requests admitted before the connect completed: ``()`` while
        #: none waits, a deque only between an offer and the connect.
        self._backlog = ()
        self._connecting = False
        #: Responses drained since the last (re)connect — the
        #: ``conn-churn`` recycle clock.
        self._served = 0
        #: Closed rule: the client's requests taken so far, its
        #: completions (the warm-up clock), and a retried request
        #: waiting to be re-offered as ``(service_class, attempt, n)``.
        self.taken = 0
        self.completions = 0
        self.retry: Optional[tuple] = None

    @property
    def offering(self) -> bool:
        """Whether a request is still to be offered through this
        connection."""
        if self.pop.arrival is not None:
            return not self.pop._admission_closed
        return self.retry is not None or self.taken < self.pop.n_requests

    def open(self) -> None:
        self._connecting = True

        def connected(socket: TcpSocket) -> None:
            self._connecting = False
            self.socket = socket
            socket.on_receive(self._on_data)
            socket.on_close(lambda: self._on_peer_close(socket))
            while self._backlog and not socket.closed:
                self.socket.send(self._backlog.popleft())
            if not self._backlog:
                self._backlog = ()
            if self.pop.arrival is None:
                self._next()

        self.pop.tcpnet.connect(
            self.host, self.pop.target, self.pop.port, connected
        )

    def _next(self) -> None:
        """Closed rule: offer the client's next request — a retry
        waiting, else a fresh one — until one is admitted or none is
        left.  A shed is a terminal outcome too, so the loop moves on."""
        pop = self.pop
        while not self.outstanding and self.offering:
            if self.retry is not None:
                (service_class, attempt, n), self.retry = self.retry, None
            else:
                service_class, attempt, n = next(pop._classes), 0, self.taken
                self.taken += 1
            pop._offer(service_class, attempt, self, n)

    def admit(self, payload: bytes, request: tuple) -> None:
        self.outstanding.append(request)
        if self.socket is None:
            if not self._backlog:
                self._backlog = deque()
            self._backlog.append(payload)
            # A retry can land on a connection that died after admission
            # closed (no auto-reconnect then) — reopen on demand or the
            # backlog would never flush.
            if not self._connecting:
                self.open()
        else:
            self.socket.send(payload)

    def _on_data(self, data: bytes) -> None:
        self.parser.feed(data)
        for message in self.parser.messages():
            self.pop._on_response(self, self.outstanding.popleft(), message)
            self._served += 1
        self._advance()

    def _on_peer_close(self, socket: TcpSocket) -> None:
        """Server-side EOF: write off the in-flight window and move on.

        Requests already on the wire are gone — any response would have
        arrived before the EOF (the simulated NIC delivers in order) —
        so everything outstanding is failed, not retried: a client never
        re-offers on its own (only the ``retry-storm`` injector
        re-offers, and then only on a late *response*).
        """
        if socket is not self.socket:
            return  # stale close of an already-replaced connection
        pop = self.pop
        self.socket = None
        if not socket.closed:
            socket.close()
        self._backlog = ()
        for _, service_class, _, _ in self.outstanding:
            pop.failed += 1
            pop.per_class[service_class]["failed"] += 1
        self.outstanding.clear()
        self.parser = pop.codec.parser()
        self._served = 0
        self._advance()

    def _advance(self) -> None:
        """After terminal outcomes: close a connection past its lifetime
        (one request without ``persistent``), reopen one while there is
        more to offer, and under the closed rule offer the next request
        on a connection that can carry it."""
        pop = self.pop
        lifetime = pop.conn_lifetime_requests if pop.persistent else 1
        if (
            self.socket is not None
            and not self.outstanding
            and lifetime is not None
            and self._served >= lifetime
            and (self.offering or not pop.persistent)
        ):
            socket, self.socket = self.socket, None
            self.parser = pop.codec.parser()
            self._served = 0
            pop.conn_cycles += 1
            if not socket.closed:
                socket.close()
        if self.socket is None:
            if self.offering and not self._connecting:
                self.open()
        elif pop.arrival is None:
            self._next()
