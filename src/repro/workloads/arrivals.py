"""Client-side workload generation: arrival processes, protocol codecs
and the two client populations.

The paper's evaluation is entirely *closed-loop* (ApacheBench-style: N
clients in lockstep, each waiting for its response before sending the
next request; :class:`ClosedLoopClients`).  Closed-loop clients
self-throttle — when the middlebox saturates, the offered load drops
with it, so overload and SLO-miss behaviour are invisible.  This module
also supplies the missing half:

* :class:`ArrivalProcess` — the *policy* side of load generation,
  mirroring the scheduler's policy/mechanism split
  (:mod:`repro.runtime.policy`): a string-keyed registry of processes
  that emit inter-arrival gaps.  ``poisson`` (memoryless), ``bursty``
  (a two-state MMPP: exponential ON/OFF dwells with arrivals only
  while ON), ``ramp`` (deterministic linear rate sweep, for capacity
  walks) and ``replay`` (an explicit timestamp trace) ship built in;
  :func:`register_arrival` adds more.
* :class:`OpenLoopClients` — the *mechanism*: a client population that
  admits one request per arrival-clock tick **regardless of
  completions**.  Requests are sprayed round-robin over a fixed pool of
  persistent connections and pipelined, so a backlogged middlebox
  accumulates queueing latency instead of throttling the source — the
  regime where SLO misses become observable.

Both populations are protocol-agnostic: a :class:`RequestCodec`
supplies the request bytes, the response parser, the error test and
the response size, as the generated codecs do for the platform.

Open-loop latency is measured from *admission* (the arrival tick), not
from the socket write, so connection backlog counts against the SLO
exactly as a queueing model would.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.errors import ConfigError
from repro.core.ids import stable_hash
from repro.core.registry import Registry
from repro.grammar.protocols import http
from repro.grammar.protocols import memcached as mc
from repro.net.simnet import Host
from repro.net.tcp import TcpNetwork, TcpSocket
from repro.runtime.admission import AdmissionRequest, resolve_admission
from repro.runtime.qos import DEFAULT_CLASS_NAME
from repro.sim.engine import Engine, Timeout
from repro.sim.stats import IntervalSeries, LatencySeries, Meter

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
        "`OpenLoopClients(arrival=...)`; `Scenario(arrival=..., "
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

    def describe(self) -> str:
        return f"replay({len(self.timestamps_us)} stamps)"


# ---------------------------------------------------------------------------
# Protocol adapters: how one admitted request goes on (and comes off) the wire
# ---------------------------------------------------------------------------


class RequestCodec:
    """Protocol adapter for the client populations (one per protocol)."""

    def request_bytes(self, index: int) -> bytes:
        """Wire bytes of the ``index``-th open-loop admission."""
        raise NotImplementedError

    def client_request(self, client: int, n: int, keep_alive: bool) -> bytes:
        """Wire bytes of closed-loop client ``client``'s ``n``-th request."""
        raise NotImplementedError

    def parser(self):
        """A fresh stream parser with ``feed(data)`` / ``messages()``."""
        raise NotImplementedError

    def is_error(self, message) -> bool:
        return False

    def response_size(self, message) -> int:
        return 0


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
        return http.response_codec(("status", "body")).parser()

    def is_error(self, message) -> bool:
        return message._fields["status"] != 200

    def response_size(self, message) -> int:
        return len(message._fields["body"])


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
        return mc.full_codec().parser()

    def is_error(self, message) -> bool:
        return message.magic_code != mc.MAGIC_RESPONSE

    def response_size(self, message) -> int:
        return len(message.raw or b"")


# ---------------------------------------------------------------------------
# The closed-loop population
# ---------------------------------------------------------------------------


class ClosedLoopClients:
    """ApacheBench-style closed loop (§6.2) over any :class:`RequestCodec`.

    ``concurrency`` clients each send one request, wait for the whole
    response, then send the next, ``requests_per_client`` times.  With
    ``persistent`` each client keeps one connection for all of them
    (keep-alive); without, it opens a connection per request and closes
    it after the response (Figure 4c/4d).  Latency and bytes are
    recorded once a client is past its first ``warmup_requests``; the
    meter runs from :meth:`start` until the last client finishes.
    """

    def __init__(
        self,
        engine: Engine,
        tcpnet: TcpNetwork,
        client_hosts: List[Host],
        target: Host,
        port: int,
        codec: RequestCodec,
        concurrency: int,
        requests_per_client: int = 50,
        warmup_requests: int = 5,
        persistent: bool = True,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.engine = engine
        self.tcpnet = tcpnet
        self.client_hosts = client_hosts
        self.target = target
        self.port = port
        self.codec = codec
        self.concurrency = concurrency
        self.requests_per_client = requests_per_client
        self.warmup_requests = warmup_requests
        self.persistent = persistent
        self.latency = LatencySeries()
        self.meter = Meter()
        self.errors = 0
        self._done_clients = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("population already started")
        self._started = True
        self.meter.begin(self.engine.now)
        for index in range(self.concurrency):
            host = self.client_hosts[index % len(self.client_hosts)]
            _ClosedClient(self, index, host).next_request()

    @property
    def finished(self) -> bool:
        return self._done_clients == self.concurrency

    def _client_done(self) -> None:
        self._done_clients += 1
        if self.finished:
            self.meter.finish(self.engine.now)

    def kreqs_per_sec(self) -> float:
        return self.meter.kreqs_per_sec()


class _ClosedClient:
    """One closed-loop client: a request, its response, the next."""

    def __init__(self, pop: ClosedLoopClients, index: int, host: Host):
        self.pop = pop
        self.index = index
        self.host = host
        self.sent = 0
        self.socket: Optional[TcpSocket] = None
        self.parser = None
        self.request_started = 0.0

    def next_request(self) -> None:
        if self.sent >= self.pop.requests_per_client:
            self.pop._client_done()
        elif self.socket is None:
            self._connect()
        else:
            self._send()

    def _connect(self) -> None:
        self.parser = self.pop.codec.parser()

        def connected(socket: TcpSocket) -> None:
            self.socket = socket
            socket.on_receive(self._on_data)
            self._send()

        self.pop.tcpnet.connect(
            self.host, self.pop.target, self.pop.port, connected
        )

    def _send(self) -> None:
        pop = self.pop
        payload = pop.codec.client_request(self.index, self.sent, pop.persistent)
        self.request_started = pop.engine.now
        self.sent += 1
        self.socket.send(payload)

    def _on_data(self, data: bytes) -> None:
        pop = self.pop
        self.parser.feed(data)
        for message in self.parser.messages():
            if pop.codec.is_error(message):
                pop.errors += 1
            if self.sent > pop.warmup_requests:
                pop.latency.record(pop.engine.now - self.request_started)
                pop.meter.add(pop.codec.response_size(message))
            if not pop.persistent:
                self.socket.close()
                self.socket = None
            self.next_request()
            return


# ---------------------------------------------------------------------------
# The open-loop population
# ---------------------------------------------------------------------------

#: The per-class outcome columns :class:`OpenLoopClients` counts.
OUTCOMES = (
    "offered", "admitted", "shed", "completed", "failed", "retried",
    "slo_misses",
)


class OpenLoopClients:
    """Admit ``n_requests`` on the arrival clock, completions be damned.

    A fixed pool of persistent connections is opened up front (spread
    round-robin over ``client_hosts``); each admitted request is
    assigned to connection ``index % connections`` and pipelined behind
    whatever that connection still has in flight.  Responses come back
    in FIFO order per connection, so each one is matched to the oldest
    outstanding admission and its latency runs from the admission tick.

    ``slo_us`` (optional) marks any completion slower than the target as
    an SLO miss.

    ``admission`` (a registered name from
    :func:`repro.runtime.admission.registered_admissions` or an
    :class:`~repro.runtime.admission.AdmissionPolicy` instance) gates
    every arrival: shed requests never reach the wire, so they cost the
    platform nothing and are accounted per class (``completed + shed ==
    offered`` within each class once the run drains).  ``class_mix``
    labels arrivals with service-class names by deterministic weighted
    round-robin — e.g. ``(("gold", 1.0), ("bronze", 1.0))`` alternates —
    which is what class-aware admission policies discriminate on.
    :attr:`per_class` counts every outcome once per class; the testbed
    joins its ``shed`` and ``retried`` columns to the platform's busy
    periods in ``class_stats``.

    The population survives a server-side connection close (the
    cluster tier's shard failures sever flows mid-run): requests still
    outstanding on a closed connection are accounted as *failed* — a
    third completion-class outcome next to responses and sheds, per
    class in :meth:`admission_summary` — and the connection reopens
    while admission is still running, so subsequent arrivals re-route
    (through a shard router, onto a surviving shard) instead of
    black-holing.  Latency of failed requests is never recorded; they
    are losses, not samples.

    Two client-side fault injectors (:mod:`repro.net.faults`) configure
    extra knobs here: ``retry_after_us`` / ``max_retries`` turn the
    population impatient (the ``retry-storm`` injector) — a response
    slower than the budget is discarded as *retried* (a fourth terminal
    outcome: never a completion, never a latency sample) and the
    request is immediately re-offered through the full admission path,
    so re-offers are shed exactly like fresh arrivals.
    ``conn_lifetime_requests`` (the ``conn-churn`` injector) recycles
    every connection after that many responses: close, reconnect, and
    carry on, so handshakes and graph builds dominate the accept path.
    The conservation laws the fault tests pin: ``admitted + shed ==
    offered`` and ``completed + failed + retried == admitted`` once the
    run drains.
    """

    def __init__(
        self,
        engine: Engine,
        tcpnet: TcpNetwork,
        client_hosts: List[Host],
        target: Host,
        port: int,
        codec: RequestCodec,
        arrival: ArrivalProcess,
        n_requests: int,
        connections: int = 64,
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
        self.arrival = arrival
        self.n_requests = n_requests
        self.connections = connections
        self.rng = random.Random(seed)
        self.slo_us = slo_us
        self.admission = resolve_admission(admission)
        self.admission.reset()  # a reused instance must not carry state
        self.class_mix = check_class_mix(class_mix)
        self.retry_after_us = retry_after_us
        self.max_retries = max_retries
        self.conn_lifetime_requests = conn_lifetime_requests
        self.latency = LatencySeries()
        self.inter_arrivals = IntervalSeries()
        self.meter = Meter()
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
        self._conns: List[_OpenConnection] = []
        self._started = False
        self._admission_closed = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise RuntimeError("population already started")
        self._started = True
        self.meter.begin(self.engine.now)
        for index in range(self.connections):
            host = self.client_hosts[index % len(self.client_hosts)]
            conn = _OpenConnection(self, host)
            self._conns.append(conn)
            conn.open()
        self.engine.process(self._admit())

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

    def _admit(self):
        classes = self._class_cycle()
        arrivals = 0
        for gap in self.arrival.gaps(self.rng):
            # Count arrival-clock ticks, not offers: retry re-offers
            # inflate ``offered`` and must not cut the arrival stream
            # short of ``n_requests``.
            if arrivals >= self.n_requests:
                break
            if gap > 0:
                yield Timeout(gap)
            arrivals += 1
            self.inter_arrivals.observe(self.engine.now)
            self._offer(next(classes))
        self._admission_closed = True

    def _offer(self, service_class: str, attempt: int = 0) -> None:
        """One request through the admission door (arrival or retry)."""
        index = self.offered
        request = AdmissionRequest(
            index=index,
            now_us=self.engine.now,
            service_class=service_class,
            inflight=(
                self.admitted - self.completed - self.failed - self.retried
            ),
            offered=self.offered,
            admitted=self.admitted,
            shed=self.shed,
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
        self._conns[slot % self.connections].admit(
            index, service_class, attempt
        )

    # -- completion accounting ----------------------------------------------

    def _on_response(
        self, admitted_us: float, service_class: str, attempt: int, message
    ) -> None:
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
            self._offer(service_class, attempt + 1)
            return
        self.completed += 1
        row["completed"] += 1
        if self.codec.is_error(message):
            self.errors += 1
        self.latency.record(latency)
        if self.slo_us is not None and latency > self.slo_us:
            self.slo_misses += 1
            row["slo_misses"] += 1
        self.meter.add(self.codec.response_size(message))
        self.meter.finish(self.engine.now)

    def _on_failure(self, service_class: str) -> None:
        """One admitted request lost to a dead connection (no response)."""
        self.failed += 1
        self.per_class[service_class]["failed"] += 1

    @property
    def finished(self) -> bool:
        """Every admitted request saw a response, a dead connection, or
        an impatient retry (which re-offered it — the chain is counted
        attempt by attempt).  The trace may cut offers short of
        ``n_requests`` — ``replay`` is finite, and shed requests never
        went on the wire."""
        return (
            self._admission_closed
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
        return self.meter.kreqs_per_sec()


class _OpenConnection:
    """One persistent connection: pipelined sends, FIFO response match."""

    def __init__(self, pop: OpenLoopClients, host: Host):
        self.pop = pop
        self.host = host
        self.socket: Optional[TcpSocket] = None
        self.parser = pop.codec.parser()
        #: (admitted_us, service_class, attempt) of requests in flight
        #: (or queued behind the connect), oldest first.
        self.outstanding: deque = deque()
        #: Requests admitted before the connect completed.
        self._backlog: deque = deque()
        self._connecting = False
        #: Responses drained since the last (re)connect — the
        #: ``conn-churn`` recycle clock.
        self._served = 0

    def open(self) -> None:
        self._connecting = True

        def connected(socket: TcpSocket) -> None:
            self._connecting = False
            self.socket = socket
            socket.on_receive(self._on_data)
            socket.on_close(lambda: self._on_peer_close(socket))
            while self._backlog and not socket.closed:
                self.socket.send(self._backlog.popleft())

        self.pop.tcpnet.connect(
            self.host, self.pop.target, self.pop.port, connected
        )

    def _on_peer_close(self, socket: TcpSocket) -> None:
        """Server-side EOF: write off the in-flight window, reconnect.

        Requests already on the wire are gone — any response would have
        arrived before the EOF (the simulated NIC delivers in order) —
        so everything outstanding is failed, not retried: an open-loop
        client never re-offers on its own (only the ``retry-storm``
        injector re-offers, and then only on a late *response*).
        """
        if socket is not self.socket:
            return  # stale close of an already-replaced connection
        self.socket = None
        if not socket.closed:
            socket.close()
        self._backlog.clear()
        while self.outstanding:
            _admitted_us, service_class, _attempt = self.outstanding.popleft()
            self.pop._on_failure(service_class)
        self.parser = self.pop.codec.parser()
        self._served = 0
        if not self.pop._admission_closed:
            self.open()

    def admit(self, index: int, service_class: str, attempt: int = 0) -> None:
        self.outstanding.append((self.pop.engine.now, service_class, attempt))
        payload = self.pop.codec.request_bytes(index)
        if self.socket is None:
            self._backlog.append(payload)
            # A retry can land on a connection that died after admission
            # closed (no auto-reconnect then) — reopen on demand or the
            # backlog would never flush.
            if not self._connecting:
                self.open()
        else:
            self.socket.send(payload)

    def _recycle(self) -> None:
        """conn-churn: close the drained connection and start afresh."""
        socket, self.socket = self.socket, None
        self.parser = self.pop.codec.parser()
        self._served = 0
        self.pop.conn_cycles += 1
        if socket is not None and not socket.closed:
            socket.close()
        self.open()

    def _on_data(self, data: bytes) -> None:
        self.parser.feed(data)
        for message in self.parser.messages():
            admitted_us, service_class, attempt = self.outstanding.popleft()
            self.pop._on_response(admitted_us, service_class, attempt, message)
            self._served += 1
        lifetime = self.pop.conn_lifetime_requests
        if (
            lifetime is not None
            and self._served >= lifetime
            and not self.outstanding
            and not self.pop._admission_closed
            and self.socket is not None
        ):
            self._recycle()
