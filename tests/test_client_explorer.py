"""Exhaustive small-scope exploration of the client population.

The real :class:`~repro.workloads.arrivals.ClientPopulation` runs over
the real :class:`~repro.sim.engine.Engine` and
:class:`~repro.net.tcp.TcpNetwork` against one scripted HTTP server,
with one or two connections and two or three requests each (closed
rule) or in all (a replayed arrival clock).  Every population is
crossed with ``admit-all`` / ``shed-bronze`` / a test-side policy that
sheds every second offer, each without a fault, under ``retry-storm``
and under ``conn-churn``; the closed rule also with and without a
connection per request.  Server stimuli are injected at *every*
distinct timing over a small set of virtual timestamps:

* ``answer`` — the server answers every request it holds, and from then
  on each one as it arrives (with neither ``answer`` nor ``late`` in
  the set it answers from the start; with one, it holds until then);
* ``late`` — the same, but each answer goes out ``LATE_US`` after the
  stimulus or the request, past the ``retry-storm`` budget;
* ``close`` — the server answers what it holds and closes every
  connection;
* ``reset`` — the server closes every connection without answering;
* ``refuse`` — from then on the server accepts a connection and closes
  it at once, as a shard router with no live shard does (a connect to
  an unbound port raises instead).

Properties at quiescence:

* nothing is left runnable, and every connection is closed on both
  sides or on neither;
* no send on a closed socket;
* the population finished, with no error;
* per class, ``admitted + shed == offered`` and ``completed + failed +
  retried == admitted``, and the classes add up to the totals;
* every offer ends in exactly one terminal outcome: the offers that
  were not retry re-offers are exactly the requests the rule owes;
* one latency sample per measured completion, counted from the wire:
  under the closed rule a request goes out when it is admitted, so each
  response's latency is its wire round trip, and a connection's first
  ``WARMUP`` completions are not measured.

Each test prints how many schedules and engine events it checked
(``pytest -s``) and asserts both counts (``SCHEDULES``, ``EVENTS``).
``MUTATIONS`` seeds one defect per row into the population's source;
the explorer must catch each one.
"""

import __future__
import inspect
import itertools
import textwrap

import pytest

from repro.core.units import GBPS
from repro.grammar.protocols import http
from repro.net.faults import make_fault
from repro.runtime.admission import AdmissionPolicy, make_admission
from repro.sim.engine import Engine
from repro.workloads import arrivals
from repro.workloads.arrivals import ClientPopulation, HttpRequestCodec
from tests.explore import (
    check_quiescent,
    log_sockets,
    logged_network,
    timings,
)

#: Stimulus timestamps (virtual µs).  A connect completes at 36 and a
#: request's round trip takes about 38, so 30 finds no connection yet,
#: 60 the first request in flight and 120 the second or third.
TIMES = (30.0, 60.0, 120.0)
#: How long a ``late`` answer waits; past ``RETRY_AFTER_US``.
LATE_US = 80.0
RETRY_AFTER_US = 60.0
WARMUP = 1
#: Every run drains long before this; a run that does not has livelocked.
HORIZON_US = 100_000.0
#: Open-loop arrival stamps; the first lands before its connection.
ARRIVALS_US = (0.0, 50.0, 90.0)
RESPONSE = http.make_response(body=b"ok").raw


class _ShedEverySecond(AdmissionPolicy):
    """Sheds every second offer by its own count: a shed with nothing
    in flight, which ``shed-bronze`` never makes.  It counts, so each
    run builds its own."""

    name = "shed-every-second"

    def __init__(self):
        self.offers = 0

    def admit(self, request):
        self.offers += 1
        return self.offers % 2 == 1


ADMISSIONS = {
    "admit-all": ("admit-all", ()),
    "shed-bronze": (
        make_admission("shed-bronze", max_inflight=1),
        (("gold", 1.0), ("bronze", 1.0)),
    ),
    "shed-every-second": (_ShedEverySecond, ()),
}
FAULTS = {
    "none": None,
    "retry-storm": make_fault(
        "retry-storm", retry_after_us=RETRY_AFTER_US, max_retries=1
    ),
    "conn-churn": make_fault("conn-churn", lifetime_requests=1),
}

ANSWER, LATE, CLOSE, RESET, REFUSE = (
    "answer", "late", "close", "reset", "refuse"
)
#: Server stimulus sets: each alone, the pairs that put a failure next
#: to an answer or another failure, and one triple of both.
STIMULI = [
    (), (ANSWER,), (LATE,), (CLOSE,), (RESET,), (REFUSE,),
    (ANSWER, CLOSE), (ANSWER, RESET), (LATE, CLOSE), (LATE, RESET),
    (RESET, REFUSE), (ANSWER, RESET, REFUSE),
]


class _Server:
    """The scripted server on port 80 (see the module docstring)."""

    def __init__(self, engine, net, host, holding):
        self.engine = engine
        self.mode = "hold" if holding else ANSWER
        self.refusing = False
        self.held = {}  # accepted socket -> requests it has not answered
        net.listen(host, 80, self._accept)

    def _accept(self, socket):
        if self.refusing:
            socket.close()
            return
        self.held[socket] = 0
        parser = http.request_codec().parser()

        def on_data(data):
            parser.feed(data)
            self.held[socket] += sum(1 for _ in parser.messages())
            self._serve(socket)

        socket.on_receive(on_data)
        socket.on_close(lambda: self._drop(socket))

    def _serve(self, socket, mode=None):
        mode = mode or self.mode
        if mode == "hold" or socket not in self.held:
            return
        for _ in range(self.held[socket]):
            if mode == LATE:
                self.engine.schedule(LATE_US, self._send, socket)
            else:
                socket.send(RESPONSE)
        self.held[socket] = 0

    def _send(self, socket):
        if not socket.closed:
            socket.send(RESPONSE)

    def _drop(self, socket):
        self.held.pop(socket, None)
        socket.close()

    def fire(self, stimulus):
        if stimulus in (ANSWER, LATE):
            self.mode = stimulus
            for socket in list(self.held):
                self._serve(socket)
        elif stimulus == REFUSE:
            self.refusing = True
        else:
            for socket in list(self.held):
                if stimulus == CLOSE:
                    self._serve(socket, ANSWER)
                self._drop(socket)


#: name -> (arrival clock?, connections, requests, persistent).  Under
#: the closed rule ``requests`` is each connection's; on the clock it
#: is the whole trace, spread over the connections.
POPULATIONS = {
    f"{rule}-{conns}x{reqs}{'' if persistent else '-per-request'}": (
        rule == "open", conns, reqs, persistent,
    )
    for rule, conns, reqs, persistent in itertools.product(
        ("closed", "open"), (1, 2), (2, 3), (True, False)
    )
    if persistent or rule == "closed"
}


class _Run:
    """One population configuration under one timing."""

    def __init__(self, population, admission, fault, holding):
        clocked, conns, reqs, persistent = POPULATIONS[population]
        policy, class_mix = ADMISSIONS[admission]
        if isinstance(policy, type):
            policy = policy()
        fault = FAULTS[fault]
        self.engine = Engine()
        self.net = logged_network(self.engine)
        target = self.net.add_host("server", 1 * GBPS, "edge")
        hosts = [
            self.net.add_host(f"client{i}", 1 * GBPS, "edge")
            for i in range(conns)
        ]
        self.server = _Server(self.engine, self.net, target, holding)
        arrival = None
        self.owed = conns * reqs
        if clocked:
            arrival = arrivals.make_arrival(
                "replay", timestamps_us=ARRIVALS_US[:reqs]
            )
            self.owed = reqs
        self.retry = fault is not None and fault.name == "retry-storm"
        self.warmup = 0 if clocked else WARMUP
        self.population = ClientPopulation(
            self.engine, self.net, hosts, target, 80, HttpRequestCodec(),
            reqs, arrival=arrival, connections=conns,
            warmup_requests=self.warmup, persistent=persistent,
            admission=policy, class_mix=class_mix,
            **(fault.population_kwargs() if fault is not None else {}),
        )

    def run(self, timing):
        self.population.start()
        for at, stimulus in timing:
            self.engine.at(at, self.server.fire, stimulus)
        check_quiescent(self.engine, self.net, HORIZON_US)
        self.check()

    def measured(self):
        """Completions past each connection's warm-up, from the wire:
        each response answers the oldest request its connection sent,
        and is a retry if it came back late on a request's first try."""
        completions = {}
        tries = {}
        for host, sent, received in self.net.wire.values():
            for (sent_at, payload), received_at in zip(sent, received):
                attempt = tries.get(payload, 0)
                tries[payload] = attempt + 1
                late = received_at - sent_at > RETRY_AFTER_US
                if not (self.retry and late and attempt == 0):
                    completions[host] = completions.get(host, 0) + 1
        return sum(max(0, n - self.warmup) for n in completions.values())

    def check(self):
        pop = self.population
        assert pop.finished, "the population did not finish"
        assert pop.errors == 0
        rows = pop.per_class.values()
        for row in rows:
            assert row["admitted"] + row["shed"] == row["offered"]
            assert (
                row["completed"] + row["failed"] + row["retried"]
                == row["admitted"]
            ), "an admitted request has no single terminal outcome"
        for outcome in arrivals.OUTCOMES:
            assert sum(row[outcome] for row in rows) == getattr(pop, outcome)
        assert pop.offered - pop.retried == self.owed, (
            "the first-time offers are not the requests the rule owes"
        )
        measured = pop.completed if self.warmup == 0 else self.measured()
        assert pop.latency.count == measured, "latency samples != measured"


CONFIGS = [
    (population, admission, fault)
    for population in POPULATIONS
    for admission in ADMISSIONS
    for fault in FAULTS
]

#: Schedules per configuration: one per timing of every stimulus set.
SCHEDULES = 1 + 5 * 3 + 5 * 2 * 6 + 6 * 10

#: Engine entries filed over all of a population's schedules: an
#: arrival clock or a client loop that files one more or one fewer
#: entry moves its row.
EVENTS = {
    "closed-1x2": 13464,
    "closed-1x2-per-request": 16568,
    "closed-1x3": 17675,
    "closed-1x3-per-request": 22700,
    "closed-2x2": 21273,
    "closed-2x2-per-request": 26566,
    "closed-2x3": 29177,
    "closed-2x3-per-request": 39061,
    "open-1x2": 12785,
    "open-1x3": 18477,
    "open-2x2": 17107,
    "open-2x3": 24689,
}


def _runs(population, admission, fault):
    """Every schedule of one configuration: ``(run, timing)``, run not
    yet started."""
    for stimuli in STIMULI:
        holding = ANSWER in stimuli or LATE in stimuli
        for timing in timings(stimuli, (), TIMES):
            yield _Run(population, admission, fault, holding), timing


@pytest.fixture
def logging_sockets(monkeypatch):
    log_sockets(monkeypatch)


@pytest.mark.parametrize("population", POPULATIONS)
def test_every_small_schedule(population, logging_sockets):
    schedules = events = 0
    for admission, fault in itertools.product(ADMISSIONS, FAULTS):
        for run, timing in _runs(population, admission, fault):
            run.run(timing)
            schedules += 1
            events += run.engine._seq
    print(f"{population}: {schedules} schedules, {events} engine events")
    assert schedules == SCHEDULES * len(ADMISSIONS) * len(FAULTS)
    assert events == EVENTS[population]


#: One seeded defect per row: (class, method, a fragment of its source,
#: the fragment's mutant).  The fragment must occur exactly once.
MUTATIONS = {
    "a peer close forgets the in-flight window": (
        "_Connection", "_on_peer_close",
        "        pop.failed += 1\n"
        "        pop.per_class[service_class][\"failed\"] += 1\n",
        "        pass\n",
    ),
    "a retry also counts as completed": (
        "ClientPopulation", "_on_response",
        "        self.retried += 1\n",
        "        self.retried += 1\n        self.completed += 1\n",
    ),
    "a failed closed-loop request stalls its slot": (
        "_Connection", "_on_peer_close",
        "    self._advance()\n",
        "    if self.pop.arrival is not None:\n        self._advance()\n",
    ),
    "a warm-up completion is measured": (
        "ClientPopulation", "_on_response",
        "if conn.completions <= self.warmup_requests:",
        "if conn.completions < self.warmup_requests:",
    ),
    "a shed closed-loop request ends its client": (
        "_Connection", "_next",
        "        pop._offer(service_class, attempt, self, n)\n",
        "        pop._offer(service_class, attempt, self, n)\n"
        "        if not self.outstanding:\n"
        "            self.taken = pop.n_requests\n",
    ),
}


def _mutant(owner, method, fragment, mutant):
    source = textwrap.dedent(inspect.getsource(getattr(owner, method)))
    assert source.count(fragment) == 1, f"{method}: fragment not found once"
    namespace = {}
    code = compile(
        source.replace(fragment, mutant), arrivals.__file__, "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    exec(code, vars(arrivals), namespace)
    return namespace[method]


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_every_seeded_mutation_is_caught(
    mutation, logging_sockets, monkeypatch
):
    name, method, fragment, mutant = MUTATIONS[mutation]
    owner = getattr(arrivals, name)
    monkeypatch.setattr(
        owner, method, _mutant(owner, method, fragment, mutant)
    )
    for config in CONFIGS:
        for run, timing in _runs(*config):
            try:
                run.run(timing)
            except Exception:
                print(f"{mutation}: caught by {config} under {timing}")
                return
    pytest.fail(f"no schedule catches: {mutation}")
