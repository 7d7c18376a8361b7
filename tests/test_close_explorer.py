"""Exhaustive small-scope exploration of the connection close path.

The real :class:`~repro.sim.engine.Engine`, :class:`~repro.net.tcp.\
TcpNetwork` and one :class:`~repro.runtime.platform.FlickPlatform` run
the HTTP load balancer on two cores, in front of one or two scripted
backends, for one or two scripted clients.  Every client connects at
t = 0; external stimuli are then injected at *every* distinct timing
over a small set of virtual timestamps: every order of the stimuli,
every way of spreading that order over the timestamps, so same-time
ties in every order.  The stimuli are what the two ends of a proxied
connection can do to the platform:

* ``send`` — a client sends its request: whole, split in two segments
  (the second goes out after the stimuli already due at that instant),
  or as malformed bytes the HTTP codec rejects;
* ``close`` — a client closes its connection;
* ``answer`` — a backend answers every request it holds, and from then
  on each one as it arrives: whole or split like ``send``;
* ``down`` — a backend resets every connection it accepted and every
  one it accepts later (the ``flapping-backend`` reset).

A backend closes a connection when its peer does, like a real server;
a client closes when the platform closes.  Properties at quiescence:

* every request is answered, or its client connection is closed;
* a reply a backend sent reaches its client, unless the client closed
  first (a backend EOF delivers what came before it);
* a socket closed on one side is closed on both;
* no task ``has_work()``, and every task is idle;
* the graph of every closed connection is freed by reference counting
  (the collector is off for the whole test, and the graph's weakref is
  dead once the test drops it);
* ``completed + failed == admitted`` on the client view;
* exactly one ``teardown_us`` is charged per closed client connection,
  whichever side closed first, and none on a connection still open.

Each test prints how many schedules and engine events it checked
(``pytest -s``).  One timing off the grid is pinned on its own: a
client EOF that reaches the platform in the instant a backend's close
runs.  How the close this replaced fails here is recorded in
``CHANGES.md``.
"""

import gc
import itertools
import weakref

import pytest

from repro.apps import http_lb
from repro.core.units import GBPS
from repro.grammar.protocols import http
from repro.runtime.costs import RuntimeConfig
from repro.runtime.graph import OutboundTarget
from repro.runtime.platform import FlickPlatform
from repro.runtime.scheduler import IDLE
from repro.sim.engine import Engine
from tests.explore import (
    check_quiescent,
    log_sockets,
    logged_network,
    timings,
)

#: Stimulus timestamps (virtual µs).  Alone, a request sent at 100
#: reaches its backend at about 395 and its reply the client at about
#: 475; so a backend stimulus at 400 lands with the request in flight,
#: and each timestamp finds a different stage of the last one's work.
TIMES = (100.0, 400.0, 700.0)
#: Every run drains long before this; a run that does not has livelocked.
HORIZON_US = 100_000.0
PROGRAM = http_lb.compile_http_lb()
REGISTRY = http_lb.http_codec_registry(PROGRAM)
#: The load balancer hashes a connection's endpoints to pick its
#: backend: with two backends, these names put client 0 on backend 1
#: and client 1 on backend 0.
CLIENT_HOSTS = ("client0", "client2")
#: A request the generated HTTP codec rejects (it has no chunked body).
MALFORMED = b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"


class CountingStack:
    """One graph's stack profile, counting its ``teardown_us`` charges."""

    def __init__(self, stack):
        self._stack = stack
        self.teardowns = 0

    def __getattr__(self, name):
        return getattr(self._stack, name)

    @property
    def teardown_us(self):
        self.teardowns += 1
        return self._stack.teardown_us


def _halves(raw, split):
    return (raw[: len(raw) // 2], raw[len(raw) // 2 :]) if split else (raw,)


class _Client:
    """One keep-alive connection: ``send`` and ``close`` stimuli, queued
    until the connection is established."""

    def __init__(self, run, index, host, mbox):
        self.run = run
        self.path = f"/{index}"
        self.socket = None
        self.queued = []
        self.admitted = self.completed = self.failed = 0
        self.replies = []
        self.closed_first = False
        self._parser = http.HttpResponseParser()
        run.net.connect(host, mbox, 80, self._connected)

    def _connected(self, socket):
        self.socket = socket
        socket.on_receive(self._on_data)
        socket.on_close(self._on_close)
        for action in self.queued:
            action()

    def act(self, action):
        if self.socket is None:
            self.queued.append(action)
        else:
            action()

    def send(self, variant):
        if self.socket.closed:
            return
        if variant == "malformed":
            # Nothing can answer it: the platform must close.
            self.admitted += 1
            self.socket.send(MALFORMED)
            return
        raw = http.make_request("GET", self.path).raw
        first, *rest = _halves(raw, variant == "split")
        self.socket.send(first)
        if rest:
            self.run.engine.schedule(0.0, self._send_rest, rest[0])
        else:
            self.admitted += 1

    def _send_rest(self, rest):
        if not self.socket.closed:
            self.socket.send(rest)
            self.admitted += 1

    def close(self):
        if not self.socket.closed:
            self.closed_first = True
            self._closed()

    def _on_data(self, data):
        self._parser.feed(data)
        for reply in self._parser.messages():
            self.replies.append(reply.body)
            self.completed += 1

    def _on_close(self):
        if not self.socket.closed:
            self._closed()

    def _closed(self):
        self.failed = self.admitted - self.completed
        self.socket.close()


class _Backend:
    """A scripted server: ``answer`` and ``down`` stimuli."""

    def __init__(self, run, host, answering):
        self.run = run
        self.up = True
        self.answering, self.split = answering, False
        self.live = {}  # accepted socket -> paths it has not answered
        self.sent = []  # paths whose whole reply went out
        run.net.listen(host, 8080, self._accept)

    def _accept(self, socket):
        if not self.up:
            socket.close()
            return
        pending = self.live[socket] = []
        parser = http.request_codec().parser()

        def on_data(data):
            parser.feed(data)
            pending.extend(request.path for request in parser.messages())
            if self.answering:
                self._answer(socket)

        socket.on_receive(on_data)
        socket.on_close(lambda: self._close(socket))

    def answer(self, variant):
        self.answering, self.split = True, variant == "split"
        for socket in list(self.live):
            self._answer(socket)

    def _answer(self, socket):
        pending = self.live[socket]
        for path in pending:
            raw = http.make_response(body=path.encode()).raw
            first, *rest = _halves(raw, self.split)
            socket.send(first)
            if rest:
                self.run.engine.schedule(
                    0.0, self._send_rest, socket, rest[0], path
                )
            else:
                self.sent.append(path)
        pending.clear()

    def _send_rest(self, socket, rest, path):
        if not socket.closed:
            socket.send(rest)
            self.sent.append(path)

    def down(self):
        self.up = False
        for socket in list(self.live):
            self._close(socket)

    def _close(self, socket):
        self.live.pop(socket, None)
        socket.close()


class _Run:
    """One configuration under one timing."""

    def __init__(self, clients, backends, answering=False):
        self.engine = Engine()
        self.net = logged_network(self.engine)
        mbox = self.net.add_host("mbox", 10 * GBPS, "core")
        backend_hosts = [
            self.net.add_host(f"backend{i}", 1 * GBPS, "edge")
            for i in range(backends)
        ]
        self.backends = [
            _Backend(self, host, answering) for host in backend_hosts
        ]
        platform = FlickPlatform(
            self.engine, self.net, mbox, RuntimeConfig(cores=2), REGISTRY
        )
        instance = platform.register_program(
            PROGRAM,
            "HttpBalancer",
            80,
            http_lb.lb_bindings(
                [OutboundTarget(host, 8080) for host in backend_hosts]
            ),
        )
        self.graphs = []
        build = instance.graph_dispatcher._build_graph

        def counted():
            graph = build()
            graph.stack = CountingStack(graph.stack)
            self.graphs.append(graph)
            return graph

        instance.graph_dispatcher._build_graph = counted
        self.dispatch_tasks = instance._dispatch_tasks
        platform.start()
        self.clients = [
            _Client(self, i, self.net.add_host(name, 1 * GBPS, "edge"), mbox)
            for i, name in enumerate(CLIENT_HOSTS[:clients])
        ]

    def fire(self, stimulus, variants):
        kind, index = stimulus
        if kind == "send":
            client = self.clients[index]
            client.act(lambda: client.send(variants[stimulus]))
        elif kind == "close":
            client = self.clients[index]
            client.act(client.close)
        elif kind == "answer":
            self.backends[index].answer(variants[stimulus])
        else:
            self.backends[index].down()

    def run(self, timing, variants):
        for at, stimulus in timing:
            self.engine.at(at, self.fire, stimulus, variants)
        check_quiescent(self.engine, self.net, HORIZON_US)
        self.check_quiescent()
        closed = [
            weakref.ref(graph)
            for graph in self.graphs
            if self.clients_by_conn[graph._client_socket.conn_id].socket.closed
        ]
        del self.graphs[:]
        assert all(ref() is None for ref in closed), (
            "a graph outlived its connection (a reference cycle)"
        )

    def check_quiescent(self):
        clients = self.clients_by_conn = {
            client.socket.conn_id: client for client in self.clients
        }
        for client in self.clients:
            assert client.completed == client.admitted or client.socket.closed, (
                f"{client.path}: a request is neither answered nor closed"
            )
        sent = {path for b in self.backends for path in b.sent}
        for client in self.clients:
            if client.path in sent and not client.closed_first:
                assert client.path.encode() in client.replies, (
                    f"{client.path}: the reply a backend sent was dropped"
                )
        for graph in self.graphs:
            for task in graph.tasks:
                assert not task.has_work(), f"{task.name} has work"
                assert task.sched_state == IDLE, f"{task.name} is not idle"
        assert not any(task.has_work() for task in self.dispatch_tasks)
        for client in self.clients:
            assert client.completed + client.failed == client.admitted, (
                f"{client.path}: completed + failed != admitted"
            )
        assert len(self.graphs) == len(self.clients)
        for graph in self.graphs:
            client = clients[graph._client_socket.conn_id]
            charged = graph.stack.teardowns
            assert charged == int(client.socket.closed), (
                f"{client.path}: {charged} teardown charges, connection "
                f"{'closed' if client.socket.closed else 'open'}"
            )


SEND, CLOSE, ANSWER, DOWN = (
    ("send", 0), ("close", 0), ("answer", 0), ("down", 0)
)

#: name -> (clients, backends, stimulus sets, variants per stimulus).
#: A client closes only after it sends.  A backend that is never told
#: to answer answers from the start; one that is, holds requests until
#: then.  The one-of-each configuration tries every subset that keeps
#: ``send`` and ``answer`` and every variant; the larger ones fix the
#: variants and add the second client's request.
CONFIGS = {
    "1x1": (
        1,
        1,
        [
            (SEND, ANSWER),
            (SEND, ANSWER, CLOSE),
            (SEND, ANSWER, DOWN),
            (SEND, ANSWER, CLOSE, DOWN),
        ],
        {SEND: ("whole", "split", "malformed"), ANSWER: ("whole", "split")},
    ),
    "2x1": (
        2,
        1,
        [(SEND, ("send", 1), ANSWER, CLOSE, DOWN)],
        {SEND: ("whole",), ("send", 1): ("whole",), ANSWER: ("whole",)},
    ),
    "2x2": (
        2,
        2,
        [(SEND, ("send", 1), CLOSE, DOWN)],
        {SEND: ("whole",), ("send", 1): ("whole",)},
    ),
}

#: Schedules per configuration: the number of orders that keep each
#: client's close after its send, times the C(n + 2, n) ways to spread
#: n stimuli over the three timestamps, times the variants.
SCHEDULES = {
    "1x1": (2 * 6 + 3 * 10 + 6 * 10 + 12 * 15) * 3 * 2,
    "2x1": 60 * 21,
    "2x2": 12 * 15,
}


@pytest.fixture
def close_logging_sockets(monkeypatch):
    log_sockets(monkeypatch)
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.collect()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("config", CONFIGS)
def test_every_small_schedule(config, close_logging_sockets):
    clients, backends, stimulus_sets, variant_space = CONFIGS[config]
    schedules = events = 0
    for stimuli in stimulus_sets:
        before = [
            (stimuli.index(("send", i)), stimuli.index(("close", i)))
            for i in range(clients)
            if ("close", i) in stimuli
        ]
        keys = [key for key in stimuli if key in variant_space]
        for choice in itertools.product(*(variant_space[k] for k in keys)):
            variants = dict(zip(keys, choice))
            for timing in timings(stimuli, before, TIMES):
                run = _Run(clients, backends, ANSWER not in stimuli)
                run.run(timing, variants)
                schedules += 1
                events += run.engine._seq
                if schedules % 256 == 0:
                    gc.collect()
    print(f"{config}: {schedules} schedules, {events} engine events")
    assert schedules == SCHEDULES[config]


def test_a_client_eof_that_meets_a_backend_close(close_logging_sockets):
    """A timing the timestamp grid misses: the backend resets at 700
    and the client closes at 700.4, so the client's EOF reaches the
    platform in the very instant the backend's close runs, before the
    client input task hears of it.  The close has detached that task
    by the time it does, so the EOF is not charged a second teardown
    (it was, without the detach)."""
    run = _Run(1, 1)
    heard = []
    check = run.check_quiescent

    def check_quiescent():
        (graph,) = run.graphs
        client_out = graph._endpoint_out_tasks["client"]
        heard.append((graph._client_in.eof_seen, client_out.inbox.closed))
        check()

    run.check_quiescent = check_quiescent
    run.run(
        [(100.0, SEND), (100.0, ANSWER), (700.0, DOWN), (700.4, CLOSE)],
        {SEND: "whole", ANSWER: "whole"},
    )
    # The client's EOF arrived, and the backend's close ran first.
    assert heard == [(True, True)]
