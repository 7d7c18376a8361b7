"""Shared pieces of the exhaustive explorers (``tests/test_*_explorer.py``):
every timing of a stimulus set, an engine that checks the state after
every event, a socket that logs what the test does not hold, and the
quiescence check."""

import itertools

from repro.net import tcp
from repro.sim.engine import Engine


def timings(stimuli, before, times):
    """Every distinct timing of ``stimuli`` over ``times``.

    A timing is a schedule order (which is also the firing order of
    same-time stimuli) plus a non-decreasing timestamp per position, so
    each distinct engine input is produced exactly once.  ``before``
    holds index pairs ``(a, b)``: stimulus ``a`` is scheduled before
    ``b``.
    """
    n = len(stimuli)
    for order in itertools.permutations(range(n)):
        at = {stimulus: position for position, stimulus in enumerate(order)}
        if any(at[a] > at[b] for a, b in before):
            continue
        for stamps in itertools.combinations_with_replacement(times, n):
            yield [(stamps[i], stimuli[s]) for i, s in enumerate(order)]


class CheckedEngine(Engine):
    """The product engine, calling ``check()`` after every event.  An
    explorer pins the entries its runs file (``engine._seq``), so an
    entry point that bypasses ``schedule`` and ``at`` fails it."""

    def __init__(self, check):
        super().__init__()
        self.check = check

    def schedule(self, delay, callback, *args):
        super().schedule(delay, self._checked, callback, args)

    def at(self, when, callback, *args):
        super().at(when, self._checked, callback, args)

    def _checked(self, callback, args):
        callback(*args)
        self.check()


class LoggingSocket(tcp.TcpSocket):
    """A TCP endpoint that logs on its network every connection, every
    close, and what each client end (built first) sends and is handed, so
    a run can be checked without the test holding either end.  A send on
    a closed socket fails the run where it happens."""

    def __init__(self, net, host, conn_id):
        super().__init__(net, host, conn_id)
        self.role = "server" if conn_id in net.conn_ids else "client"
        net.conn_ids.add(conn_id)
        if self.role == "client":
            net.wire[conn_id] = (host.name, [], [])

    def send(self, data):
        assert not self.closed, f"send on closed socket {self.conn_id}"
        if self.role == "client":
            sent = self._net.wire[self.conn_id][1]
            sent.append((self._net.engine.now, data))
        super().send(data)

    def on_receive(self, callback):
        if self.role == "client":
            received = self._net.wire[self.conn_id][2]
            engine = self._net.engine

            def logged(data):
                received.append(engine.now)
                callback(data)

            super().on_receive(logged)
        else:
            super().on_receive(callback)

    def close(self):
        if not self.closed:
            self._net.closed_ends.add((self.conn_id, self.role))
        super().close()


def log_sockets(monkeypatch):
    """Make every socket a :class:`LoggingSocket`; a network the test
    builds then needs :func:`logged_network`."""
    monkeypatch.setattr(tcp, "TcpSocket", LoggingSocket)


def logged_network(engine):
    """A :class:`~repro.net.tcp.TcpNetwork` with the logs
    :class:`LoggingSocket` writes: ``conn_ids``, ``closed_ends`` as
    ``(conn_id, role)`` and, per client end, ``wire[conn_id] = (host
    name, [(time, bytes sent)], [time data handed over])``."""
    net = tcp.TcpNetwork(engine)
    net.conn_ids, net.closed_ends, net.wire = set(), set(), {}
    return net


def check_quiescent(engine, horizon_us, net=None):
    """Run ``engine`` to ``horizon_us``: nothing may be left runnable,
    and every connection of ``net`` is closed on both sides or on
    neither."""
    engine.run(until=horizon_us)
    assert engine.pending() == 0, "the engine does not quiesce"
    for conn_id in net.conn_ids if net else ():
        ends = {
            (conn_id, "client") in net.closed_ends,
            (conn_id, "server") in net.closed_ends,
        }
        assert len(ends) == 1, f"{conn_id} is closed on one side only"
