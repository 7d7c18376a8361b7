"""Shared pieces of the exhaustive explorers (``tests/test_*_explorer.py``):
every timing of a stimulus set, a socket that logs what the test does
not hold, and the quiescence check."""

import itertools

from repro.net import tcp


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


class LoggingSocket(tcp.TcpSocket):
    """A TCP endpoint that logs on its network every connection, every
    close, and what each client end sends and is handed, so a run can be
    checked without the test holding either end.  A send on a closed
    socket fails the run where it happens."""

    def __init__(self, net, host, conn_id, role):
        super().__init__(net, host, conn_id, role)
        net.conn_ids.add(conn_id)
        if role == "client":
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


def check_quiescent(engine, net, horizon_us):
    """Run ``engine`` to ``horizon_us``: nothing may be left runnable,
    and every connection is closed on both sides or on neither."""
    engine.run(until=horizon_us)
    assert engine.pending() == 0, "the engine does not quiesce"
    for conn_id in net.conn_ids:
        ends = {
            (conn_id, "client") in net.closed_ends,
            (conn_id, "server") in net.closed_ends,
        }
        assert len(ends) == 1, f"{conn_id} is closed on one side only"
