"""Simulation engine, network and TCP substrate tests."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.core.units import GBPS, MBPS
from repro.core.units import transmission_time_us
from repro.net.simnet import HOP_LATENCY_US, Network, RateLimiter, WIRE_OVERHEAD
from repro.net.tcp import TcpNetwork
from repro.sim.engine import Engine


class TestEngine:
    def test_schedule_order(self):
        engine = Engine()
        seen = []
        engine.schedule(10, seen.append, "b")
        engine.schedule(5, seen.append, "a")
        engine.schedule(20, seen.append, "c")
        engine.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_fifo(self):
        engine = Engine()
        seen = []
        for label in "xyz":
            engine.schedule(1.0, seen.append, label)
        engine.run()
        assert seen == ["x", "y", "z"]

    def test_now_advances(self):
        engine = Engine()
        stamps = []
        engine.schedule(3, lambda: stamps.append(engine.now))
        engine.schedule(7, lambda: stamps.append(engine.now))
        engine.run()
        assert stamps == [3, 7]

    def test_run_until(self):
        engine = Engine()
        seen = []
        engine.schedule(5, seen.append, 1)
        engine.schedule(50, seen.append, 2)
        engine.run(until=10)
        assert seen == [1]
        assert engine.now == 10

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-1, lambda: None)

    def test_callback_files_its_own_next_turn(self):
        """Repeating activity is a callback that schedules itself again
        (how workers and the arrival clock run)."""
        engine = Engine()
        trace = []
        gaps = iter([10, 5])

        def turn():
            trace.append(engine.now)
            for gap in gaps:
                engine.schedule(gap, turn)
                return

        engine.schedule(0, turn)
        engine.run()
        assert trace == [0, 10, 15]
        assert engine.pending() == 0

    def test_surface_is_callbacks_only(self):
        import repro.sim
        import repro.sim.engine

        for name in ("event", "timeout", "process"):
            assert not hasattr(Engine, name)
        for name in ("Event", "Timeout", "Process"):
            assert not hasattr(repro.sim.engine, name)
            assert not hasattr(repro.sim, name)

    def test_determinism(self):
        def run_once():
            engine = Engine()
            seen = []
            for i in range(50):
                engine.schedule((i * 7) % 13, seen.append, i)
            engine.run()
            return seen

        assert run_once() == run_once()


class TestZeroDelayReadyQueue:
    """The same-tick FIFO fast path must be indistinguishable from the
    heap: zero-delay events interleave with delayed ones in exactly the
    (time, seq) order a single heap would produce."""

    def test_mixed_zero_and_delayed_ordering(self):
        engine = Engine()
        seen = []

        def on_a():
            seen.append("a")
            engine.schedule(0, seen.append, "c")
            engine.schedule(5, seen.append, "z")

        engine.schedule(5, seen.append, "x")
        engine.schedule(0, on_a)
        engine.schedule(0, seen.append, "b")
        engine.schedule(5, seen.append, "y")
        engine.run()
        # t=0 fires a, b, then a's same-tick child c; t=5 fires x, y
        # (scheduled before z) in seq order.
        assert seen == ["a", "b", "c", "x", "y", "z"]

    def test_pending_counts_ready_entries(self):
        engine = Engine()
        engine.schedule(0, lambda: None)
        engine.schedule(0, lambda: None)
        engine.schedule(10, lambda: None)
        assert engine.pending() == 3
        engine.run()
        assert engine.pending() == 0

    def test_run_until_stops_before_later_heap_event(self):
        engine = Engine()
        seen = []
        engine.schedule(0, seen.append, "a")
        engine.schedule(10, seen.append, "b")
        assert engine.run(until=5) == 5
        assert seen == ["a"]
        assert engine.now == 5
        assert engine.pending() == 1

    def test_zero_delay_keeps_current_time(self):
        engine = Engine()
        stamps = []

        def later():
            engine.schedule(0, lambda: stamps.append(engine.now))

        engine.schedule(7, later)
        engine.run()
        assert stamps == [7]

    def test_child_filed_during_a_tick_runs_after_queued_entries(self):
        engine = Engine()
        seen = []

        def parent(payload):
            engine.schedule(0, seen.append, ("child", payload))

        engine.schedule(3, parent, 99)
        engine.schedule(3, seen.append, "after")
        engine.run()
        # The child is filed during the tick, so everything already
        # queued for the same timestamp fires first.
        assert seen == ["after", ("child", 99)]
        assert engine.now == 3


class TestControlFrameOrdering:
    """Zero-byte control frames must not overtake queued data.

    They pin the fix for the seed bug where ``deliver()`` set
    ``depart = now`` for ``nbytes == 0``, letting a FIN (or SYN) leave
    the host immediately while earlier-sent data was still serialising
    behind ``src.tx.busy_until`` — delivering EOF before bytes on a
    supposedly ordered stream.
    """

    def test_zero_byte_frame_claims_sender_nic_queue(self):
        # The sender's NIC is busy for ~8.5 ms serialising data to b; a
        # control frame to c (whose idle rx can't mask the bug) must
        # depart behind it, not teleport past the tx queue.
        engine = Engine()
        net = Network(engine)
        a = net.add_host("a", 1 * GBPS, "core")
        b = net.add_host("b", 1 * GBPS, "core")
        c = net.add_host("c", 10 * GBPS, "core")
        net.deliver(a, b, 1_000_000, lambda: None)
        tx_busy_until = a.tx.busy_until
        assert tx_busy_until > 8_000
        fin_arrival = net.deliver(a, c, 0, lambda: None)
        assert fin_arrival >= tx_busy_until

    def test_same_stream_fin_never_beats_data(self):
        engine = Engine()
        net = Network(engine)
        a = net.add_host("a", 1 * GBPS, "core")
        b = net.add_host("b", 10 * GBPS, "core")
        order = []
        net.deliver(a, b, 1_000_000, lambda: order.append("data"))
        net.deliver(a, b, 0, lambda: order.append("fin"))
        engine.run()
        assert order == ["data", "fin"]

    def test_fin_after_large_send_delivers_data_before_eof(self):
        engine = Engine()
        net = TcpNetwork(engine)
        a = net.add_host("a", 1 * GBPS, "edge")
        b = net.add_host("b", 10 * GBPS, "core")
        order = []

        def accept(sock):
            sock.on_receive(lambda data: order.append(("data", len(data))))
            sock.on_close(lambda: order.append(("close", engine.now)))

        net.listen(b, 80, accept)

        def connected(sock):
            # ~8 ms of serialisation at the 1 Gbps NIC, then an
            # immediate FIN: the FIN must queue behind the payload.
            sock.send(b"x" * 1_000_000)
            sock.close()

        net.connect(a, b, 80, connected)
        engine.run()
        assert order, "nothing delivered"
        assert order[0][0] == "data"
        assert order[-1][0] == "close"
        assert [kind for kind, _ in order].count("close") == 1


class TestRateLimiter:
    def test_transmission_time(self):
        rl = RateLimiter(1 * GBPS)
        end = rl.transmit(0.0, 125_000)  # 1 Mbit payload
        assert end == pytest.approx(1000.0 * WIRE_OVERHEAD, rel=0.01)

    def test_fractional_wire_bytes_charged_exactly(self):
        # 1448-byte payload inflates to exactly 1538 wire bytes; the
        # seed's int() truncation used to undercharge the fraction on
        # every other size.
        rl = RateLimiter(1 * GBPS)
        end = rl.transmit(0.0, 1448)
        assert end == transmission_time_us(1538, 1 * GBPS)
        assert end == pytest.approx(12.304, abs=1e-3)

    def test_transmission_time_us_pinned(self):
        # The cost model the whole network hangs off: 8 bits/byte at
        # rate_bps, in µs — including fractional wire bytes.
        assert transmission_time_us(125_000, 1 * GBPS) == 1000.0
        assert transmission_time_us(1, 1 * GBPS) == pytest.approx(0.008)
        assert transmission_time_us(100.5, 1 * GBPS) == pytest.approx(0.804)

    def test_no_truncation_accumulation_over_frames(self):
        # 1000 one-byte frames: wire bytes 1.0621... each; truncation
        # used to bill int(1.06) = 1 wire byte per frame (~6% under).
        rl = RateLimiter(1 * GBPS)
        end = 0.0
        for _ in range(1000):
            end = rl.transmit(0.0, 1)
        expected = transmission_time_us(1000 * WIRE_OVERHEAD, 1 * GBPS)
        assert end == pytest.approx(expected, rel=1e-9)

    def test_serialisation_of_back_to_back_sends(self):
        rl = RateLimiter(1 * GBPS)
        first = rl.transmit(0.0, 125_000)
        second = rl.transmit(0.0, 125_000)
        assert second == pytest.approx(2 * first, rel=0.01)

    def test_idle_gap_not_accumulated(self):
        rl = RateLimiter(1 * GBPS)
        rl.transmit(0.0, 1000)
        end = rl.transmit(1_000_000.0, 1000)
        assert end > 1_000_000.0

    def test_invalid_rate(self):
        with pytest.raises(SimulationError):
            RateLimiter(0)


class TestNetwork:
    def test_same_segment_one_hop(self):
        engine = Engine()
        net = Network(engine)
        a = net.add_host("a", 10 * GBPS, "core")
        b = net.add_host("b", 10 * GBPS, "core")
        arrival = net.deliver(a, b, 0, lambda: None)
        assert arrival == pytest.approx(HOP_LATENCY_US)

    def test_cross_segment_two_hops(self):
        engine = Engine()
        net = Network(engine)
        a = net.add_host("a", 10 * GBPS, "edge")
        b = net.add_host("b", 10 * GBPS, "core")
        arrival = net.deliver(a, b, 0, lambda: None)
        assert arrival == pytest.approx(2 * HOP_LATENCY_US)

    def test_slow_nic_caps_throughput(self):
        engine = Engine()
        net = Network(engine)
        a = net.add_host("a", 10 * MBPS, "core")
        b = net.add_host("b", 10 * GBPS, "core")
        arrival = net.deliver(a, b, 12_500, lambda: None)  # 100 kbit
        # ~10ms serialisation at the sender's 10 Mbps NIC
        assert arrival > 10_000

    def test_duplicate_host_rejected(self):
        engine = Engine()
        net = Network(engine)
        net.add_host("a")
        with pytest.raises(SimulationError):
            net.add_host("a")


class _ReferenceLimiter:
    """The parent's ``RateLimiter.transmit``, verbatim."""

    def __init__(self, rate_bps):
        self.rate_bps = rate_bps
        self.busy_until = 0.0

    def transmit(self, now_us, nbytes):
        wire_bytes = nbytes * WIRE_OVERHEAD
        start = max(now_us, self.busy_until)
        end = start + transmission_time_us(wire_bytes, self.rate_bps)
        self.busy_until = end
        return end


class _ReferenceNetwork:
    """``Network.deliver`` as it was before the per-pair path cache:
    three ``transmit`` calls per frame, the trunk looked up by the
    unordered pair of segments on every frame."""

    def __init__(self, trunk_rate_bps):
        self.trunk_rate_bps = trunk_rate_bps
        self.tx = {}
        self.rx = {}
        self.trunks = {}

    def add_host(self, name, rate_bps):
        self.tx[name] = _ReferenceLimiter(rate_bps)
        self.rx[name] = _ReferenceLimiter(rate_bps)

    def deliver(self, now, src, dst, nbytes):
        depart = self.tx[src.name].transmit(now, nbytes)
        if src.segment != dst.segment:
            key = frozenset((src.segment, dst.segment))
            if key not in self.trunks:
                self.trunks[key] = _ReferenceLimiter(self.trunk_rate_bps)
            depart = self.trunks[key].transmit(depart + HOP_LATENCY_US, nbytes)
        return self.rx[dst.name].transmit(depart + HOP_LATENCY_US, nbytes)


#: (NIC rate, segment index) per host; a run uses 1-3 segments.
_hosts = st.lists(
    st.tuples(st.sampled_from((1 * GBPS, 10 * GBPS)), st.integers(0, 2)),
    min_size=2,
    max_size=5,
)
#: (src index, dst index, payload bytes, clock advance before the send).
_sends = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(0, 64 * 1024),
        st.one_of(st.just(0.0), st.floats(0.001, 2_000.0)),
    ),
    max_size=40,
)


class TestDeliverDifferential:
    """``Network.deliver`` against the reference above: the same sends
    give the same arrival times and leave every NIC and trunk busy until
    the same instant, compared with ``==``.  A trunk is shared by both
    directions of a segment pair, so a path cache that gave each
    direction its own trunk fails here."""

    @settings(max_examples=150, deadline=None)
    @given(_hosts, _sends, st.integers(1, 3))
    def test_same_arrivals_and_busy_times(self, hosts, sends, segments):
        engine = Engine()
        net = Network(engine, trunk_rate_bps=20 * GBPS)
        ref = _ReferenceNetwork(20 * GBPS)
        nodes = []
        for index, (rate, segment) in enumerate(hosts):
            name = f"h{index}"
            nodes.append(net.add_host(name, rate, f"s{segment % segments}"))
            ref.add_host(name, rate)
        fired = []
        expected = []
        for index, (src, dst, nbytes, advance) in enumerate(sends):
            engine.run(until=engine.now + advance)
            src, dst = nodes[src % len(nodes)], nodes[dst % len(nodes)]
            want = ref.deliver(engine.now, src, dst, nbytes)
            got = net.deliver(
                src, dst, nbytes, lambda i, n: fired.append((i, n, engine.now)),
                index, nbytes,
            )
            assert got == want
            expected.append((index, nbytes, want))
        engine.run()
        # Each callback fires once, with its arguments, at its arrival
        # time; same-time arrivals fire in send order.
        assert fired == sorted(expected, key=lambda e: (e[2], e[0]))
        for node in nodes:
            assert node.tx.busy_until == ref.tx[node.name].busy_until
            assert node.rx.busy_until == ref.rx[node.name].busy_until
        assert {
            key: trunk.busy_until for key, trunk in net._trunks.items()
        } == {key: trunk.busy_until for key, trunk in ref.trunks.items()}


class TestTcp:
    def _pair(self):
        engine = Engine()
        net = TcpNetwork(engine)
        a = net.add_host("a", 1 * GBPS, "edge")
        b = net.add_host("b", 10 * GBPS, "core")
        return engine, net, a, b

    def test_connect_and_exchange(self):
        engine, net, a, b = self._pair()
        server_got, client_got = [], []

        def accept(sock):
            sock.on_receive(server_got.append)
            sock.on_receive  # noqa: B018 - attribute exists
            sock.send(b"pong")

        net.listen(b, 80, accept)
        net.connect(a, b, 80, lambda s: (s.on_receive(client_got.append), s.send(b"ping")))
        engine.run()
        assert server_got == [b"ping"]
        assert client_got == [b"pong"]

    def test_connection_refused(self):
        engine, net, a, b = self._pair()
        with pytest.raises(SimulationError):
            net.connect(a, b, 9999, lambda s: None)

    def test_eof_delivered(self):
        engine, net, a, b = self._pair()
        closed = []

        def accept(sock):
            sock.on_receive(lambda d: None)
            sock.on_close(lambda: closed.append(engine.now))

        net.listen(b, 80, accept)
        net.connect(a, b, 80, lambda s: s.close())
        engine.run()
        assert len(closed) == 1

    def test_data_buffered_until_callback_registered(self):
        engine, net, a, b = self._pair()
        got = []
        sockets = []
        net.listen(b, 80, sockets.append)
        net.connect(a, b, 80, lambda s: s.send(b"early"))
        engine.run()
        sockets[0].on_receive(got.append)
        engine.run()  # buffered flush is deferred through the engine
        assert got == [b"early"]

    def test_send_on_closed_socket_rejected(self):
        engine, net, a, b = self._pair()
        net.listen(b, 80, lambda s: None)
        client = []
        net.connect(a, b, 80, client.append)
        engine.run()
        client[0].close()
        with pytest.raises(SimulationError):
            client[0].send(b"nope")

    def test_duplicate_listen_rejected(self):
        engine, net, a, b = self._pair()
        net.listen(b, 80, lambda s: None)
        with pytest.raises(SimulationError):
            net.listen(b, 80, lambda s: None)


class TestTcpCallbackDelivery:
    """Data and EOF delivery must be engine-ordered and stream-ordered:
    buffered chunks flush on a deferred tick, EOF never precedes data
    that arrived before it, and registration order cannot invert them."""

    def _pair(self):
        engine = Engine()
        net = TcpNetwork(engine)
        a = net.add_host("a", 1 * GBPS, "edge")
        b = net.add_host("b", 10 * GBPS, "core")
        return engine, net, a, b

    def _arrived(self, send_close=True):
        """A server socket holding buffered data (+ peer EOF), no
        callbacks registered yet."""
        engine, net, a, b = self._pair()
        sockets = []
        net.listen(b, 80, sockets.append)

        def connected(sock):
            sock.send(b"payload")
            if send_close:
                sock.close()

        net.connect(a, b, 80, connected)
        engine.run()
        return engine, sockets[0]

    def test_close_then_receive_registration_still_data_first(self):
        # Seed bug: on_close deferred while on_receive flushed
        # synchronously, so ordering depended on registration order.
        # Registering on_close *first* must still deliver data first.
        engine, sock = self._arrived()
        order = []
        sock.on_close(lambda: order.append("close"))
        sock.on_receive(lambda data: order.append(("data", data)))
        engine.run()
        assert order == [("data", b"payload"), "close"]

    def test_receive_then_close_registration_same_order(self):
        engine, sock = self._arrived()
        order = []
        sock.on_receive(lambda data: order.append(("data", data)))
        sock.on_close(lambda: order.append("close"))
        engine.run()
        assert order == [("data", b"payload"), "close"]

    def test_buffered_flush_is_deferred_not_synchronous(self):
        engine, sock = self._arrived(send_close=False)
        got = []
        sock.on_receive(got.append)
        assert got == []  # flush rides the engine, not the registration
        engine.run()
        assert got == [b"payload"]

    def test_eof_withheld_until_buffered_data_drained(self):
        # Stream semantics: EOF must not be observable while earlier
        # bytes sit undelivered in the receive buffer. The seed fired
        # the close callback regardless, so a late on_receive
        # registration saw EOF before the data that preceded it.
        engine, sock = self._arrived()
        order = []
        sock.on_close(lambda: order.append("close"))
        engine.run()
        assert order == []  # data still buffered: EOF withheld
        sock.on_receive(lambda data: order.append(("data", data)))
        engine.run()
        assert order == [("data", b"payload"), "close"]

    def test_bytes_in_flight_after_local_close_are_dropped(self):
        engine, net, a, b = self._pair()
        server_sockets = []
        received = []

        def accept(sock):
            sock.on_receive(received.append)
            server_sockets.append(sock)

        net.listen(b, 80, accept)
        clients = []
        net.connect(a, b, 80, clients.append)
        engine.run()
        server = server_sockets[0]
        clients[0].send(b"in flight")
        server.closed = True  # local close races the delivery
        engine.run()
        assert received == []  # never delivered...
        assert not server._recv_buffer  # ...nor kept for later


class TestTcpLetsGo:
    """A socket drops every reference it can never use again, so a
    closed connection is freed by reference counting even though its
    two ends point at each other and their owners' callbacks capture
    them — and nothing it delivers changes."""

    def _connected(self, events):
        engine = Engine()
        net = TcpNetwork(engine)
        a = net.add_host("a", 1 * GBPS, "edge")
        b = net.add_host("b", 10 * GBPS, "core")
        ends = []
        net.listen(b, 80, ends.append)
        net.connect(a, b, 80, ends.append)
        engine.run()
        server, client = ends
        ends.clear()  # the listener keeps the list
        for name, sock in (("server", server), ("client", client)):
            # Owners capture their socket, as a server answering on it
            # does: a cycle the socket itself must break.
            sock.on_receive(
                lambda data, n=name, s=sock: events.append((n, data, s.closed))
            )
            sock.on_close(
                lambda n=name, s=sock: (events.append((n, "eof")), s.close())
            )
        return engine, client, server

    @pytest.mark.parametrize("first", ["client", "server"])
    def test_a_closed_connection_is_freed_by_reference_counting(self, first):
        events = []
        gc.disable()
        try:
            engine, client, server = self._connected(events)
            closer, other = (client, server) if first == "client" else (
                server, client
            )
            other.send(b"late")  # in flight while the closer closes
            closer.close()
            assert closer.peer is None and other.peer is closer
            engine.run()
            assert client.closed and server.closed
            assert client.peer is None and server.peer is None
            refs = [weakref.ref(client), weakref.ref(server)]
            del client, server, closer, other
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
        # The closer dropped the bytes in flight to it unread; the other
        # end heard EOF once and answered it with its own close.
        other_name = "server" if first == "client" else "client"
        assert events == [(other_name, "eof")]

    def test_a_close_callback_still_fires_after_a_local_close(self):
        """Both ends close in one tick.  The second closer sends no EOF
        (its peer is closed) but still hears the first closer's, which
        is in flight — input tasks charge their teardown on it — and
        then both ends have let go."""
        events = []
        engine, client, server = self._connected(events)
        client.close()
        server.close()
        engine.run()
        assert events == [("server", "eof")]
        for sock in (client, server):
            assert sock._recv_callback is None and sock._close_callback is None
