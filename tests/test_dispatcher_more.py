"""Deeper dispatcher tests: accept costs, pool economics, grouping."""

from repro.runtime.costs import GRAPH_BUILD_US, GRAPH_RECYCLE_US
from repro.runtime.dispatcher import DispatcherTask, GraphDispatcher


class _FakeGraph:
    def __init__(self, log):
        self._log = log

    def bind_client(self, socket):
        self._log.append(("bind", socket))

    def bind_group(self, sockets, sink):
        self._log.append(("group", tuple(sockets), sink))


class TestGraphDispatcher:
    def test_assign_cost_reflects_pool_state(self):
        dispatcher = GraphDispatcher(lambda: None, pool_size=1)
        assert dispatcher.assign_cost_us() == GRAPH_RECYCLE_US  # pool hit
        assert dispatcher.assign_cost_us() == GRAPH_BUILD_US  # pool miss

    def test_graph_finished_refills_pool(self):
        log = []
        dispatcher = GraphDispatcher(lambda: _FakeGraph(log), pool_size=1)
        dispatcher.assign_cost_us()  # drain the pool
        dispatcher.assign("sock")
        dispatcher.graph_finished(object())
        assert dispatcher.assign_cost_us() == GRAPH_RECYCLE_US

    def test_graph_finished_refills_no_more_than_the_pool_size(self):
        dispatcher = GraphDispatcher(lambda: None, pool_size=1)
        dispatcher.graph_finished(object())  # the pool is already full
        assert dispatcher.assign_cost_us() == GRAPH_RECYCLE_US
        assert dispatcher.assign_cost_us() == GRAPH_BUILD_US

    def test_zero_pool_always_builds(self):
        dispatcher = GraphDispatcher(lambda: None, pool_size=0)
        dispatcher.graph_finished(object())
        assert dispatcher.assign_cost_us() == GRAPH_BUILD_US

    def test_rule_graph_per_connection(self):
        log = []
        dispatcher = GraphDispatcher(lambda: _FakeGraph(log), pool_size=4)
        dispatcher.assign("s1")
        dispatcher.assign("s2")
        assert log == [("bind", "s1"), ("bind", "s2")]

    def test_foldt_groups_connections(self):
        log = []
        captured = []

        def sink_connector(bind):
            captured.append(bind)

        dispatcher = GraphDispatcher(
            lambda: _FakeGraph(log),
            pool_size=4,
            group_size=3,
            sink_connector=sink_connector,
        )
        dispatcher.assign("m0")
        dispatcher.assign("m1")
        assert not log and not captured  # still gathering
        dispatcher.assign("m2")
        assert len(captured) == 1
        captured[0]("reducer_sock")  # sink connection established
        assert log == [("group", ("m0", "m1", "m2"), "reducer_sock")]

    def test_second_group_starts_fresh(self):
        log = []
        dispatcher = GraphDispatcher(
            lambda: _FakeGraph(log),
            pool_size=4,
            group_size=2,
            sink_connector=lambda bind: bind("sink"),
        )
        for sock in ("a", "b", "c", "d"):
            dispatcher.assign(sock)
        assert log == [
            ("group", ("a", "b"), "sink"),
            ("group", ("c", "d"), "sink"),
        ]


class TestDispatcherTask:
    def _make(self, accept_us=10.0, pool_size=8):
        log = []
        dispatcher = GraphDispatcher(lambda: _FakeGraph(log), pool_size)
        task = DispatcherTask("d", dispatcher, accept_us, task_id=1)
        return task, dispatcher, log

    def test_step_charges_accept_and_assignment(self):
        task, dispatcher, log = self._make(accept_us=10.0)
        task.enqueue("s1")
        elapsed, emissions = task.step(None)
        assert elapsed == 10.0 + GRAPH_RECYCLE_US
        assert not log  # deferred until emissions run
        for emit in emissions:
            emit()
        assert log == [("bind", "s1")]

    def test_budget_zero_accepts_one(self):
        task, dispatcher, _ = self._make()
        for sock in ("a", "b", "c"):
            task.enqueue(sock)
        _, emissions = task.step(0.0)
        assert len(emissions) == 1
        assert task.has_work()

    def test_budget_limits_batch(self):
        task, dispatcher, _ = self._make(accept_us=40.0)
        for sock in "abcdef":
            task.enqueue(sock)
        elapsed, emissions = task.step(100.0)
        assert len(emissions) < 6
        assert elapsed >= 100.0

    def test_drains_fully_without_budget(self):
        task, dispatcher, log = self._make()
        for sock in "abcd":
            task.enqueue(sock)
        _, emissions = task.step(None)
        for emit in emissions:
            emit()
        assert len(log) == 4
        assert not task.has_work()
