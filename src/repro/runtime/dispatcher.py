"""Application and graph dispatchers (section 5, items (i) and (ii)).

The **application dispatcher** owns the listening socket of a program
instance and maps incoming connections to it; accepting a connection is
CPU work (``stack.accept_us``) performed by :class:`DispatcherTask`
objects on the scheduler — one per core, mirroring SO_REUSEPORT-style
accept spreading (mTCP gives this per-core naturally).

The **graph dispatcher** assigns each accepted connection a task graph,
reusing a graph from the pre-allocated pool when possible; a pool miss
pays the full construction cost (``GRAPH_BUILD_US`` vs
``GRAPH_RECYCLE_US``), which the E12 row of ``repro.bench.figures``
measures.
For foldt programs it gathers ``group_size`` connections (the mappers)
into one graph per reducer.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from repro.runtime.costs import GRAPH_BUILD_US, GRAPH_RECYCLE_US
from repro.runtime.scheduler import TaskBase


class GraphDispatcher:
    """Assigns connections to graphs; pools finished graphs.

    The pre-allocated pool is a credit count: an assignment that finds a
    pooled graph takes a credit and pays ``GRAPH_RECYCLE_US``, one that
    finds none pays ``GRAPH_BUILD_US``, and a finished graph returns its
    credit, up to ``pool_size``.
    """

    def __init__(
        self,
        build_graph: Callable[[], object],
        pool_size: int,
        group_size: int = 1,
        sink_connector: Optional[Callable[[Callable], None]] = None,
    ):
        self._build_graph = build_graph
        self._pool_size = pool_size
        self._pooled = pool_size
        self.group_size = group_size
        self._sink_connector = sink_connector
        self._pending_group: List = []

    def assign_cost_us(self) -> float:
        """CPU cost of the next assignment (pool hit vs miss)."""
        if self._pooled > 0:
            self._pooled -= 1
            return GRAPH_RECYCLE_US
        return GRAPH_BUILD_US

    def assign(self, socket) -> None:
        """Attach ``socket`` to a (possibly new) task graph.

        Rule programs get one graph per connection; foldt programs (those
        with a sink connector) gather ``group_size`` connections — the
        mappers — into one combine-tree graph per reducer.
        """
        if self._sink_connector is None:
            self._build_graph().bind_client(socket)
            return
        self._pending_group.append(socket)
        if len(self._pending_group) < max(1, self.group_size):
            return
        sockets, self._pending_group = self._pending_group, []
        graph = self._build_graph()
        self._sink_connector(
            lambda sink_socket: graph.bind_group(sockets, sink_socket)
        )

    def graph_finished(self, graph) -> None:
        if self._pooled < self._pool_size:
            self._pooled += 1


class DispatcherTask(TaskBase):
    """Scheduler task that performs accept + graph assignment work.

    ``home_hint`` pins the task to one worker through the scheduling
    policy's ``place`` hook — the platform creates one dispatch task per
    core and pins each to its core (SO_REUSEPORT-style accept
    spreading), rather than leaving placement to the id hash.
    """

    def __init__(
        self,
        name: str,
        graph_dispatcher: GraphDispatcher,
        accept_cost: float,
        home_hint: Optional[int] = None,
        *,
        task_id: int,
    ):
        super().__init__(name, task_id)
        self._dispatcher = graph_dispatcher
        self._accept_cost = accept_cost
        self.home_hint = home_hint
        self._pending = deque()

    def enqueue(self, socket) -> None:
        self._pending.append(socket)

    def has_work(self) -> bool:
        return bool(self._pending)

    def step(self, budget_us: Optional[float]):
        elapsed = 0.0
        emissions: List[Callable[[], None]] = []
        dispatcher = self._dispatcher
        while self._pending:
            socket = self._pending.popleft()
            elapsed += self._accept_cost + dispatcher.assign_cost_us()
            emissions.append(lambda s=socket: dispatcher.assign(s))
            if budget_us is not None and elapsed >= budget_us:
                break
        self.busy_us += elapsed
        return elapsed, emissions
