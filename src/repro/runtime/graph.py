"""Task-graph instantiation: from compiled process specs to live tasks.

A :class:`TaskGraph` is one instance of a FLICK process bound to real
(simulated) connections, matching Figure 3's shapes:

* **rule graphs** (HTTP load balancer, Memcached proxy): one input/output
  task pair per connection, one compute task executing the routing rules;
  each outbound (backend) leg — channel, output task, connection,
  return-path task — is built by the first value sent to it
  (:class:`_OutboundLeg`) and torn down with the graph.  FLICK does not
  pool backend connections, which section 6.3 of the paper gives as why
  its non-persistent kernel numbers trail Nginx.  The model charges an
  unpooled leg the handshake round trip before its first request
  leaves, and no connect CPU: of connection set-up, only the inbound
  accept costs the middlebox CPU.
* **foldt graphs** (Hadoop aggregator): one input task per mapper
  connection, a binary tree of merge tasks, and one output task to the
  reducer (Figure 3c: 8 inputs, 7 compute, 1 output).

A graph's references all point downstream (producer to consumer, graph
to task, task to socket) except three, each dropped at its last use:
every socket reader's end-of-stream callback (the graph's one close,
which drops them all), the compute task's handlers and send proxies
(which reach the graph through the outbound legs), and the socket
pairs themselves (see :mod:`repro.net.tcp`).  So a connection's graph,
tasks, channels, parsers and sockets are freed by reference counting
when it closes.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import RuntimeFlickError
from repro.lang.compiler import (
    CompiledProgram,
    ProcSpec,
    build_foldt_handler,
    build_rule_handler,
)
from repro.lang.values import Record
from repro.net.stackprofiles import StackProfile
from repro.runtime.channel import TaskChannel
from repro.runtime.costs import RuntimeConfig
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import (
    ChannelArrayView,
    ComputeTask,
    InputTask,
    MergeTask,
    OutputTask,
    RawForwardTask,
    _BufferingSendProxy,
)


class CodecRegistry:
    """Maps FLICK type names to wire codecs.

    ``parsers[type_name]()`` yields a fresh incremental parser;
    ``serializers[type_name](record)`` yields ``(bytes, ops)``.
    """

    def __init__(self):
        self._parsers: Dict[str, Callable[[], object]] = {}
        self._serializers: Dict[str, Callable[[Record], Tuple[bytes, float]]] = {}

    def register_parser(self, type_name: str, factory) -> None:
        self._parsers[type_name] = factory

    def register_serializer(self, type_name: str, fn) -> None:
        self._serializers[type_name] = fn

    def new_parser(self, type_name: str):
        try:
            return self._parsers[type_name]()
        except KeyError:
            raise RuntimeFlickError(
                f"no parser registered for type {type_name!r}"
            ) from None

    def serialize(self, record: Record) -> Tuple[bytes, float]:
        fn = self._serializers.get(record.type_name)
        if fn is None:
            raise RuntimeFlickError(
                f"no serializer registered for type {record.type_name!r}"
            )
        return fn(record)


class OutboundTarget:
    """A backend address an outbound endpoint connects to."""

    __slots__ = ("host", "port")

    def __init__(self, host, port: int):
        self.host = host
        self.port = port


class Bindings:
    """How a program's channel endpoints map onto the network.

    ``outbound`` lists backend targets per endpoint (arrays get one
    connection per target).  Endpoints not listed are inbound.  For foldt
    programs, ``group_size`` mapper connections are gathered into one
    graph.  ``value_params(socket)`` supplies non-channel process
    parameters (e.g. a ``conn_info`` record for LB hashing).
    """

    def __init__(
        self,
        outbound: Optional[Dict[str, List[OutboundTarget]]] = None,
        group_size: int = 1,
        value_params: Optional[Callable[[object], Dict[str, object]]] = None,
        native_foldt: Optional[Tuple[Callable, Callable]] = None,
    ):
        self.outbound = outbound or {}
        self.group_size = group_size
        self.value_params = value_params
        #: Optional (key_fn, combine_fn) pair overriding the interpreted
        #: foldt body — the platform's "custom implementation for
        #: performance reasons" (§4.3).  combine_fn(left, right) returns
        #: (record, ops).  Must be observationally equivalent to the FLICK
        #: body (property-tested).
        self.native_foldt = native_foldt


class _OutboundLeg(_BufferingSendProxy):
    """One outbound (backend) connection of a rule graph, and the send
    proxy FLICK code holds for it.

    ``bind_client`` builds one per target, and all a leg takes there is
    its output task's id: ids drive hash placement, so the leg takes it
    from the run's engine where an eagerly built task would have.  The
    channel, the :class:`OutputTask` and the connection exist from the
    first value sent on, the return-path task once the connection is
    established — a connection that talks to one of ten backends builds
    one leg's worth of objects, not ten.
    """

    __slots__ = (
        "_graph", "_ep", "_index", "_target", "_task_id", "_out_task"
    )

    def __init__(
        self, graph: "TaskGraph", ep, index: int, target: OutboundTarget
    ):
        super().__init__(None)
        self._graph = graph
        self._ep = ep
        self._index = index
        self._target = target
        self._task_id = next(graph._task_ids)
        self._out_task: Optional[OutputTask] = None

    def _sink(self, value) -> None:
        # However many values arrive before the handshake completes,
        # only the first finds no channel, so the leg opens once.
        if self._chan is None:
            self._open()
        self._chan.push(value)
        self.wake()

    def _open(self) -> None:
        graph, ep, target = self._graph, self._ep, self._target
        name = f"{ep.name}[{self._index}].out"
        self._chan = TaskChannel(name)
        self._out_task = OutputTask(
            f"g{graph.graph_id}:{name}",
            self._chan,
            graph.registry.serialize,
            graph.stack,
            graph.config.cores,
            task_id=self._task_id,
        )
        graph._wire(self, self._out_task)
        graph._add_task(self._out_task, endpoint=ep.name)
        graph.tcpnet.connect(
            graph.host, target.host, target.port, self._connected
        )

    def _connected(self, socket) -> None:
        graph, ep, index = self._graph, self._ep, self._index
        if graph.finished:
            # The connection ended during the handshake: ``_close`` has
            # closed every outbound socket it knew of, so close this one
            # the same way and build nothing that would read it.
            socket.close()
            return
        graph._outbound_sockets.append(socket)
        self._out_task.bind_socket(socket)
        if ep.readable:
            raw_sink = graph._raw_forward.get(ep.name)
            if raw_sink is not None:
                sink_task = graph._endpoint_out_tasks[raw_sink]
                in_task = RawForwardTask(
                    f"g{graph.graph_id}:{ep.name}[{index}].fwd",
                    sink_task.inbox,
                    graph.stack,
                    graph.config.cores,
                    on_eof=graph._close,
                    task_id=next(graph._task_ids),
                )
                graph._wire(in_task, sink_task)
            else:
                in_task = InputTask(
                    f"g{graph.graph_id}:{ep.name}[{index}].in",
                    graph.registry.new_parser(ep.read_type),
                    graph.compute.inbox,
                    graph.stack,
                    graph.config.cores,
                    tag=(ep.name, index),
                    on_eof=graph._close,
                    task_id=next(graph._task_ids),
                    owns_out=False,
                )
                graph._wire(in_task, graph.compute)
            in_task.attach(socket, graph.scheduler.notify_runnable)
            graph._add_task(in_task, endpoint=ep.name)
            graph._readers.append(in_task)
        graph.scheduler.notify_runnable(self._out_task)


class TaskGraph:
    """One live instance of a compiled FLICK process."""

    def __init__(
        self,
        program: CompiledProgram,
        spec: ProcSpec,
        scheduler: Scheduler,
        tcpnet,
        platform_host,
        registry: CodecRegistry,
        stack: StackProfile,
        config: RuntimeConfig,
        bindings: Bindings,
        globals_store: Dict[str, object],
        on_finished: Optional[Callable[["TaskGraph"], None]] = None,
    ):
        self.graph_id = next(scheduler.engine.graph_ids)
        self._task_ids = scheduler.engine.task_ids
        self.program = program
        self.spec = spec
        self.scheduler = scheduler
        self.tcpnet = tcpnet
        self.host = platform_host
        self.registry = registry
        self.stack = stack
        self.config = config
        self.bindings = bindings
        self.globals_store = globals_store
        self.on_finished = on_finished
        self.tasks: List = []
        self.compute: Optional[ComputeTask] = None
        self._client_socket = None
        self._client_in: Optional[InputTask] = None
        self._readers: List = []  # every task whose ``on_eof`` is the close
        self._outbound_sockets: List = []
        self._finished = False

    # -- helpers ------------------------------------------------------------

    def _add_task(self, task, endpoint: Optional[str] = None) -> None:
        service_class = None
        if self.config.service_classes is not None:
            service_class = self.config.service_classes.class_for(endpoint)
        if service_class is not None:
            # Per-endpoint QoS tier: the class SLO overrides the
            # platform-wide one, and weighted policies read the class
            # weight off the task.
            task.service_class = service_class
            task.slo_us = service_class.slo_us
        elif self.config.slo_us is not None:
            # Per-connection SLO: every task serving this connection
            # inherits the platform SLO, which the 'deadline' scheduling
            # policy turns into an EDF deadline at admission.
            task.slo_us = self.config.slo_us
        self.tasks.append(task)

    def _wire(self, producer, consumer) -> None:
        """``producer`` wakes ``consumer`` whenever it feeds it."""
        producer.wake = partial(self.scheduler.notify_runnable, consumer)

    # -- rule graphs (Figure 3a / 3b) ------------------------------------------

    def bind_client(self, client_socket) -> None:
        """Wire a per-connection rule graph around ``client_socket``."""
        spec = self.spec
        if spec.foldt is not None:
            raise RuntimeFlickError(
                f"process {spec.name!r} is a foldt aggregation; use "
                "bind_group"
            )
        client_endpoints = [
            ep for ep in spec.endpoints if ep.name not in self.bindings.outbound
        ]
        if len(client_endpoints) != 1 or client_endpoints[0].is_array:
            raise RuntimeFlickError(
                f"process {spec.name!r}: rule graphs need exactly one "
                "inbound (client) endpoint"
            )
        client_ep = client_endpoints[0]

        self._client_socket = client_socket
        inbox = TaskChannel("compute.in")
        compute = ComputeTask(
            f"g{self.graph_id}:compute", inbox, task_id=next(self._task_ids)
        )
        self.compute = compute
        # The compute stage serves the client connection: it inherits
        # the client endpoint's service class, so class-aware policies
        # and per-class accounting cover the request processing itself,
        # not just the socket tasks around it.
        self._add_task(compute, endpoint=client_ep.name)
        # Endpoints whose rules all have the shape ``src => sink`` (no
        # function stages) qualify for the raw-forwarding fast path.
        self._raw_forward: Dict[str, str] = {}
        rules_by_source: Dict[str, List] = {}
        for rule in spec.rules:
            rules_by_source.setdefault(rule.source, []).append(rule)
        for source, rules in rules_by_source.items():
            if len(rules) == 1 and not rules[0].stages and rules[0].sink:
                self._raw_forward[source] = rules[0].sink
        self._endpoint_out_tasks: Dict[str, OutputTask] = {}

        context: Dict[str, object] = dict(self.globals_store)

        # Client-facing output task (responses back to the client).
        if client_ep.writable:
            out_chan = TaskChannel(f"{client_ep.name}.out")
            out_task = OutputTask(
                f"g{self.graph_id}:{client_ep.name}.out",
                out_chan,
                self.registry.serialize,
                self.stack,
                self.config.cores,
                close_on_eos=True,
                task_id=next(self._task_ids),
            )
            out_task.bind_socket(client_socket)
            self._add_task(out_task, endpoint=client_ep.name)
            self._endpoint_out_tasks[client_ep.name] = out_task
            proxy = _BufferingSendProxy(out_chan)
            self._wire(proxy, out_task)
            compute.register_proxy(proxy)
            context[client_ep.name] = proxy

        # Outbound endpoints (backends): one lazy leg per target.
        for ep in spec.endpoints:
            targets = self.bindings.outbound.get(ep.name)
            if targets is None:
                continue
            proxies = [
                _OutboundLeg(self, ep, index, target)
                for index, target in enumerate(targets)
            ]
            for proxy in proxies:
                compute.register_proxy(proxy)
            context[ep.name] = (
                ChannelArrayView(proxies) if ep.is_array else proxies[0]
            )

        # Client-facing input task.
        if client_ep.readable:
            in_task = InputTask(
                f"g{self.graph_id}:{client_ep.name}.in",
                self.registry.new_parser(client_ep.read_type),
                inbox,
                self.stack,
                self.config.cores,
                tag=(client_ep.name, 0),
                on_eof=self._close,
                task_id=next(self._task_ids),
            )
            self._wire(in_task, compute)
            in_task.attach(client_socket, self.scheduler.notify_runnable)
            self._add_task(in_task, endpoint=client_ep.name)
            self._client_in = in_task
            self._readers.append(in_task)

        # Value parameters (non-channel process arguments).
        if self.bindings.value_params is not None:
            context.update(self.bindings.value_params(client_socket))

        # Install rule handlers with the completed context; raw-forwarded
        # endpoints bypass the compute task entirely.
        for rule in spec.rules:
            if rule.source in self._raw_forward:
                continue
            handler_context = dict(context)
            if rule.sink is not None:
                sink_obj = handler_context.get(rule.sink)
                if sink_obj is None:
                    raise RuntimeFlickError(
                        f"rule sink {rule.sink!r} is not bound"
                    )
            compute.add_handler(
                rule.source,
                build_rule_handler(self.program, rule, handler_context),
            )

    # -- foldt graphs (Figure 3c) --------------------------------------------------

    def bind_group(self, mapper_sockets: List, sink_socket) -> None:
        """Wire a foldt combine tree over ``mapper_sockets``."""
        spec = self.spec
        plan = spec.foldt
        if plan is None:
            raise RuntimeFlickError(
                f"process {spec.name!r} has no foldt aggregation"
            )
        source_ep = spec.endpoint(plan.source)
        handler = build_foldt_handler(self.program, plan)
        if self.bindings.native_foldt is not None:
            key_fn, combine_fn = self.bindings.native_foldt
        else:
            key_fn, combine_fn = handler.key, handler.combine_with_ops

        # Leaf input tasks, one per mapper connection.  Each stream is a
        # channel and the producer that feeds it (and wakes its reader).
        streams: List[Tuple[TaskChannel, object]] = []
        for index, socket in enumerate(mapper_sockets):
            chan = TaskChannel(f"{plan.source}[{index}]")
            in_task = InputTask(
                f"g{self.graph_id}:{plan.source}[{index}].in",
                self.registry.new_parser(source_ep.read_type),
                chan,
                self.stack,
                self.config.cores,
                task_id=next(self._task_ids),
            )
            in_task.attach(socket, self.scheduler.notify_runnable)
            self._add_task(in_task, endpoint=plan.source)
            streams.append((chan, in_task))

        # Pairwise merge tree.
        level = 0
        while len(streams) > 1:
            next_streams: List[Tuple[TaskChannel, object]] = []
            for pair_idx in range(0, len(streams) - 1, 2):
                (left, left_producer), (right, right_producer) = (
                    streams[pair_idx : pair_idx + 2]
                )
                out = TaskChannel(f"merge.l{level}.{pair_idx // 2}")
                merge = MergeTask(
                    f"g{self.graph_id}:merge.l{level}.{pair_idx // 2}",
                    left,
                    right,
                    out,
                    key_fn,
                    combine_fn,
                    task_id=next(self._task_ids),
                )
                self._wire(left_producer, merge)
                self._wire(right_producer, merge)
                self._add_task(merge)
                next_streams.append((out, merge))
            if len(streams) % 2:
                next_streams.append(streams[-1])
            streams = next_streams
            level += 1

        last, last_producer = streams[0]
        out_task = OutputTask(
            f"g{self.graph_id}:{plan.sink}.out",
            last,
            self.registry.serialize,
            self.stack,
            self.config.cores,
            close_on_eos=True,
            task_id=next(self._task_ids),
        )
        out_task.bind_socket(sink_socket)
        self._wire(last_producer, out_task)
        self._add_task(out_task, endpoint=plan.sink)

    # -- close ----------------------------------------------------------------

    def _close(self) -> None:
        """The connection's one close, every socket reader's ``on_eof``:
        the backend sockets close and each ``on_eof`` goes (it would pin
        the graph).  After the client's EOF, its input task charges the
        teardown and the client socket closes now.  After a backend's,
        the client is no longer read and the compute and client output
        channels close: the client output task writes what came before
        the EOF, then closes the client and charges the teardown."""
        if self._finished:
            return
        self._finished = True
        for reader in self._readers:
            reader.on_eof = None
        for socket in self._outbound_sockets:
            socket.close()
        self._outbound_sockets = []
        if self._client_in.eof_seen:
            self._client_socket.close()
        else:
            self._client_in.detach(self._client_socket)
            for task in (self.compute, *self._endpoint_out_tasks.values()):
                if task.inbox.close():
                    self.scheduler.notify_runnable(task)
        if self.on_finished is not None:
            self.on_finished(self)

    @property
    def finished(self) -> bool:
        return self._finished
