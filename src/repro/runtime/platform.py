"""The FLICK platform: programs, dispatchers, scheduler, TCP stack.

Ties together every section-5 component: compiled programs are registered
under a listening port; the application dispatcher feeds accepted
connections through per-core :class:`DispatcherTask` objects to the graph
dispatcher, which binds task graphs; the cooperative scheduler executes
all tasks on the configured number of simulated cores using the selected
TCP stack cost profile (kernel or mTCP).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.errors import RuntimeFlickError
from repro.lang.compiler import CompiledProgram
from repro.net.simnet import Host
from repro.net.stackprofiles import StackProfile, profile
from repro.net.tcp import TcpNetwork
from repro.runtime.costs import RuntimeConfig
from repro.runtime.dispatcher import DispatcherTask, GraphDispatcher
from repro.runtime.graph import Bindings, CodecRegistry, TaskGraph
from repro.runtime.scheduler import Scheduler
from repro.sim.engine import Engine


class ProgramInstance:
    """A registered FLICK program bound to a port on the platform."""

    def __init__(
        self,
        platform: "FlickPlatform",
        compiled: CompiledProgram,
        proc_name: str,
        port: int,
        bindings: Bindings,
    ):
        self.platform = platform
        self.compiled = compiled
        self.spec = compiled.proc(proc_name)
        self.port = port
        self.bindings = bindings
        # Long-term state shared by all instances of the process (§4.3).
        executor = compiled.executor()
        self.globals_store: Dict[str, object] = {
            name: executor.eval_const(init)
            for name, init in self.spec.globals
        }
        sink_connector = None
        if self.spec.foldt is not None:
            sink_target = bindings.outbound.get(self.spec.foldt.sink)
            if not sink_target:
                raise RuntimeFlickError(
                    f"foldt sink {self.spec.foldt.sink!r} needs an outbound "
                    "binding"
                )
            target = sink_target[0]

            def sink_connector(bind: Callable) -> None:
                platform.tcpnet.connect(
                    platform.host, target.host, target.port, bind
                )

        self.graph_dispatcher = GraphDispatcher(
            build_graph=self._build_graph,
            pool_size=platform.config.graph_pool_size,
            group_size=bindings.group_size,
            sink_connector=sink_connector,
        )
        accept_cost = platform.stack.accept_us + platform.stack.op_overhead_us(
            platform.config.cores
        )
        self._dispatch_tasks: List[DispatcherTask] = []
        for core in range(platform.config.cores):
            task = DispatcherTask(
                f"{proc_name}:dispatch{core}",
                self.graph_dispatcher,
                accept_cost=accept_cost,
                home_hint=core,
                task_id=next(platform.engine.task_ids),
            )
            self._dispatch_tasks.append(task)
        self._rr = 0

    def _build_graph(self) -> TaskGraph:
        return TaskGraph(
            program=self.compiled,
            spec=self.spec,
            scheduler=self.platform.scheduler,
            tcpnet=self.platform.tcpnet,
            platform_host=self.platform.host,
            registry=self.platform.registry,
            stack=self.platform.stack,
            config=self.platform.config,
            bindings=self.bindings,
            globals_store=self.globals_store,
            on_finished=self.graph_dispatcher.graph_finished,
        )

    def on_connection(self, socket) -> None:
        """Application-dispatcher entry: route an accepted connection."""
        task = self._dispatch_tasks[self._rr % len(self._dispatch_tasks)]
        self._rr += 1
        task.enqueue(socket)
        self.platform.scheduler.notify_runnable(task)


class FlickPlatform:
    """A FLICK middlebox on one simulated host.

    Everything tunable — cores, timeslice, scheduling policy (a name or
    a ready :class:`~repro.runtime.policy.SchedulingPolicy`), allocator,
    SLOs — comes from ``config``.
    """

    def __init__(
        self,
        engine: Engine,
        tcpnet: TcpNetwork,
        host: Host,
        config: Optional[RuntimeConfig] = None,
        registry: Optional[CodecRegistry] = None,
    ):
        self.engine = engine
        self.tcpnet = tcpnet
        self.host = host
        self.config = config or RuntimeConfig()
        self.registry = registry or CodecRegistry()
        self.stack: StackProfile = profile(self.config.stack)
        self.scheduler = Scheduler(
            engine,
            self.config.cores,
            policy=self.config.policy,
            topology=self.config.topology,
            allocator=self.config.allocator,
        )
        # Platform tunables the policy understands (e.g. the deadline
        # policy's SLO) are adopted after the scheduler reset the policy.
        self.scheduler.policy.configure(self.config)
        self.programs: Dict[str, ProgramInstance] = {}

    @property
    def scoreboard(self):
        """Per-service-class SLO accounting (the scheduler's
        :class:`~repro.sim.stats.SloScoreboard`)."""
        return self.scheduler.scoreboard

    def register_program(
        self,
        compiled: CompiledProgram,
        proc_name: str,
        port: int,
        bindings: Optional[Bindings] = None,
    ) -> ProgramInstance:
        """Register ``proc_name`` of ``compiled`` on ``port``."""
        if proc_name in self.programs:
            raise RuntimeFlickError(f"program {proc_name!r} already registered")
        instance = ProgramInstance(
            self, compiled, proc_name, port, bindings or Bindings()
        )
        self.programs[proc_name] = instance
        self.tcpnet.listen(self.host, port, instance.on_connection)
        return instance

    def start(self) -> None:
        self.scheduler.start()
