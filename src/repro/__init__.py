"""FLICK reproduction: an application-specific network-service framework.

Reimplementation of "FLICK: Developing and Running Application-Specific
Network Services" (USENIX ATC 2016): the FLICK DSL and compiler, the
grammar-driven message codec generator, the cooperatively scheduled
task-graph platform, the paper's three use cases, its baselines, and a
benchmark harness regenerating every figure.

Quickstart::

    from repro import compile_source

    program = compile_source('''
    type cmd: record
        key : string

    proc Echo: (cmd/cmd client)
        client => identity() => client

    fun identity: (req: cmd) -> (cmd)
        req
    ''')
    spec = program.proc("Echo")

See ``examples/`` for runnable end-to-end scenarios.
"""

from repro.lang import (
    CompiledProgram,
    Record,
    check_program,
    check_termination,
    compile_program,
    compile_source,
    parse,
)
from repro.runtime import (
    Bindings,
    CodecRegistry,
    FlickPlatform,
    OutboundTarget,
    RuntimeConfig,
    Scheduler,
    ServiceClass,
    ServiceClassMap,
)
from repro.sim.engine import Engine

__version__ = "1.0.0"

__all__ = [
    "CompiledProgram",
    "Record",
    "check_program",
    "check_termination",
    "compile_program",
    "compile_source",
    "parse",
    "Bindings",
    "CodecRegistry",
    "FlickPlatform",
    "OutboundTarget",
    "RuntimeConfig",
    "Scheduler",
    "ServiceClass",
    "ServiceClassMap",
    "Engine",
    "__version__",
]
