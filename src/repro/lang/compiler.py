"""Compiler from FLICK programs to task-graph specifications.

The paper's compiler translates FLICK to C++ task graphs (section 5).
Here compilation produces a :class:`CompiledProgram` holding, for every
process, a :class:`ProcSpec`:

* the process's **endpoint signature** (named channel parameters with
  direction, element type and arity),
* **routing rules** — one per pipeline statement, each with its source
  endpoint, function stages (with bound-argument evaluators) and optional
  sink endpoint,
* an optional **foldt plan** describing the binary combine-tree the
  runtime instantiates for parallel aggregation (Figure 3c), and
* **global state** initialisers (the long-term key/value store of §4.3).

The runtime (``repro.runtime.graph``) turns a ``ProcSpec`` plus a set of
live connections into an executable task graph.  Compute-task handlers
execute the rule stages as generated Python (``repro.lang.codegen``, the
stand-in for the paper's generated C++) and report per-message operation
counts for virtual-time charging.  :meth:`CompiledProgram.executor` is
the one seam everything that runs FLICK code goes through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.errors import FlickError, FlickTypeError
from repro.lang import ast
from repro.lang import types as ty
from repro.lang.codegen import (
    CompiledExec,
    CompiledFoldTHandler,
    CompiledRuleHandler,
)
from repro.lang.parser import parse
from repro.lang.termination import check_termination
from repro.lang.typecheck import CheckedProgram, check_program


@dataclass(frozen=True)
class EndpointSpec:
    """One channel parameter of a process signature."""

    name: str
    readable: bool
    writable: bool
    is_array: bool
    read_type: Optional[str]  # record/primitive type name, if readable
    write_type: Optional[str]


@dataclass(frozen=True)
class StageSpec:
    """A function stage of a pipeline rule with its bound arguments."""

    func: str
    bound_args: Tuple[ast.Expr, ...]


@dataclass(frozen=True)
class RuleSpec:
    """A routing rule: ``source => stage* => sink?``."""

    source: str
    stages: Tuple[StageSpec, ...]
    sink: Optional[str]


@dataclass(frozen=True)
class FoldTPlan:
    """Plan for a foldt combine tree over a channel-array endpoint."""

    source: str
    sink: str
    expr: ast.FoldTExpr


@dataclass
class ProcSpec:
    """Everything the runtime needs to instantiate one process."""

    name: str
    endpoints: Tuple[EndpointSpec, ...]
    rules: Tuple[RuleSpec, ...]
    globals: Tuple[Tuple[str, ast.Expr], ...]
    foldt: Optional[FoldTPlan] = None

    def endpoint(self, name: str) -> EndpointSpec:
        for ep in self.endpoints:
            if ep.name == name:
                return ep
        raise KeyError(name)


@dataclass
class CompiledProgram:
    """A fully checked and lowered FLICK program."""

    checked: CheckedProgram
    procs: Dict[str, ProcSpec]

    def __post_init__(self):
        # Not a dataclass field: purely a cache, invisible to repr/eq.
        self._codegen: Optional[CompiledExec] = None

    def executor(self) -> CompiledExec:
        """The program's generated code, built on first use.

        Everything that runs FLICK code — global initialisers
        (``eval_const``), ``rule_handler`` and ``foldt_handler`` — goes
        through the object returned here.
        """
        if self._codegen is None:
            self._codegen = CompiledExec(self.checked)
        return self._codegen

    def proc(self, name: str) -> ProcSpec:
        try:
            return self.procs[name]
        except KeyError:
            raise FlickError(f"program has no process {name!r}") from None

    def accessed_fields(self, record_name: str) -> frozenset:
        return self.checked.accessed_fields.get(record_name, frozenset())


class Compiler:
    """Lowers a checked program to :class:`CompiledProgram`."""

    def __init__(self, checked: CheckedProgram):
        self._checked = checked

    def compile(self) -> CompiledProgram:
        procs: Dict[str, ProcSpec] = {}
        for proc in self._checked.program.procs:
            procs[proc.name] = self._compile_proc(proc)
        return CompiledProgram(self._checked, procs)

    # -- processes ------------------------------------------------------------

    def _compile_proc(self, proc: ast.ProcDecl) -> ProcSpec:
        endpoints = tuple(
            self._endpoint(name, t)
            for name, t in self._checked.proc_params[proc.name]
            if isinstance(ty.strip_ref(t), ty.ChannelEndType)
        )
        rules: List[RuleSpec] = []
        globals_: List[Tuple[str, ast.Expr]] = []
        foldt: Optional[FoldTPlan] = None
        for stmt in proc.body:
            if isinstance(stmt, ast.GlobalDecl):
                globals_.append((stmt.name, stmt.init))
            elif isinstance(stmt, ast.PipelineStmt):
                rules.append(self._compile_rule(proc.name, stmt))
            elif isinstance(stmt, ast.IfStmt):
                plan = self._extract_foldt(proc.name, stmt)
                if plan is not None:
                    if foldt is not None:
                        raise FlickTypeError(
                            f"process {proc.name!r} has multiple foldt "
                            "expressions; one combine tree per process",
                            stmt.location,
                        )
                    foldt = plan
                else:
                    raise FlickTypeError(
                        f"process {proc.name!r}: top-level if statements "
                        "must guard a foldt aggregation",
                        stmt.location,
                    )
            elif isinstance(stmt, ast.LetStmt) and isinstance(
                stmt.value, ast.FoldTExpr
            ):
                raise FlickTypeError(
                    "foldt must be guarded by all_ready(...) and routed to "
                    "a sink channel",
                    stmt.location,
                )
            else:
                raise FlickTypeError(
                    f"unsupported process-body statement in {proc.name!r}",
                    getattr(stmt, "location", None),
                )
        return ProcSpec(
            proc.name, endpoints, tuple(rules), tuple(globals_), foldt
        )

    @staticmethod
    def _endpoint(name: str, t: ty.Type) -> EndpointSpec:
        chan = ty.strip_ref(t)
        assert isinstance(chan, ty.ChannelEndType)
        return EndpointSpec(
            name=name,
            readable=chan.readable,
            writable=chan.writable,
            is_array=chan.is_array,
            read_type=str(chan.read) if chan.read is not None else None,
            write_type=str(chan.write) if chan.write is not None else None,
        )

    def _compile_rule(self, proc_name: str, stmt: ast.PipelineStmt) -> RuleSpec:
        stages = stmt.stages
        first = stages[0]
        if first.func is not None or not isinstance(first.expr, ast.Var):
            raise FlickTypeError(
                f"process {proc_name!r}: pipeline source must be a named "
                "channel parameter",
                stmt.location,
            )
        source = first.expr.name
        sink: Optional[str] = None
        middle = list(stages[1:])
        last = stages[-1]
        if last.func is None:
            if not isinstance(last.expr, ast.Var):
                raise FlickTypeError(
                    f"process {proc_name!r}: pipeline sink must be a named "
                    "channel parameter",
                    stmt.location,
                )
            sink = last.expr.name
            middle = list(stages[1:-1])
        funcs = tuple(
            StageSpec(stage.func, stage.args)
            for stage in middle
            if stage.func is not None
        )
        if len(funcs) != len(middle):
            raise FlickTypeError(
                f"process {proc_name!r}: intermediate pipeline stages must "
                "be function applications",
                stmt.location,
            )
        return RuleSpec(source, funcs, sink)

    def _extract_foldt(
        self, proc_name: str, stmt: ast.IfStmt
    ) -> Optional[FoldTPlan]:
        """Recognise the Listing-3 shape::

            if all_ready(mappers):
                let result = foldt on mappers ordering ...:
                    ...
                result => reducer
        """
        cond = stmt.condition
        if not (isinstance(cond, ast.Call) and cond.func == "all_ready"):
            return None
        body = stmt.then_body
        if len(body) != 2:
            return None
        let, send = body
        # ``result => reducer`` parses as a two-stage pipeline inside a
        # process body; normalise it back to a send.
        if (
            isinstance(send, ast.PipelineStmt)
            and len(send.stages) == 2
            and send.stages[0].func is None
            and send.stages[1].func is None
        ):
            send = ast.SendStmt(
                send.stages[0].expr, send.stages[1].expr, send.location
            )
        if not (
            isinstance(let, ast.LetStmt)
            and isinstance(let.value, ast.FoldTExpr)
            and isinstance(send, ast.SendStmt)
            and isinstance(send.value, ast.Var)
            and send.value.name == let.name
            and isinstance(send.channel, ast.Var)
        ):
            return None
        foldt_expr = let.value
        if not isinstance(foldt_expr.source, ast.Var):
            raise FlickTypeError(
                f"process {proc_name!r}: foldt source must be a named "
                "channel-array parameter",
                stmt.location,
            )
        return FoldTPlan(
            source=foldt_expr.source.name,
            sink=send.channel.name,
            expr=foldt_expr,
        )


# ---------------------------------------------------------------------------
# Handler construction (used by the runtime's compute tasks)
# ---------------------------------------------------------------------------


def _no_such_tier(name: str) -> FlickError:
    return FlickError(
        f"unknown exec tier {name!r}: handlers only run as generated "
        "code; the reference interpreter lives in tests/lang_oracle.py"
    )


def build_rule_handler(
    program: CompiledProgram,
    rule: RuleSpec,
    context: Dict[str, object],
    tier: str = "compiled",
) -> CompiledRuleHandler:
    """Construct the handler for ``rule``: ``handler(message) -> op_count``.

    ``tier`` is vestigial (``benchmarks/hosttime/probes.py`` passes
    ``"compiled"``); any other value is an error.
    """
    if tier != "compiled":
        raise _no_such_tier(tier)
    return program.executor().rule_handler(rule, context)


def build_foldt_handler(
    program: CompiledProgram,
    plan: FoldTPlan,
    tier: str = "compiled",
) -> CompiledFoldTHandler:
    """Construct the foldt merge-tree handler (``tier`` as above)."""
    if tier != "compiled":
        raise _no_such_tier(tier)
    return program.executor().foldt_handler(plan)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def compile_checked(checked: CheckedProgram) -> CompiledProgram:
    """Compile an already type-checked program."""
    check_termination(checked.program)
    return Compiler(checked).compile()


def compile_program(program: ast.Program) -> CompiledProgram:
    """Type check, termination check and compile an AST."""
    return compile_checked(check_program(program))


def compile_source(source: str, filename: str = "<flick>") -> CompiledProgram:
    """End-to-end: parse, check and compile FLICK source text."""
    return compile_program(parse(source, filename))
