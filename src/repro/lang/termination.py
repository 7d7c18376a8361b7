"""Termination checks for FLICK programs.

Section 4.3 of the paper restricts FLICK so that every invocation of a
network service terminates and uses a statically bounded amount of
resources.  The language has no ``while`` construct, and it has no
channel constructor: every channel a program mentions is bound in a
process signature, which the type checker enforces.  The remaining
obligations are checked here:

* **No recursion** — user functions must be first-order and non-recursive,
  directly or indirectly.  We build the call graph (including the function
  names passed to ``fold``/``map``/``filter`` and functions invoked from
  ``foldt`` bodies) and reject any cycle.
* **Bounded iteration only** — iteration happens solely through the
  higher-order primitives over finite lists; their function arguments must
  name declared user functions, never builtins with side effects.

Both are rejections; no static cost bound is computed.  What an
invocation costs is the ops its generated code charges as it runs
(:mod:`repro.lang.codegen`), which depends on its input's length.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.errors import TerminationError
from repro.lang import ast
from repro.lang.builtins import HIGHER_ORDER, is_builtin


def _called_functions(body: Tuple[ast.Stmt, ...], known: Set[str]) -> Set[str]:
    """Names of user functions referenced anywhere in ``body``."""
    callees: Set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                if node.func in known:
                    callees.add(node.func)
                if node.func in HIGHER_ORDER and node.args:
                    first = node.args[0]
                    if isinstance(first, ast.Var) and first.name in known:
                        callees.add(first.name)
            elif isinstance(node, ast.PipelineStage) and node.func in known:
                callees.add(node.func)
    return callees


def _detect_cycle(graph: Dict[str, Tuple[str, ...]]) -> List[str]:
    """Return one cycle as a list of names, or [] if the graph is acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {name: WHITE for name in graph}
    stack: List[str] = []

    def visit(name: str) -> List[str]:
        colour[name] = GREY
        stack.append(name)
        for callee in graph.get(name, ()):
            if colour.get(callee, BLACK) == GREY:
                idx = stack.index(callee)
                return stack[idx:] + [callee]
            if colour.get(callee) == WHITE:
                found = visit(callee)
                if found:
                    return found
        stack.pop()
        colour[name] = BLACK
        return []

    for name in graph:
        if colour[name] == WHITE:
            found = visit(name)
            if found:
                return found
    return []


def _call_graph(
    program: ast.Program, known: Set[str]
) -> Dict[str, Tuple[str, ...]]:
    """Caller → sorted user-function callees; processes are ``proc:<name>``."""
    graph: Dict[str, Tuple[str, ...]] = {}
    for fun in program.funs:
        graph[fun.name] = tuple(sorted(_called_functions(fun.body, known)))
    for proc in program.procs:
        graph[f"proc:{proc.name}"] = tuple(
            sorted(_called_functions(proc.body, known))
        )
    return graph


def check_termination(program: ast.Program) -> None:
    """Verify the bounded-computation discipline; raise on violation."""
    known = {f.name for f in program.funs}
    cycle = _detect_cycle(_call_graph(program, known))
    if cycle:
        pretty = " -> ".join(cycle)
        raise TerminationError(
            f"recursion is not allowed in FLICK; call cycle: {pretty}"
        )
    _check_higher_order_arguments(program, known)


def _check_higher_order_arguments(program: ast.Program, known: Set[str]) -> None:
    """fold/map/filter must iterate with declared user functions."""
    bodies = [(f"fun {f.name}", f.body) for f in program.funs]
    bodies += [(f"proc {p.name}", p.body) for p in program.procs]
    for owner, body in bodies:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and node.func in HIGHER_ORDER:
                    if not node.args or not isinstance(node.args[0], ast.Var):
                        raise TerminationError(
                            f"{owner}: {node.func} requires a function name "
                            "as its first argument"
                        )
                    target = node.args[0].name
                    if target not in known:
                        if is_builtin(target):
                            raise TerminationError(
                                f"{owner}: {node.func} over builtin "
                                f"{target!r} is not allowed"
                            )
                        raise TerminationError(
                            f"{owner}: {node.func} refers to unknown "
                            f"function {target!r}"
                        )
