"""Reference executor: the tree-walking interpreter the generator replaced.

This was ``src/repro/lang/interpreter.py`` (plus the interpreter-backed
``RuleHandler``/``FoldTHandler`` of ``lang/compiler.py``) until handler
bodies became generated code only (``repro.lang.codegen``).  It stays
here as the executable definition of FLICK semantics: the values a body
produces, its side effects, and the abstract operation counts (``ops`` —
one unit per AST node touched) the runtime converts into virtual CPU
time.  Any divergence is a codegen bug by definition.

:class:`Interpreter` implements the three-method seam the product goes
through (``CompiledProgram.executor()``: ``eval_const``,
``rule_handler``, ``foldt_handler``), so :func:`under_oracle` can run the
whole platform on it by patching that one method.
``tests/test_exec_tier.py`` holds the generated code to it at every
level; ``tests/test_interpreter.py`` runs the language-semantics tests on
both.  Nothing under ``src/`` imports it.

Channels appear to the interpreter as any object with a ``send(value)``
method; channel arrays additionally support ``len`` and indexing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

from repro.core.errors import FlickError, RuntimeFlickError
from repro.lang import ast
from repro.lang.builtins import BUILTINS, HIGHER_ORDER, VALUE_BUILTINS
from repro.lang.compiler import CompiledProgram, FoldTPlan, RuleSpec
from repro.lang.typecheck import CheckedProgram
from repro.lang.values import Record


def assign_field(record, name, value) -> None:
    """FLICK's ``record.name = value``: the field must exist, and the
    record no longer matches its ``raw`` bytes."""
    if name not in record._fields:
        raise RuntimeFlickError(
            f"record {record.type_name!r} has no field {name!r}; "
            "fields cannot be added at run time"
        )
    record._fields[name] = value
    record.dirty = True


class _Env:
    """Chained mutable variable environment."""

    __slots__ = ("_vars", "_parent")

    def __init__(self, parent: Optional["_Env"] = None):
        self._vars: Dict[str, object] = {}
        self._parent = parent

    def lookup(self, name: str):
        env: Optional[_Env] = self
        while env is not None:
            if name in env._vars:
                return env._vars[name]
            env = env._parent
        raise RuntimeFlickError(f"unbound variable {name!r}")

    def bind(self, name: str, value) -> None:
        self._vars[name] = value

    def assign(self, name: str, value) -> None:
        env: Optional[_Env] = self
        while env is not None:
            if name in env._vars:
                env._vars[name] = value
                return
            env = env._parent
        raise RuntimeFlickError(f"assignment to unbound variable {name!r}")

    def child(self) -> "_Env":
        return _Env(self)


class Interpreter:
    """Executes function bodies of a type-checked FLICK program."""

    def __init__(self, checked: CheckedProgram):
        self._checked = checked
        self._funs: Dict[str, ast.FunDecl] = {
            f.name: f for f in checked.program.funs
        }
        self._records = checked.records
        self.ops = 0

    # -- public API ------------------------------------------------------

    def reset_ops(self) -> int:
        """Return the operation count accumulated since the last reset."""
        count = self.ops
        self.ops = 0
        return count

    def call_function(self, name: str, args: Sequence[object]):
        """Invoke user function ``name`` with evaluated ``args``."""
        decl = self._funs.get(name)
        if decl is None:
            raise RuntimeFlickError(f"unknown function {name!r}")
        if len(args) != len(decl.params):
            raise RuntimeFlickError(
                f"{name!r} expects {len(decl.params)} argument(s), "
                f"got {len(args)}"
            )
        env = _Env()
        for param, value in zip(decl.params, args):
            env.bind(param.name, value)
        return self._exec_body(decl.body, env)

    def eval_const(self, expr: ast.Expr):
        """Evaluate a closed expression (e.g. a global initialiser)."""
        return self._eval(expr, _Env())

    def make_record(self, type_name: str, values: Sequence[object]) -> Record:
        record_type = self._records[type_name]
        names = record_type.field_names()
        if len(values) != len(names):
            raise RuntimeFlickError(
                f"constructor {type_name!r} expects {len(names)} values"
            )
        return Record(type_name, dict(zip(names, values)))

    def rule_handler(
        self, rule: RuleSpec, context: Dict[str, object]
    ) -> "RuleHandler":
        return RuleHandler(rule, self, context)

    def foldt_handler(self, plan: FoldTPlan) -> "FoldTHandler":
        return FoldTHandler(plan, self)

    # -- statement execution ------------------------------------------------

    def _exec_body(self, body: Tuple[ast.Stmt, ...], env: _Env):
        result = None
        for stmt in body:
            result = self._exec_stmt(stmt, env)
        return result

    def _exec_stmt(self, stmt: ast.Stmt, env: _Env):
        self.ops += 1
        if isinstance(stmt, ast.LetStmt):
            env.bind(stmt.name, self._eval(stmt.value, env))
            return None
        if isinstance(stmt, ast.AssignStmt):
            self._exec_assign(stmt, env)
            return None
        if isinstance(stmt, ast.SendStmt):
            value = self._eval(stmt.value, env)
            channel = self._eval(stmt.channel, env)
            self._send(channel, value)
            return None
        if isinstance(stmt, ast.IfStmt):
            if self._truthy(self._eval(stmt.condition, env)):
                return self._exec_body(stmt.then_body, env.child())
            if stmt.else_body:
                return self._exec_body(stmt.else_body, env.child())
            return None
        if isinstance(stmt, ast.ExprStmt):
            return self._eval(stmt.expr, env)
        if isinstance(stmt, ast.GlobalDecl):
            # Globals are materialised by the runtime before execution;
            # executing the declaration directly (tests) just binds it.
            env.bind(stmt.name, self._eval(stmt.init, env))
            return None
        raise RuntimeFlickError(f"cannot execute statement {stmt!r}")

    def _exec_assign(self, stmt: ast.AssignStmt, env: _Env) -> None:
        value = self._eval(stmt.value, env)
        target = stmt.target
        if isinstance(target, ast.Var):
            env.assign(target.name, value)
            return
        if isinstance(target, ast.Index):
            container = self._eval(target.obj, env)
            key = self._eval(target.index, env)
            if isinstance(container, dict):
                container[key] = value
                return
            raise RuntimeFlickError(
                f"cannot index-assign into {type(container).__name__}"
            )
        if isinstance(target, ast.FieldAccess):
            obj = self._eval(target.obj, env)
            if isinstance(obj, Record):
                assign_field(obj, target.field, value)
                return
            raise RuntimeFlickError(
                f"cannot assign field of {type(obj).__name__}"
            )
        raise RuntimeFlickError("invalid assignment target")

    @staticmethod
    def _send(channel, value) -> None:
        send = getattr(channel, "send", None)
        if send is None:
            raise RuntimeFlickError(
                f"value {channel!r} is not a writable channel"
            )
        send(value)

    @staticmethod
    def _truthy(value) -> bool:
        if isinstance(value, bool):
            return value
        if value is None:
            return False
        raise RuntimeFlickError(
            f"condition evaluated to non-boolean {value!r}"
        )

    # -- expression evaluation -------------------------------------------------

    def _eval(self, expr: ast.Expr, env: _Env):
        self.ops += 1
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.StrLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.NoneLit):
            return None
        if isinstance(expr, ast.Var):
            if expr.name in VALUE_BUILTINS:
                try:
                    return env.lookup(expr.name)
                except RuntimeFlickError:
                    return BUILTINS[expr.name].impl()
            return env.lookup(expr.name)
        if isinstance(expr, ast.FieldAccess):
            obj = self._eval(expr.obj, env)
            if isinstance(obj, Record):
                if expr.field not in obj._fields:
                    raise RuntimeFlickError(
                        f"record {obj.type_name!r} has no field {expr.field!r}"
                    )
                return obj._fields[expr.field]
            raise RuntimeFlickError(
                f"cannot read field {expr.field!r} of {type(obj).__name__}"
            )
        if isinstance(expr, ast.Index):
            container = self._eval(expr.obj, env)
            key = self._eval(expr.index, env)
            if isinstance(container, dict):
                # Dict miss yields None, matching Listing 1's cache test.
                return container.get(key)
            if isinstance(container, (list, tuple)):
                return container[key]
            indexed = getattr(container, "__getitem__", None)
            if indexed is not None:
                return indexed(key)
            raise RuntimeFlickError(
                f"cannot index into {type(container).__name__}"
            )
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, ast.UnaryOp):
            value = self._eval(expr.operand, env)
            if expr.op == "not":
                return not self._truthy(value)
            return -value
        if isinstance(expr, ast.FoldTExpr):
            raise RuntimeFlickError(
                "foldt must be compiled to a task tree: guard it with "
                "all_ready(...) in a process body"
            )
        raise RuntimeFlickError(f"cannot evaluate expression {expr!r}")

    def _eval_call(self, expr: ast.Call, env: _Env):
        name = expr.func
        if name in HIGHER_ORDER:
            return self._eval_higher_order(expr, env)
        if name in BUILTINS:
            args = [self._eval(a, env) for a in expr.args]
            return BUILTINS[name].impl(*args)
        if name in self._records:
            values = [self._eval(a, env) for a in expr.args]
            return self.make_record(name, values)
        args = [self._eval(a, env) for a in expr.args]
        return self.call_function(name, args)

    def _eval_higher_order(self, expr: ast.Call, env: _Env):
        fn_name = expr.args[0].name  # validated statically
        if expr.func == "fold":
            acc = self._eval(expr.args[1], env)
            seq = self._eval(expr.args[2], env)
            self.ops += len(seq)
            for item in seq:
                acc = self.call_function(fn_name, (acc, item))
            return acc
        seq = self._eval(expr.args[1], env)
        self.ops += len(seq)
        if expr.func == "map":
            return [self.call_function(fn_name, (item,)) for item in seq]
        # filter
        return [
            item
            for item in seq
            if self._truthy(self.call_function(fn_name, (item,)))
        ]

    def _eval_binop(self, expr: ast.BinOp, env: _Env):
        op = expr.op
        if op == "and":
            return self._truthy(self._eval(expr.left, env)) and self._truthy(
                self._eval(expr.right, env)
            )
        if op == "or":
            return self._truthy(self._eval(expr.left, env)) or self._truthy(
                self._eval(expr.right, env)
            )
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise RuntimeFlickError("division by zero")
            return left // right
        if op == "mod":
            if right == 0:
                raise RuntimeFlickError("modulo by zero")
            return left % right
        raise RuntimeFlickError(f"unknown operator {op!r}")

    # -- foldt reference semantics -------------------------------------------

    def merge_sorted_streams(
        self, foldt: ast.FoldTExpr, streams: Sequence[Sequence[Record]]
    ) -> List[Record]:
        """Reference (sequential) semantics for ``foldt``.

        Performs a k-way merge over ``streams`` (each sorted by the
        ordering key), combining equal-key elements with the foldt body.
        The compiled task tree must be observationally equivalent to this;
        the property tests assert exactly that.
        """
        merged: List[Record] = []
        for stream in streams:
            for element in stream:
                merged.append(element)
        merged.sort(key=lambda e: self.order_key(foldt, e))
        result: List[Record] = []
        for element in merged:
            if result and self.order_key(foldt, result[-1]) == self.order_key(
                foldt, element
            ):
                result[-1] = self.combine(foldt, result[-1], element)
            else:
                result.append(element)
        return result

    def order_key(self, foldt: ast.FoldTExpr, element: Record):
        env = _Env()
        env.bind(foldt.elem_var, element)
        return self._eval(foldt.order_expr, env)

    def combine(self, foldt: ast.FoldTExpr, left: Record, right: Record) -> Record:
        env = _Env()
        env.bind(foldt.left_var, left)
        env.bind(foldt.right_var, right)
        env.bind(foldt.key_alias, self.order_key(foldt, left))
        result = self._exec_body(foldt.body, env)
        if not isinstance(result, Record):
            raise RuntimeFlickError(
                f"foldt body must produce a record, got {result!r}"
            )
        return result


# ---------------------------------------------------------------------------
# Interpreter-backed handlers (the runtime's compute-task contract)
# ---------------------------------------------------------------------------


class RuleHandler:
    """Executable form of a :class:`RuleSpec`.

    ``context`` maps channel parameter names to runtime channel objects
    (single channels expose ``send``; arrays are indexable sequences) and
    global names to their state objects.  Calling the handler with a
    message runs the stages and routes the result; it returns the number
    of interpreter operations consumed, which the runtime converts into
    virtual CPU time.
    """

    def __init__(
        self,
        rule: RuleSpec,
        interpreter: Interpreter,
        context: Dict[str, object],
    ):
        self._rule = rule
        self._interp = interpreter
        self._context = context

    @property
    def source(self) -> str:
        return self._rule.source

    @property
    def sink(self) -> Optional[str]:
        return self._rule.sink

    def __call__(self, message) -> int:
        interp = self._interp
        interp.reset_ops()
        value = message
        for stage in self._rule.stages:
            bound = [
                self._eval_bound(arg) for arg in stage.bound_args
            ]
            value = interp.call_function(stage.func, (*bound, value))
        if self._rule.sink is not None:
            channel = self._context[self._rule.sink]
            channel.send(value)
        return interp.reset_ops() + 1

    def _eval_bound(self, expr: ast.Expr):
        if isinstance(expr, ast.Var):
            if expr.name in self._context:
                return self._context[expr.name]
            raise FlickError(
                f"pipeline stage references unbound name {expr.name!r}"
            )
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.StrLit):
            return expr.value
        raise FlickError(
            "pipeline stage bound arguments must be channel parameters, "
            "globals or literals"
        )


class FoldTHandler:
    """Key extraction and pairwise combine for a foldt merge tree node."""

    def __init__(self, plan: FoldTPlan, interpreter: Interpreter):
        self._plan = plan
        self._interp = interpreter

    def key(self, element: Record):
        return self._interp.order_key(self._plan.expr, element)

    def combine(self, left: Record, right: Record) -> Record:
        return self._interp.combine(self._plan.expr, left, right)

    def combine_with_ops(self, left: Record, right: Record):
        self._interp.reset_ops()
        merged = self._interp.combine(self._plan.expr, left, right)
        return merged, self._interp.reset_ops() + 1


# ---------------------------------------------------------------------------
# Running the product on the oracle
# ---------------------------------------------------------------------------


def oracle_for(program: CompiledProgram) -> Interpreter:
    """The program's oracle, one per program like its ``CompiledExec``
    (every handler of a program shares one op counter)."""
    oracle = getattr(program, "_oracle", None)
    if oracle is None:
        oracle = program._oracle = Interpreter(program.checked)
    return oracle


#: Bound here, so "generated" stays the product inside :func:`under_oracle`.
_product_executor = CompiledProgram.executor


class _Generated:
    """The product's executor behind the oracle's call surface
    (``reset_ops``, ``call_function``); anything else is the product's."""

    def __init__(self, program):
        self._exec = _product_executor(program)
        self._arities = {f.name: len(f.params) for f in program.checked.program.funs}

    def __getattr__(self, name):
        return getattr(self._exec, name)

    def reset_ops(self) -> int:
        cell = self._exec.ops_cell
        count, cell[0] = cell[0], 0
        return count

    def call_function(self, name: str, args: Sequence[object]):
        fn = self._exec.function(name)
        arity = self._arities[name]
        if len(args) != arity:
            raise RuntimeFlickError(
                f"{name!r} expects {arity} argument(s), got {len(args)}"
            )
        return fn(*args)


#: The two sides of every comparison: program -> executor.
EXECUTORS = {"generated": _Generated, "oracle": oracle_for}


def under_oracle(fn):
    """Run ``fn`` with every ``CompiledProgram.executor()`` in the
    process answering with the oracle instead of generated code."""
    with mock.patch.object(CompiledProgram, "executor", oracle_for):
        return fn()
