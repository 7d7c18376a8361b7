"""FLICK bodies lowered to generated Python: the only executor in ``src/``.

This module is the stand-in for the paper's generated C++ (section 5).
:class:`CompiledExec` lowers every type-checked function body, foldt
combine step and constant initialiser to plain Python source, ``exec``'s
it once per program, and hands the runtime its handler objects.

The tree-walking interpreter in ``tests/lang_oracle.py`` is the semantic
**oracle**: it defines both the values FLICK code produces and the
abstract operation counts the runtime converts into virtual CPU time, and
the differential suite beside it holds this module to it (the
``Interpreter`` names below refer to that file).

Op accounting must stay **bit-identical** to the oracle (costs are
modeled, so how a body executes must not change any simulated result).
The trick: for every expression the op count decomposes into a *static*
part known at compile time (one op per AST node, same as
``Interpreter._eval`` / ``_exec_stmt``) and a *dynamic* part (callee
bodies, ``fold``/``map``/``filter`` charging ``len(seq)``,
short-circuited right operands).
Static ops are batched into a single ``_ops[0] += N`` per straight-line
block; dynamic contributors add to the same shared cell themselves:

* generated functions charge their own body's static ops, so a ``Call``
  site only charges its node + argument ops;
* ``_ho_fold``/``_ho_map``/``_ho_filter`` add ``len(seq)`` exactly like
  ``Interpreter._eval_higher_order``;
* the right operand of ``and``/``or`` is wrapped in ``_sc(value, N)``,
  which charges the operand's static ops only when Python actually
  evaluates it.

Evaluation *order* is preserved by construction: every FLICK expression
lowers to a single Python expression whose left-to-right evaluation
matches the interpreter's recursive descent, and multi-operand
statements route through helpers whose argument order mirrors the
interpreter (``_idx_set(value, container, key)`` etc.).

The batching means the cell is only guaranteed to equal the
interpreter's count at statement-block granularity — i.e. for every run
that completes (or unwinds past a whole block).  That is the granularity
the runtime observes: handlers read the cell once per message.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import FlickError, RuntimeFlickError
from repro.core.generated import exec_generated
from repro.lang import ast
from repro.lang.builtins import BUILTINS, HIGHER_ORDER, VALUE_BUILTINS
from repro.lang.typecheck import CheckedProgram
from repro.lang.values import Record

# ---------------------------------------------------------------------------
# Runtime helpers injected into the generated namespace
# ---------------------------------------------------------------------------


def _make_helpers(ops: List[int]) -> Dict[str, Callable]:
    """Build the helper functions generated code calls.

    Each helper closes over ``ops``, the shared one-element op cell, and
    replicates the corresponding ``Interpreter`` code path (including
    error messages) exactly.
    """

    def _truthy(value) -> bool:
        if isinstance(value, bool):
            return value
        if value is None:
            return False
        raise RuntimeFlickError(
            f"condition evaluated to non-boolean {value!r}"
        )

    def _sc(value, static_ops: int) -> bool:
        # Short-circuit right operand: charge its static ops only when
        # Python evaluated it (mirrors _eval_binop's lazy right side).
        ops[0] += static_ops
        return _truthy(value)

    def _unbound(name: str):
        raise RuntimeFlickError(f"unbound variable {name!r}")

    def _unbound_assign(value, name: str):
        raise RuntimeFlickError(f"assignment to unbound variable {name!r}")

    def _unknown_fn(name: str, *args):
        raise RuntimeFlickError(f"unknown function {name!r}")

    def _index(container, key):
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

    def _idx_set(value, container, key) -> None:
        if isinstance(container, dict):
            container[key] = value
            return
        raise RuntimeFlickError(
            f"cannot index-assign into {type(container).__name__}"
        )

    def _fset(value, obj, name: str) -> None:
        if isinstance(obj, Record):
            obj.set(name, value)
            return
        raise RuntimeFlickError(
            f"cannot assign field of {type(obj).__name__}"
        )

    def _send(value, channel) -> None:
        send = getattr(channel, "send", None)
        if send is None:
            raise RuntimeFlickError(
                f"value {channel!r} is not a writable channel"
            )
        send(value)

    def _div(left, right):
        if right == 0:
            raise RuntimeFlickError("division by zero")
        return left // right

    def _mod(left, right):
        if right == 0:
            raise RuntimeFlickError("modulo by zero")
        return left % right

    def _ho_fold(fn, acc, seq):
        ops[0] += len(seq)
        for item in seq:
            acc = fn(acc, item)
        return acc

    def _ho_map(fn, seq):
        ops[0] += len(seq)
        return [fn(item) for item in seq]

    def _ho_filter(fn, seq):
        ops[0] += len(seq)
        return [item for item in seq if _truthy(fn(item))]

    return {
        "_truthy": _truthy,
        "_sc": _sc,
        "_unbound": _unbound,
        "_unbound_assign": _unbound_assign,
        "_unknown_fn": _unknown_fn,
        "_index": _index,
        "_idx_set": _idx_set,
        "_fset": _fset,
        "_send": _send,
        "_div": _div,
        "_mod": _mod,
        "_ho_fold": _ho_fold,
        "_ho_map": _ho_map,
        "_ho_filter": _ho_filter,
    }


def _record_builder(type_name: str) -> Callable:
    """Fast record builder: takes the ready field dict (the emitter
    inlines it as a literal, keys in declaration order, so the result is
    exactly ``Interpreter.make_record``'s).  Builds the instance with
    ``__new__`` + slot stores instead of ``Record.__init__``, which
    would copy the dict a second time — construction is on the
    per-request hot path."""
    new = Record.__new__

    def build(fields: Dict[str, object]) -> Record:
        record = new(Record)
        record._type_name = type_name
        record._fields = fields
        record.raw = None
        record.dirty = False
        record.spans = None
        return record

    return build


def _record_ctor(type_name: str, names: Tuple[str, ...], build: Callable) -> Callable:
    """Positional constructor matching ``Interpreter.make_record``."""
    arity = len(names)

    def ctor(*values) -> Record:
        if len(values) != arity:
            raise RuntimeFlickError(
                f"constructor {type_name!r} expects {arity} values"
            )
        return build(dict(zip(names, values)))

    return ctor


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------


class _Scope:
    """Compile-time mirror of the interpreter's chained ``_Env``.

    Maps FLICK names to generated Python local names.  If-branches get a
    child scope so branch-local ``let`` bindings (which the typechecker
    allows to shadow) compile to fresh Python names and cannot leak.
    """

    __slots__ = ("_names", "_parent")

    def __init__(self, parent: Optional["_Scope"] = None):
        self._names: Dict[str, str] = {}
        self._parent = parent

    def lookup(self, name: str) -> Optional[str]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope._names:
                return scope._names[name]
            scope = scope._parent
        return None

    def bind(self, name: str, pyname: str) -> None:
        self._names[name] = pyname

    def child(self) -> "_Scope":
        return _Scope(self)


_SIMPLE_BINOPS = {
    "=": "==",
    "<>": "!=",
    "<": "<",
    ">": ">",
    "<=": "<=",
    ">=": ">=",
    "+": "+",
    "-": "-",
    "*": "*",
}


class _Emitter:
    """Lowers checked AST nodes to Python source fragments.

    Every ``expr`` method returns ``(code, static_ops)`` where ``code``
    is a self-contained Python expression and ``static_ops`` the op
    count the *caller* must charge for evaluating it (dynamic parts
    self-register through the shared cell; see module docstring).
    """

    def __init__(self, checked: CheckedProgram):
        self._records = checked.records
        self._fun_names = frozenset(f.name for f in checked.program.funs)
        self._counter = 0

    def fresh(self, name: str) -> str:
        self._counter += 1
        return f"v_{name}_{self._counter}"

    # -- expressions -----------------------------------------------------

    def expr(self, e: ast.Expr, scope: _Scope) -> Tuple[str, int]:
        if isinstance(e, ast.IntLit):
            return repr(e.value), 1
        if isinstance(e, ast.StrLit):
            return repr(e.value), 1
        if isinstance(e, ast.BoolLit):
            return ("True" if e.value else "False"), 1
        if isinstance(e, ast.NoneLit):
            return "None", 1
        if isinstance(e, ast.Var):
            bound = scope.lookup(e.name)
            if bound is not None:
                return bound, 1
            if e.name in VALUE_BUILTINS:
                # Env-miss fallback to the value builtin (fresh value
                # per reference), as in Interpreter._eval.
                return f"_b_{e.name}()", 1
            return f"_unbound({e.name!r})", 1
        if isinstance(e, ast.FieldAccess):
            obj, n = self.expr(e.obj, scope)
            # Direct slot read: safe for type-checked programs (the
            # typechecker proves obj is a record with this field) and
            # bypasses Record.get's try/except on the hot path.
            return f"({obj})._fields[{e.field!r}]", n + 1
        if isinstance(e, ast.Index):
            obj, no = self.expr(e.obj, scope)
            idx, ni = self.expr(e.index, scope)
            return f"_index({obj}, {idx})", no + ni + 1
        if isinstance(e, ast.Call):
            return self._call(e, scope)
        if isinstance(e, ast.BinOp):
            return self._binop(e, scope)
        if isinstance(e, ast.UnaryOp):
            operand, n = self.expr(e.operand, scope)
            if e.op == "not":
                return f"(not _truthy({operand}))", n + 1
            return f"(-{operand})", n + 1
        if isinstance(e, ast.FoldTExpr):
            raise RuntimeFlickError(
                "foldt must be compiled to a task tree: guard it with "
                "all_ready(...) in a process body"
            )
        raise RuntimeFlickError(f"cannot compile expression {e!r}")

    def _call(self, e: ast.Call, scope: _Scope) -> Tuple[str, int]:
        name = e.func
        if name in HIGHER_ORDER:
            # args[0] is the function-name Var; the interpreter never
            # evaluates it, so it contributes zero ops.
            fn_ref = f"_fn_{e.args[0].name}"
            if name == "fold":
                acc, na = self.expr(e.args[1], scope)
                seq, ns = self.expr(e.args[2], scope)
                return f"_ho_fold({fn_ref}, {acc}, {seq})", na + ns + 1
            seq, ns = self.expr(e.args[1], scope)
            return f"_ho_{name}({fn_ref}, {seq})", ns + 1
        parts: List[str] = []
        total = 1
        for arg in e.args:
            code, n = self.expr(arg, scope)
            parts.append(code)
            total += n
        joined = ", ".join(parts)
        if name in BUILTINS:
            return f"_b_{name}({joined})", total
        if name in self._records:
            names = self._records[name].field_names()
            if len(names) == len(parts):
                fields = ", ".join(
                    f"{fname!r}: {code}"
                    for fname, code in zip(names, parts)
                )
                return f"_rec_{name}({{{fields}}})", total
            # Arity mismatch cannot pass the typechecker; keep the
            # checked positional constructor for defence in depth.
            return f"_rec_chk_{name}({joined})", total
        if name in self._fun_names:
            return f"_fn_{name}({joined})", total
        # Arguments still evaluate (left-to-right) before the failure,
        # like Interpreter._eval_call.
        tail = f", {joined}" if parts else ""
        return f"_unknown_fn({name!r}{tail})", total

    def _binop(self, e: ast.BinOp, scope: _Scope) -> Tuple[str, int]:
        left, nl = self.expr(e.left, scope)
        right, nr = self.expr(e.right, scope)
        op = e.op
        if op in ("and", "or"):
            return f"(_truthy({left}) {op} _sc({right}, {nr}))", nl + 1
        py = _SIMPLE_BINOPS.get(op)
        if py is not None:
            return f"({left} {py} {right})", nl + nr + 1
        if op == "/":
            return f"_div({left}, {right})", nl + nr + 1
        if op == "mod":
            return f"_mod({left}, {right})", nl + nr + 1
        raise RuntimeFlickError(f"unknown operator {op!r}")

    # -- statements ------------------------------------------------------

    def block(
        self, body: Sequence[ast.Stmt], scope: _Scope, tail: bool
    ) -> List[str]:
        """Compile a statement list; when ``tail``, every path returns
        the body's result (the last statement's value, like
        ``_exec_body``)."""
        if not body:
            return ["return None"] if tail else ["pass"]
        lines: List[str] = []
        static = 0
        last = len(body) - 1
        for i, stmt in enumerate(body):
            stmt_lines, n = self.stmt(stmt, scope, tail and i == last)
            lines.extend(stmt_lines)
            static += n
        if static:
            lines.insert(0, f"_ops[0] += {static}")
        return lines

    def stmt(
        self, stmt: ast.Stmt, scope: _Scope, tail: bool
    ) -> Tuple[List[str], int]:
        if isinstance(stmt, ast.LetStmt):
            return self._let(stmt.name, stmt.value, scope, tail)
        if isinstance(stmt, ast.AssignStmt):
            return self._assign(stmt, scope, tail)
        if isinstance(stmt, ast.SendStmt):
            value, nv = self.expr(stmt.value, scope)
            channel, nc = self.expr(stmt.channel, scope)
            lines = [f"_send({value}, {channel})"]
            if tail:
                lines.append("return None")
            return lines, nv + nc + 1
        if isinstance(stmt, ast.IfStmt):
            cond, ncond = self.expr(stmt.condition, scope)
            then_lines = self.block(stmt.then_body, scope.child(), tail)
            lines = [f"if _truthy({cond}):"]
            lines.extend("    " + line for line in then_lines)
            if stmt.else_body or tail:
                else_lines = self.block(stmt.else_body, scope.child(), tail)
                lines.append("else:")
                lines.extend("    " + line for line in else_lines)
            return lines, ncond + 1
        if isinstance(stmt, ast.ExprStmt):
            code, n = self.expr(stmt.expr, scope)
            return [f"return {code}" if tail else code], n + 1
        if isinstance(stmt, ast.GlobalDecl):
            # Only reachable when executing a declaration directly (the
            # runtime materialises globals beforehand); binds like let.
            return self._let(stmt.name, stmt.init, scope, tail)
        raise RuntimeFlickError(f"cannot execute statement {stmt!r}")

    def _let(
        self, name: str, value: ast.Expr, scope: _Scope, tail: bool
    ) -> Tuple[List[str], int]:
        # Compile the value *before* binding: `let x = x + 1` sees the
        # outer x, exactly like the interpreter's eval-then-bind.
        code, n = self.expr(value, scope)
        pyname = self.fresh(name)
        scope.bind(name, pyname)
        lines = [f"{pyname} = {code}"]
        if tail:
            lines.append("return None")
        return lines, n + 1

    def _assign(
        self, stmt: ast.AssignStmt, scope: _Scope, tail: bool
    ) -> Tuple[List[str], int]:
        value, nv = self.expr(stmt.value, scope)
        target = stmt.target
        if isinstance(target, ast.Var):
            bound = scope.lookup(target.name)
            if bound is not None:
                lines = [f"{bound} = {value}"]
            else:
                lines = [f"_unbound_assign({value}, {target.name!r})"]
            static = nv + 1
        elif isinstance(target, ast.Index):
            obj, no = self.expr(target.obj, scope)
            key, nk = self.expr(target.index, scope)
            # Helper argument order = interpreter evaluation order:
            # value, then container, then key.
            lines = [f"_idx_set({value}, {obj}, {key})"]
            static = nv + no + nk + 1
        elif isinstance(target, ast.FieldAccess):
            obj, no = self.expr(target.obj, scope)
            lines = [f"_fset({value}, {obj}, {target.field!r})"]
            static = nv + no + 1
        else:
            raise RuntimeFlickError("invalid assignment target")
        if tail:
            lines.append("return None")
        return lines, static

    # -- declarations ----------------------------------------------------

    def function_source(self, decl: ast.FunDecl) -> str:
        scope = _Scope()
        params: List[str] = []
        for param in decl.params:
            pyname = self.fresh(param.name)
            scope.bind(param.name, pyname)
            params.append(pyname)
        body = self.block(decl.body, scope, tail=True)
        lines = [f"def _fn_{decl.name}({', '.join(params)}):"]
        lines.extend("    " + line for line in body)
        return "\n".join(lines)

    def const_source(self, name: str, expr: ast.Expr) -> str:
        code, n = self.expr(expr, _Scope())
        return f"def {name}():\n    _ops[0] += {n}\n    return {code}"

    def foldt_source(
        self, expr: ast.FoldTExpr, index: int
    ) -> Tuple[str, str, str]:
        """Emit ``(key_fn_name, body_fn_name, source)`` for a foldt."""
        key_scope = _Scope()
        elem = self.fresh(expr.elem_var)
        key_scope.bind(expr.elem_var, elem)
        order_code, order_ops = self.expr(expr.order_expr, key_scope)
        key_name = f"_foldt_key_{index}"
        key_lines = [
            f"def {key_name}({elem}):",
            f"    _ops[0] += {order_ops}",
            f"    return {order_code}",
        ]
        body_scope = _Scope()
        left = self.fresh(expr.left_var)
        body_scope.bind(expr.left_var, left)
        right = self.fresh(expr.right_var)
        body_scope.bind(expr.right_var, right)
        alias = self.fresh(expr.key_alias)
        body_scope.bind(expr.key_alias, alias)
        body_name = f"_foldt_body_{index}"
        body_lines = [f"def {body_name}({left}, {right}, {alias}):"]
        body_lines.extend(
            "    " + line for line in self.block(expr.body, body_scope, True)
        )
        source = "\n".join(key_lines) + "\n\n" + "\n".join(body_lines)
        return key_name, body_name, source


# ---------------------------------------------------------------------------
# Executable handlers
# ---------------------------------------------------------------------------


def _resolve_bound(expr: ast.Expr, context: Dict[str, object]):
    """Pre-resolve a stage bound argument (the oracle's
    ``RuleHandler._eval_bound``).

    Bound values are stable for the lifetime of a graph binding (channel
    proxies and global stores are mutated in place, never rebound), so
    resolving once at handler construction is equivalent to the
    interpreter's per-message resolution — and charges the same zero ops.
    """
    if isinstance(expr, ast.Var):
        if expr.name in context:
            return context[expr.name]
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


class CompiledRuleHandler:
    """Executable form of a ``RuleSpec``: message in, op count out,
    stages pre-lowered to generated functions."""

    __slots__ = ("_rule", "_stages", "_fn", "_bound", "_sink_channel", "_cell")

    def __init__(self, rule, executor: "CompiledExec", context: Dict[str, object]):
        self._rule = rule
        stages = []
        for stage in rule.stages:
            fn = executor.function(stage.func)
            bound = tuple(
                _resolve_bound(arg, context) for arg in stage.bound_args
            )
            stages.append((fn, bound))
        self._stages = tuple(stages)
        # Single-stage rules are the per-request common case; pre-split
        # them so __call__ skips the pipeline loop entirely (bound == None
        # additionally skips the varargs unpack).
        if len(stages) == 1:
            fn, bound = stages[0]
            self._fn, self._bound = fn, (bound or None)
        else:
            self._fn, self._bound = None, ()
        self._sink_channel = (
            context[rule.sink] if rule.sink is not None else None
        )
        self._cell = executor.ops_cell

    @property
    def source(self) -> str:
        return self._rule.source

    @property
    def sink(self) -> Optional[str]:
        return self._rule.sink

    def __call__(self, message) -> int:
        cell = self._cell
        cell[0] = 0
        fn = self._fn
        if fn is not None:
            bound = self._bound
            value = fn(message) if bound is None else fn(*bound, message)
        else:
            value = message
            for stage_fn, bound in self._stages:
                value = stage_fn(*bound, value)
        channel = self._sink_channel
        if channel is not None:
            channel.send(value)
        return cell[0] + 1


class CompiledFoldTHandler:
    """Key extraction and pairwise combine for a foldt merge-tree node."""

    __slots__ = ("_key_fn", "_body_fn", "_cell")

    def __init__(self, plan, executor: "CompiledExec"):
        self._key_fn, self._body_fn = executor.foldt_fns(plan.expr)
        self._cell = executor.ops_cell

    def key(self, element: Record):
        return self._key_fn(element)

    def combine(self, left: Record, right: Record) -> Record:
        # Argument order computes the key alias before the body runs,
        # mirroring Interpreter.combine's bind-then-execute.
        result = self._body_fn(left, right, self._key_fn(left))
        if not isinstance(result, Record):
            raise RuntimeFlickError(
                f"foldt body must produce a record, got {result!r}"
            )
        return result

    def combine_with_ops(self, left: Record, right: Record):
        cell = self._cell
        cell[0] = 0
        merged = self.combine(left, right)
        return merged, cell[0] + 1


# ---------------------------------------------------------------------------
# The compiled executor
# ---------------------------------------------------------------------------


class CompiledExec:
    """The generated code of one checked program.

    The runtime uses ``eval_const``, ``rule_handler`` and
    ``foldt_handler``; ``reset_ops``/``call_function`` are what the
    differential suite drives against the oracle, holding this class to
    identical values *and* identical op counts.
    """

    def __init__(self, checked: CheckedProgram):
        self.ops_cell: List[int] = [0]
        self._emitter = _Emitter(checked)
        namespace: Dict[str, object] = {
            "__builtins__": {},
            "_ops": self.ops_cell,
        }
        namespace.update(_make_helpers(self.ops_cell))
        for name, builtin in BUILTINS.items():
            namespace[f"_b_{name}"] = builtin.impl
        for rec_name, rec_type in checked.records.items():
            build = _record_builder(rec_name)
            namespace[f"_rec_{rec_name}"] = build
            namespace[f"_rec_chk_{rec_name}"] = _record_ctor(
                rec_name, rec_type.field_names(), build
            )
        funs = checked.program.funs
        chunks = [self._emitter.function_source(f) for f in funs]
        self.source = "\n\n".join(chunks) + ("\n" if chunks else "")
        exec_generated(self.source, __file__, "flick", namespace)
        self._namespace = namespace
        self._funs: Dict[str, Callable] = {
            f.name: namespace[f"_fn_{f.name}"] for f in funs
        }
        self._arities: Dict[str, int] = {
            f.name: len(f.params) for f in funs
        }
        # Lazy caches keyed by id(); the AST node is pinned alongside the
        # compiled function so the id cannot be reused while cached.
        self._consts: Dict[int, Tuple[ast.Expr, Callable]] = {}
        self._foldts: Dict[int, Tuple[ast.FoldTExpr, Callable, Callable]] = {}

    # -- direct execution -------------------------------------------------

    def reset_ops(self) -> int:
        """Return the operation count accumulated since the last reset."""
        cell = self.ops_cell
        count = cell[0]
        cell[0] = 0
        return count

    def function(self, name: str) -> Callable:
        """The generated function object for user function ``name``."""
        fn = self._funs.get(name)
        if fn is None:
            raise RuntimeFlickError(f"unknown function {name!r}")
        return fn

    def call_function(self, name: str, args: Sequence[object]):
        """Invoke user function ``name`` with evaluated ``args``."""
        fn = self._funs.get(name)
        if fn is None:
            raise RuntimeFlickError(f"unknown function {name!r}")
        arity = self._arities[name]
        if len(args) != arity:
            raise RuntimeFlickError(
                f"{name!r} expects {arity} argument(s), got {len(args)}"
            )
        return fn(*args)

    def eval_const(self, expr: ast.Expr):
        """Evaluate a closed expression (e.g. a global initialiser)."""
        entry = self._consts.get(id(expr))
        if entry is None:
            name = f"_const_{len(self._consts)}"
            source = self._emitter.const_source(name, expr)
            exec_generated(source, __file__, "flick", self._namespace)
            entry = (expr, self._namespace[name])
            self._consts[id(expr)] = entry
        return entry[1]()

    # -- handler construction --------------------------------------------

    def foldt_fns(self, expr: ast.FoldTExpr) -> Tuple[Callable, Callable]:
        """The generated ``(order_key, combine_body)`` pair for a foldt."""
        entry = self._foldts.get(id(expr))
        if entry is None:
            key_name, body_name, source = self._emitter.foldt_source(
                expr, len(self._foldts)
            )
            exec_generated(source, __file__, "flick", self._namespace)
            entry = (
                expr,
                self._namespace[key_name],
                self._namespace[body_name],
            )
            self._foldts[id(expr)] = entry
        return entry[1], entry[2]

    def rule_handler(
        self, rule, context: Dict[str, object]
    ) -> CompiledRuleHandler:
        return CompiledRuleHandler(rule, self, context)

    def foldt_handler(self, plan) -> CompiledFoldTHandler:
        return CompiledFoldTHandler(plan, self)
