"""Static type checker for FLICK programs.

Checks the properties the paper relies on for safe shared execution
(section 4.3): strong static typing, typed channels with direction
restrictions (a ``-/T`` channel can never be read), record field access
limited to named fields (anonymous ``_`` fields are unaddressable), and
argument/return compatibility for every call — including the implicit
message argument appended by pipeline stages.

The checker produces a :class:`CheckedProgram` that the compiler consumes:
resolved record layouts, function signatures and per-process channel
signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import FlickTypeError
from repro.lang import ast
from repro.lang import types as ty
from repro.lang.builtins import BUILTINS, HIGHER_ORDER, VALUE_BUILTINS


@dataclass
class CheckedProgram:
    """Result of type checking: the program plus resolved signatures.

    ``accessed_fields`` maps each record type name to the set of fields
    the program actually reads, writes or constructs.  The compiler uses
    it to generate *specialised* parsers that decode only the required
    fields (section 4.2: other fields are skipped or copied verbatim).
    """

    program: ast.Program
    records: Dict[str, ty.RecordType]
    functions: Dict[str, ty.FunType]
    proc_params: Dict[str, Tuple[Tuple[str, ty.Type], ...]]
    accessed_fields: Dict[str, frozenset] = field(default_factory=dict)


class _Scope:
    """A lexical scope chain of variable bindings."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self._parent = parent
        self._bindings: Dict[str, ty.Type] = {}

    def lookup(self, name: str) -> Optional[ty.Type]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope._bindings:
                return scope._bindings[name]
            scope = scope._parent
        return None

    def bind(self, name: str, t: ty.Type) -> None:
        self._bindings[name] = t

    def child(self) -> "_Scope":
        return _Scope(self)


class TypeChecker:
    """Checks one :class:`ast.Program`; use :func:`check_program`."""

    def __init__(self, program: ast.Program):
        self._program = program
        self._records: Dict[str, ty.RecordType] = {}
        self._functions: Dict[str, ty.FunType] = {}
        self._fun_decls: Dict[str, ast.FunDecl] = {}
        self._proc_params: Dict[str, Tuple[Tuple[str, ty.Type], ...]] = {}
        self._accessed: Dict[str, set] = {}

    # -- entry point ------------------------------------------------------

    def check(self) -> CheckedProgram:
        for decl in self._program.types:
            self._declare_record(decl)
        for decl in self._program.funs:
            self._declare_function(decl)
        for decl in self._program.funs:
            self._check_function(decl)
        for decl in self._program.procs:
            self._check_process(decl)
        return CheckedProgram(
            self._program,
            dict(self._records),
            dict(self._functions),
            dict(self._proc_params),
            {name: frozenset(fields) for name, fields in self._accessed.items()},
        )

    def _note_access(self, record: ty.RecordType, fname: str) -> None:
        self._accessed.setdefault(record.name, set()).add(fname)

    # -- declaration passes --------------------------------------------------

    def _declare_record(self, decl: ast.TypeDecl) -> None:
        if decl.name in self._records or ty.primitive(decl.name):
            raise FlickTypeError(
                f"duplicate type name {decl.name!r}", decl.location
            )
        fields: List[Tuple[str, ty.Type]] = []
        seen = set()
        for fdecl in decl.fields:
            if fdecl.name is None:
                continue  # anonymous wire-only field
            if fdecl.name in seen:
                raise FlickTypeError(
                    f"duplicate field {fdecl.name!r} in type {decl.name!r}",
                    fdecl.location,
                )
            seen.add(fdecl.name)
            fields.append((fdecl.name, self._resolve(fdecl.type, fdecl.location)))
        self._records[decl.name] = ty.RecordType(decl.name, tuple(fields))

    def _declare_function(self, decl: ast.FunDecl) -> None:
        if decl.name in self._functions or decl.name in BUILTINS:
            raise FlickTypeError(
                f"duplicate function name {decl.name!r}", decl.location
            )
        params = tuple(
            self._resolve(p.type, p.location) for p in decl.params
        )
        returns = tuple(self._resolve(r, decl.location) for r in decl.returns)
        self._functions[decl.name] = ty.FunType(params, returns)
        self._fun_decls[decl.name] = decl

    # -- type resolution ---------------------------------------------------------

    def _resolve(self, expr: ast.TypeExpr, loc=None) -> ty.Type:
        if isinstance(expr, ast.NamedType):
            prim = ty.primitive(expr.name)
            if prim is not None:
                return prim
            if expr.name in self._records:
                return self._records[expr.name]
            raise FlickTypeError(f"unknown type {expr.name!r}", loc)
        if isinstance(expr, ast.DictType):
            return ty.DictMapType(
                self._resolve(expr.key, loc), self._resolve(expr.value, loc)
            )
        if isinstance(expr, ast.ListType):
            return ty.ListSeqType(self._resolve(expr.element, loc))
        if isinstance(expr, ast.RefType):
            return ty.RefCellType(self._resolve(expr.inner, loc))
        if isinstance(expr, ast.ChannelType):
            read = self._resolve(expr.read, loc) if expr.read else None
            write = self._resolve(expr.write, loc) if expr.write else None
            if read is None and write is None:
                raise FlickTypeError("channel must be readable or writable", loc)
            return ty.ChannelEndType(read, write, expr.is_array)
        raise FlickTypeError(f"unsupported type expression {expr!r}", loc)

    # -- functions ------------------------------------------------------------

    def _check_function(self, decl: ast.FunDecl) -> None:
        scope = _Scope()
        for param in decl.params:
            scope.bind(param.name, self._resolve(param.type, param.location))
        tails = self._check_body(decl.body, scope, in_proc=False)
        returns = self._functions[decl.name].returns
        if returns:
            expected = returns[0]
            for tail in tails:
                if tail is None:
                    raise FlickTypeError(
                        f"function {decl.name!r} must produce a value of type "
                        f"{expected} on every path",
                        decl.location,
                    )
                if not ty.compatible(expected, tail):
                    raise FlickTypeError(
                        f"function {decl.name!r} returns {tail}, "
                        f"declared {expected}",
                        decl.location,
                    )

    def _check_body(
        self, body: Tuple[ast.Stmt, ...], scope: _Scope, in_proc: bool
    ) -> List[Optional[ty.Type]]:
        """Check statements; return the possible tail-expression types."""
        tail: List[Optional[ty.Type]] = [None]
        for stmt in body:
            tail = self._check_stmt(stmt, scope, in_proc)
        return tail

    # -- statements -------------------------------------------------------------

    def _check_stmt(
        self, stmt: ast.Stmt, scope: _Scope, in_proc: bool
    ) -> List[Optional[ty.Type]]:
        if isinstance(stmt, ast.GlobalDecl):
            if not in_proc:
                raise FlickTypeError(
                    "global declarations are only allowed in processes",
                    stmt.location,
                )
            scope.bind(stmt.name, self._check_expr(stmt.init, scope))
            return [None]
        if isinstance(stmt, ast.LetStmt):
            scope.bind(stmt.name, self._check_expr(stmt.value, scope))
            return [None]
        if isinstance(stmt, ast.AssignStmt):
            self._check_assign(stmt, scope)
            return [None]
        if isinstance(stmt, ast.SendStmt):
            self._check_send(stmt, scope)
            return [None]
        if isinstance(stmt, ast.IfStmt):
            cond = self._check_expr(stmt.condition, scope)
            if not isinstance(ty.strip_ref(cond), (ty.BoolType, ty.AnyType)):
                raise FlickTypeError(
                    f"if condition must be boolean, got {cond}", stmt.location
                )
            then_tails = self._check_body(stmt.then_body, scope.child(), in_proc)
            if stmt.else_body:
                else_tails = self._check_body(
                    stmt.else_body, scope.child(), in_proc
                )
            else:
                else_tails = [None]
            return then_tails + else_tails
        if isinstance(stmt, ast.PipelineStmt):
            if not in_proc:
                raise FlickTypeError(
                    "pipeline rules are only allowed in process bodies",
                    stmt.location,
                )
            self._check_pipeline(stmt, scope)
            return [None]
        if isinstance(stmt, ast.ExprStmt):
            return [self._check_expr(stmt.expr, scope)]
        raise FlickTypeError(f"unsupported statement {stmt!r}")

    def _check_assign(self, stmt: ast.AssignStmt, scope: _Scope) -> None:
        value_type = self._check_expr(stmt.value, scope)
        target = stmt.target
        if isinstance(target, ast.Var):
            declared = scope.lookup(target.name)
            if declared is None:
                raise FlickTypeError(
                    f"assignment to undeclared variable {target.name!r}",
                    stmt.location,
                )
            if not ty.compatible(declared, value_type):
                raise FlickTypeError(
                    f"cannot assign {value_type} to {target.name!r}: {declared}",
                    stmt.location,
                )
            return
        if isinstance(target, ast.Index):
            container = ty.strip_ref(self._check_expr(target.obj, scope))
            if isinstance(container, ty.DictMapType):
                key_type = self._check_expr(target.index, scope)
                if not ty.compatible(container.key, key_type):
                    raise FlickTypeError(
                        f"dict key type mismatch: {key_type} vs {container.key}",
                        stmt.location,
                    )
                if not ty.compatible(container.value, value_type):
                    raise FlickTypeError(
                        f"dict value type mismatch: {value_type} vs "
                        f"{container.value}",
                        stmt.location,
                    )
                return
            raise FlickTypeError(
                f"cannot index-assign into {container}", stmt.location
            )
        if isinstance(target, ast.FieldAccess):
            obj_type = ty.strip_ref(self._check_expr(target.obj, scope))
            if not isinstance(obj_type, ty.RecordType):
                raise FlickTypeError(
                    f"cannot assign field of non-record {obj_type}", stmt.location
                )
            ftype = obj_type.field_type(target.field)
            if ftype is None:
                raise FlickTypeError(
                    f"record {obj_type.name!r} has no field {target.field!r}",
                    stmt.location,
                )
            if not ty.compatible(ftype, value_type):
                raise FlickTypeError(
                    f"cannot assign {value_type} to field of type {ftype}",
                    stmt.location,
                )
            self._note_access(obj_type, target.field)
            return
        raise FlickTypeError("invalid assignment target", stmt.location)

    def _check_send(self, stmt: ast.SendStmt, scope: _Scope) -> None:
        value_type = self._check_expr(stmt.value, scope)
        chan_type = self._check_expr(stmt.channel, scope)
        chan = ty.strip_ref(chan_type)
        if not isinstance(chan, ty.ChannelEndType) or chan.is_array:
            raise FlickTypeError(
                f"send target must be a single channel, got {chan}", stmt.location
            )
        if not chan.writable:
            raise FlickTypeError(
                "cannot send into a read-only channel", stmt.location
            )
        if not ty.compatible(chan.write, value_type):
            raise FlickTypeError(
                f"cannot send {value_type} into channel of {chan.write}",
                stmt.location,
            )

    # -- processes -------------------------------------------------------------

    def _check_process(self, decl: ast.ProcDecl) -> None:
        scope = _Scope()
        params: List[Tuple[str, ty.Type]] = []
        for param in decl.params:
            resolved = self._resolve(param.type, param.location)
            scope.bind(param.name, resolved)
            params.append((param.name, resolved))
        self._proc_params[decl.name] = tuple(params)
        self._check_body(decl.body, scope, in_proc=True)

    def _check_pipeline(self, stmt: ast.PipelineStmt, scope: _Scope) -> None:
        stages = stmt.stages
        if len(stages) < 2:
            raise FlickTypeError(
                "a pipeline needs a source and at least one more stage",
                stmt.location,
            )
        first = stages[0]
        if first.func is not None:
            raise FlickTypeError(
                "pipeline source must be a channel", stmt.location
            )
        source_type = ty.strip_ref(self._check_expr(first.expr, scope))
        if not isinstance(source_type, ty.ChannelEndType):
            # ``value => channel`` inside a process body parses as a
            # two-stage pipeline; re-interpret it as a send statement.
            if len(stages) == 2 and stages[1].func is None:
                self._check_send(
                    ast.SendStmt(first.expr, stages[1].expr, stmt.location),
                    scope,
                )
                return
            raise FlickTypeError(
                f"pipeline source must be a channel, got {source_type}",
                stmt.location,
            )
        if not source_type.readable:
            raise FlickTypeError(
                "pipeline source channel is write-only", stmt.location
            )
        message: Optional[ty.Type] = source_type.read
        for stage in stages[1:-1]:
            message = self._check_function_stage(stage, scope, message, stmt)
        last = stages[-1]
        if last.func is not None:
            result = self._check_function_stage(last, scope, message, stmt)
            if result is not None and not isinstance(result, ty.UnitType):
                raise FlickTypeError(
                    "final pipeline stage discards a value; route it to a "
                    "channel or use a function returning ()",
                    stmt.location,
                )
            return
        sink_type = ty.strip_ref(self._check_expr(last.expr, scope))
        if not isinstance(sink_type, ty.ChannelEndType):
            raise FlickTypeError(
                f"pipeline sink must be a channel, got {sink_type}", stmt.location
            )
        if not sink_type.writable:
            raise FlickTypeError("pipeline sink channel is read-only", stmt.location)
        if message is None:
            raise FlickTypeError(
                "pipeline has no value to send to its sink", stmt.location
            )
        if not ty.compatible(sink_type.write, message):
            raise FlickTypeError(
                f"pipeline sends {message} into channel of {sink_type.write}",
                stmt.location,
            )

    def _check_function_stage(
        self,
        stage: ast.PipelineStage,
        scope: _Scope,
        message: Optional[ty.Type],
        stmt: ast.PipelineStmt,
    ) -> Optional[ty.Type]:
        if message is None:
            raise FlickTypeError(
                "pipeline stage receives no message", stmt.location
            )
        fun_type = self._functions.get(stage.func)
        if fun_type is None:
            raise FlickTypeError(
                f"unknown pipeline function {stage.func!r}", stmt.location
            )
        bound = [self._check_expr(arg, scope) for arg in stage.args]
        expected = fun_type.params
        if len(bound) + 1 != len(expected):
            raise FlickTypeError(
                f"pipeline stage {stage.func!r} binds {len(bound)} argument(s) "
                f"but the function takes {len(expected)} (message is appended)",
                stmt.location,
            )
        for i, (exp, act) in enumerate(zip(expected[:-1], bound)):
            if not ty.compatible(exp, act):
                raise FlickTypeError(
                    f"pipeline stage {stage.func!r} argument {i}: "
                    f"expected {exp}, got {act}",
                    stmt.location,
                )
        if not ty.compatible(expected[-1], message):
            raise FlickTypeError(
                f"pipeline stage {stage.func!r} consumes {expected[-1]}, "
                f"but the pipeline carries {message}",
                stmt.location,
            )
        if not fun_type.returns:
            return None
        return fun_type.returns[0]

    # -- expressions --------------------------------------------------------------

    def _check_expr(self, expr: ast.Expr, scope: _Scope) -> ty.Type:
        if isinstance(expr, ast.IntLit):
            return ty.INTEGER
        if isinstance(expr, ast.StrLit):
            return ty.STRING
        if isinstance(expr, ast.BoolLit):
            return ty.BOOLEAN
        if isinstance(expr, ast.NoneLit):
            return ty.UNIT
        if isinstance(expr, ast.Var):
            bound = scope.lookup(expr.name)
            if bound is not None:
                return bound
            if expr.name in VALUE_BUILTINS:
                return BUILTINS[expr.name].type_rule(())
            raise FlickTypeError(f"unknown variable {expr.name!r}", expr.location)
        if isinstance(expr, ast.FieldAccess):
            obj_type = ty.strip_ref(self._check_expr(expr.obj, scope))
            if isinstance(obj_type, ty.AnyType):
                return ty.ANY
            if not isinstance(obj_type, ty.RecordType):
                raise FlickTypeError(
                    f"cannot access field {expr.field!r} of {obj_type}",
                    expr.location,
                )
            ftype = obj_type.field_type(expr.field)
            if ftype is None:
                raise FlickTypeError(
                    f"record {obj_type.name!r} has no field {expr.field!r} "
                    "(anonymous '_' fields are not addressable)",
                    expr.location,
                )
            self._note_access(obj_type, expr.field)
            return ftype
        if isinstance(expr, ast.Index):
            return self._check_index(expr, scope)
        if isinstance(expr, ast.Call):
            return self._check_call(expr, scope)
        if isinstance(expr, ast.BinOp):
            return self._check_binop(expr, scope)
        if isinstance(expr, ast.UnaryOp):
            operand = ty.strip_ref(self._check_expr(expr.operand, scope))
            if expr.op == "not":
                if not isinstance(operand, (ty.BoolType, ty.AnyType)):
                    raise FlickTypeError(
                        f"'not' expects a boolean, got {operand}", expr.location
                    )
                return ty.BOOLEAN
            if expr.op == "-":
                if not isinstance(operand, (ty.IntType, ty.AnyType)):
                    raise FlickTypeError(
                        f"unary '-' expects an integer, got {operand}",
                        expr.location,
                    )
                return ty.INTEGER
        if isinstance(expr, ast.FoldTExpr):
            return self._check_foldt(expr, scope)
        raise FlickTypeError(f"unsupported expression {expr!r}")

    def _check_index(self, expr: ast.Index, scope: _Scope) -> ty.Type:
        container = ty.strip_ref(self._check_expr(expr.obj, scope))
        index_type = ty.strip_ref(self._check_expr(expr.index, scope))
        if isinstance(container, ty.DictMapType):
            if not ty.compatible(container.key, index_type):
                raise FlickTypeError(
                    f"dict key type mismatch: {index_type} vs {container.key}",
                    expr.location,
                )
            return container.value
        if isinstance(container, ty.ListSeqType):
            if not isinstance(index_type, (ty.IntType, ty.AnyType)):
                raise FlickTypeError(
                    f"list index must be integer, got {index_type}", expr.location
                )
            return container.element
        if isinstance(container, ty.ChannelEndType) and container.is_array:
            if not isinstance(index_type, (ty.IntType, ty.AnyType)):
                raise FlickTypeError(
                    f"channel array index must be integer, got {index_type}",
                    expr.location,
                )
            return container.element()
        if isinstance(container, ty.AnyType):
            return ty.ANY
        raise FlickTypeError(f"cannot index into {container}", expr.location)

    def _check_call(self, expr: ast.Call, scope: _Scope) -> ty.Type:
        name = expr.func
        if name in HIGHER_ORDER:
            return self._check_higher_order(expr, scope)
        if name in BUILTINS:
            args = tuple(self._check_expr(a, scope) for a in expr.args)
            return BUILTINS[name].type_rule(args)
        if name in self._records:
            return self._check_constructor(expr, scope)
        fun_type = self._functions.get(name)
        if fun_type is None:
            raise FlickTypeError(f"unknown function {name!r}", expr.location)
        args = tuple(self._check_expr(a, scope) for a in expr.args)
        if len(args) != len(fun_type.params):
            raise FlickTypeError(
                f"{name!r} expects {len(fun_type.params)} argument(s), "
                f"got {len(args)}",
                expr.location,
            )
        for i, (exp, act) in enumerate(zip(fun_type.params, args)):
            if not ty.compatible(exp, act):
                raise FlickTypeError(
                    f"{name!r} argument {i}: expected {exp}, got {act}",
                    expr.location,
                )
        if not fun_type.returns:
            return ty.UNIT
        return fun_type.returns[0]

    def _check_constructor(self, expr: ast.Call, scope: _Scope) -> ty.Type:
        record = self._records[expr.func]
        fields = record.fields
        if len(expr.args) != len(fields):
            raise FlickTypeError(
                f"constructor {expr.func!r} expects {len(fields)} field "
                f"value(s), got {len(expr.args)}",
                expr.location,
            )
        for (fname, ftype), arg in zip(fields, expr.args):
            arg_type = self._check_expr(arg, scope)
            if not ty.compatible(ftype, arg_type):
                raise FlickTypeError(
                    f"constructor {expr.func!r} field {fname!r}: "
                    f"expected {ftype}, got {arg_type}",
                    expr.location,
                )
            self._note_access(record, fname)
        return record

    def _check_higher_order(self, expr: ast.Call, scope: _Scope) -> ty.Type:
        name = expr.func
        if not expr.args or not isinstance(expr.args[0], ast.Var):
            raise FlickTypeError(
                f"{name} expects a function name as its first argument",
                expr.location,
            )
        fn_name = expr.args[0].name
        fun_type = self._functions.get(fn_name)
        if fun_type is None:
            raise FlickTypeError(
                f"{name} refers to unknown function {fn_name!r}", expr.location
            )
        if name == "fold":
            if len(expr.args) != 3:
                raise FlickTypeError(
                    "fold expects (function, accumulator, list)", expr.location
                )
            acc_type = self._check_expr(expr.args[1], scope)
            seq_type = ty.strip_ref(self._check_expr(expr.args[2], scope))
            elem = self._require_list(seq_type, name, expr)
            self._require_signature(fun_type, (acc_type, elem), fn_name, expr)
            return fun_type.returns[0] if fun_type.returns else ty.UNIT
        if name == "map":
            if len(expr.args) != 2:
                raise FlickTypeError("map expects (function, list)", expr.location)
            seq_type = ty.strip_ref(self._check_expr(expr.args[1], scope))
            elem = self._require_list(seq_type, name, expr)
            self._require_signature(fun_type, (elem,), fn_name, expr)
            result = fun_type.returns[0] if fun_type.returns else ty.UNIT
            return ty.ListSeqType(result)
        # filter
        if len(expr.args) != 2:
            raise FlickTypeError("filter expects (function, list)", expr.location)
        seq_type = ty.strip_ref(self._check_expr(expr.args[1], scope))
        elem = self._require_list(seq_type, name, expr)
        self._require_signature(fun_type, (elem,), fn_name, expr)
        if not fun_type.returns or not isinstance(
            ty.strip_ref(fun_type.returns[0]), (ty.BoolType, ty.AnyType)
        ):
            raise FlickTypeError(
                f"filter predicate {fn_name!r} must return boolean", expr.location
            )
        return ty.ListSeqType(elem)

    @staticmethod
    def _require_list(seq_type: ty.Type, name: str, expr: ast.Call) -> ty.Type:
        if isinstance(seq_type, ty.ListSeqType):
            return seq_type.element
        if isinstance(seq_type, ty.AnyType):
            return ty.ANY
        raise FlickTypeError(
            f"{name} expects a list, got {seq_type}", expr.location
        )

    @staticmethod
    def _require_signature(
        fun_type: ty.FunType, expected, fn_name: str, expr: ast.Call
    ) -> None:
        if len(fun_type.params) != len(expected):
            raise FlickTypeError(
                f"{fn_name!r} has arity {len(fun_type.params)}, "
                f"expected {len(expected)}",
                expr.location,
            )
        for exp, act in zip(fun_type.params, expected):
            if not ty.compatible(exp, act):
                raise FlickTypeError(
                    f"{fn_name!r} parameter mismatch: {exp} vs {act}",
                    expr.location,
                )

    def _check_binop(self, expr: ast.BinOp, scope: _Scope) -> ty.Type:
        left = ty.strip_ref(self._check_expr(expr.left, scope))
        right = ty.strip_ref(self._check_expr(expr.right, scope))
        op = expr.op
        if op in ("and", "or"):
            for side in (left, right):
                if not isinstance(side, (ty.BoolType, ty.AnyType)):
                    raise FlickTypeError(
                        f"{op!r} expects booleans, got {side}", expr.location
                    )
            return ty.BOOLEAN
        if op in ("=", "<>"):
            # Equality permits a None test against any operand type (the
            # dict-miss idiom of Listing 1 line 28).
            if isinstance(left, ty.UnitType) or isinstance(right, ty.UnitType):
                return ty.BOOLEAN
            if not ty.compatible(left, right):
                raise FlickTypeError(
                    f"cannot compare {left} with {right}", expr.location
                )
            return ty.BOOLEAN
        if op in ("<", ">", "<=", ">="):
            ok = (
                isinstance(left, (ty.IntType, ty.AnyType))
                and isinstance(right, (ty.IntType, ty.AnyType))
            ) or (
                isinstance(left, (ty.StringType, ty.AnyType))
                and isinstance(right, (ty.StringType, ty.AnyType))
            )
            if not ok:
                raise FlickTypeError(
                    f"cannot order {left} and {right}", expr.location
                )
            return ty.BOOLEAN
        if op == "+":
            if isinstance(left, (ty.StringType,)) and isinstance(
                right, (ty.StringType,)
            ):
                return ty.STRING
            if isinstance(left, (ty.IntType, ty.AnyType)) and isinstance(
                right, (ty.IntType, ty.AnyType)
            ):
                return ty.INTEGER
            raise FlickTypeError(
                f"cannot add {left} and {right}", expr.location
            )
        if op in ("-", "*", "/", "mod"):
            for side in (left, right):
                if not isinstance(side, (ty.IntType, ty.AnyType)):
                    raise FlickTypeError(
                        f"{op!r} expects integers, got {side}", expr.location
                    )
            return ty.INTEGER
        raise FlickTypeError(f"unknown operator {op!r}", expr.location)

    def _check_foldt(self, expr: ast.FoldTExpr, scope: _Scope) -> ty.Type:
        source = ty.strip_ref(self._check_expr(expr.source, scope))
        if not (
            isinstance(source, ty.ChannelEndType)
            and source.is_array
            and source.readable
        ):
            raise FlickTypeError(
                f"foldt source must be a readable channel array, got {source}",
                expr.location,
            )
        elem_type = source.read
        order_scope = scope.child()
        order_scope.bind(expr.elem_var, elem_type)
        key_type = ty.strip_ref(self._check_expr(expr.order_expr, order_scope))
        if not isinstance(key_type, (ty.IntType, ty.StringType, ty.AnyType)):
            raise FlickTypeError(
                f"foldt ordering key must be integer or string, got {key_type}",
                expr.location,
            )
        body_scope = scope.child()
        body_scope.bind(expr.left_var, elem_type)
        body_scope.bind(expr.right_var, elem_type)
        body_scope.bind(expr.key_alias, key_type)
        tails = self._check_body(expr.body, body_scope, in_proc=False)
        for tail in tails:
            if tail is None or not ty.compatible(elem_type, tail):
                raise FlickTypeError(
                    f"foldt body must produce {elem_type}, got {tail}",
                    expr.location,
                )
        return elem_type


def check_program(program: ast.Program) -> CheckedProgram:
    """Type check ``program`` and return the resolved signatures."""
    return TypeChecker(program).check()
