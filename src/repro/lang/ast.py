"""Abstract syntax tree for the FLICK language.

Node classes mirror the three declaration forms of a FLICK program
(types, processes, functions) and the statement/expression language used
inside process and function bodies.  All nodes are frozen dataclasses so
that ASTs can be hashed, compared in tests and safely shared between the
type checker, termination checker and compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.errors import SourceLocation

_NOLOC = SourceLocation(0, 0, "<none>")


@dataclass(frozen=True)
class Node:
    """Base class for all AST nodes."""


# ---------------------------------------------------------------------------
# Type expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeExpr(Node):
    """Base class for type annotations appearing in source."""


@dataclass(frozen=True)
class NamedType(TypeExpr):
    """A reference to a primitive or user-declared type, e.g. ``cmd``."""

    name: str


@dataclass(frozen=True)
class DictType(TypeExpr):
    """``dict<K*V>`` — the key/value store abstraction of section 4.3."""

    key: TypeExpr
    value: TypeExpr


@dataclass(frozen=True)
class ListType(TypeExpr):
    """``list<T>`` — finite lists, the only iterable structure."""

    element: TypeExpr


@dataclass(frozen=True)
class RefType(TypeExpr):
    """``ref T`` — a mutable reference parameter (e.g. the shared cache)."""

    inner: TypeExpr


@dataclass(frozen=True)
class ChannelType(TypeExpr):
    """``R/W`` channel annotation.

    ``read`` / ``write`` are the element types visible in each direction;
    either may be ``None`` for the restricted forms ``-/T`` (write-only)
    and ``T/-`` (read-only).  ``is_array`` marks ``[R/W]`` channel arrays.
    """

    read: Optional[TypeExpr]
    write: Optional[TypeExpr]
    is_array: bool = False


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr(Node):
    """Base class for expressions."""


@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class StrLit(Expr):
    value: str
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class NoneLit(Expr):
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class Var(Expr):
    name: str
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class FieldAccess(Expr):
    """``obj.field`` — reading a record field."""

    obj: Expr
    field: str
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class Index(Expr):
    """``obj[key]`` — dict lookup or channel-array selection."""

    obj: Expr
    index: Expr
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class Call(Expr):
    """``f(a, b)`` — call of a user function, builtin or record constructor."""

    func: str
    args: Tuple[Expr, ...]
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operation; ``op`` is the surface operator (``=``, ``<>``, ...)."""

    op: str
    left: Expr
    right: Expr
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "not" or "-"
    operand: Expr
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class FoldTExpr(Expr):
    """The parallel tree fold of section 4.3::

        foldt on mappers ordering elem e1, e2 by elem.key as e_key:
            <body producing the combined element>

    ``source`` names the channel array; ``elem_var`` binds the element
    inspected by the ordering expression; ``left_var``/``right_var`` bind
    the two elements being combined in the body.
    """

    source: Expr
    elem_var: str
    left_var: str
    right_var: str
    order_expr: Expr
    key_alias: str
    body: Tuple["Stmt", ...]
    location: SourceLocation = _NOLOC


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt(Node):
    """Base class for statements."""


@dataclass(frozen=True)
class LetStmt(Stmt):
    name: str
    value: Expr
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class AssignStmt(Stmt):
    """``target := value`` where target is a variable, field or dict slot."""

    target: Expr
    value: Expr
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class IfStmt(Stmt):
    condition: Expr
    then_body: Tuple[Stmt, ...]
    else_body: Tuple[Stmt, ...] = ()
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class SendStmt(Stmt):
    """``value => channel`` — write a value to a channel endpoint."""

    value: Expr
    channel: Expr
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class ExprStmt(Stmt):
    """A bare expression; as the last statement of a function body it is
    the function's result value (Listing 1 line 22: ``resp``)."""

    expr: Expr
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class PipelineStage(Node):
    """One ``=>`` stage in a process pipeline rule.

    A stage is either a channel endpoint (``func is None``: ``expr`` names
    the channel) or a processing function with bound arguments (``func``
    plus ``args``; the in-flight message is appended as the final call
    argument, matching Listing 1).
    """

    expr: Optional[Expr] = None
    func: Optional[str] = None
    args: Tuple[Expr, ...] = ()
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class PipelineStmt(Stmt):
    """A process-body routing rule, e.g.
    ``backends => update_cache(cache) => client``."""

    stages: Tuple[PipelineStage, ...]
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class GlobalDecl(Stmt):
    """``global name := init`` — long-term state shared across instances."""

    name: str
    init: Expr
    location: SourceLocation = _NOLOC


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldDecl(Node):
    """A record field.  ``name is None`` encodes the anonymous ``_`` fields
    whose values can never be read or written by the program (section 4.1).
    ``attrs`` carries serialisation annotations (``size``, ``signed``) as
    expressions which may reference earlier fields."""

    name: Optional[str]
    type: TypeExpr
    attrs: Tuple[Tuple[str, Expr], ...] = ()
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class TypeDecl(Node):
    """``type name: record`` followed by field declarations."""

    name: str
    fields: Tuple[FieldDecl, ...]
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class Param(Node):
    """A function/process parameter: either a channel or a plain value."""

    name: str
    type: TypeExpr
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class ProcDecl(Node):
    """A process declaration: channel signature plus routing body."""

    name: str
    params: Tuple[Param, ...]
    body: Tuple[Stmt, ...]
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class FunDecl(Node):
    """A function declaration with explicit result types (possibly empty)."""

    name: str
    params: Tuple[Param, ...]
    returns: Tuple[TypeExpr, ...]
    body: Tuple[Stmt, ...]
    location: SourceLocation = _NOLOC


@dataclass(frozen=True)
class Program(Node):
    """A complete FLICK compilation unit."""

    types: Tuple[TypeDecl, ...] = ()
    procs: Tuple[ProcDecl, ...] = ()
    funs: Tuple[FunDecl, ...] = ()


def walk(node: Node):
    """Yield ``node`` and every AST node reachable from it (pre-order)."""
    yield node
    for fname in getattr(node, "__dataclass_fields__", {}):
        value = getattr(node, fname)
        if isinstance(value, Node):
            yield from walk(value)
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, Node):
                    yield from walk(item)
                elif (
                    isinstance(item, tuple)
                    and len(item) == 2
                    and isinstance(item[1], Node)
                ):
                    yield from walk(item[1])
