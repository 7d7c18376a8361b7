"""Declarative message-grammar model (Spicy-style, section 4.2).

A :class:`Unit` describes the wire format of one message type as an
ordered sequence of fields:

* :class:`IntField` — fixed-size (1/2/4/8 byte) integer, signed or not,
  in the unit's byte order;
* :class:`DataField` — byte string whose length is either constant or an
  expression over previously parsed fields (``key : string &length =
  self.key_len``); decoded as ``str`` or kept as ``bytes``;
* :class:`VarField` — a *computed* value: no bytes on the wire, derived
  during parsing by ``parse_expr`` and driving other fields during
  serialisation through ``serialize_target``/``serialize_expr``
  (Listing 2's ``value_len`` / ``total_len`` pattern);
* :class:`ConstField` — a fixed byte literal (magic numbers, delimiters).

Three more field kinds make a **text unit** — CRLF-delimited lines, as
HTTP/1.1 frames a message (RFC 9112 §2):

* :class:`TokenField` — one delimiter-terminated token of the start line
  (a run of whitespace ends a token, CRLF ends the line);
* :class:`HeaderMapField` — the ``name: value`` lines up to the blank
  line, collected into a dict (names lower-cased, both sides stripped);
* a :class:`DataField` body whose length names a parsed header
  (:class:`HeaderRef`, ``self.headers["content-length"]``).

A text unit is its start-line tokens, one header map, then at most one
body; it mixes with no binary field.

Length expressions use the small arithmetic language below
(:class:`Const`, :class:`FieldRef`, :class:`HeaderRef`, :class:`Binary`)
so that grammars are data, not code — :mod:`repro.grammar.codegen`
inlines them as Python arithmetic in the parser and serialiser it
generates once per codec; the codec it replaced, the test-side oracle
in ``tests/grammar_oracle.py``, evaluates them by walking the tree.

``Unit.max_bytes`` bounds what a parser buffers for a message whose end
it cannot yet locate (see :meth:`Unit.frame`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.core.errors import GrammarError

BIG = "big"
LITTLE = "little"

_INT_SIZES = (1, 2, 4, 8)


# ---------------------------------------------------------------------------
# Size / value expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SizeExpr:
    """Base class for grammar arithmetic expressions."""


@dataclass(frozen=True)
class Const(SizeExpr):
    value: int


@dataclass(frozen=True)
class FieldRef(SizeExpr):
    """``self.<name>`` — the parsed value of an earlier field."""

    name: str


@dataclass(frozen=True)
class SelfRef(SizeExpr):
    """``$$`` — the value of the field owning the expression."""


@dataclass(frozen=True)
class HeaderRef(SizeExpr):
    """``self.<field>["<name>"]`` — a header of an earlier header map, read
    as a length: ``1*DIGIT`` (RFC 9110 §8.6), 0 when the header is absent,
    anything else a :class:`ParseError`.  Such a header is framing: a
    parser reads it whether or not the map itself is decoded."""

    field: str
    name: str


@dataclass(frozen=True)
class Binary(SizeExpr):
    op: str  # '+', '-', '*'
    left: SizeExpr
    right: SizeExpr


def referenced_fields(expr: Optional[SizeExpr]) -> Tuple[str, ...]:
    """All field names mentioned by ``expr`` (deterministic order)."""
    if expr is None:
        return ()
    if isinstance(expr, FieldRef):
        return (expr.name,)
    if isinstance(expr, HeaderRef):
        return (expr.field,)
    if isinstance(expr, Binary):
        seen = []
        for name in referenced_fields(expr.left) + referenced_fields(expr.right):
            if name not in seen:
                seen.append(name)
        return tuple(seen)
    return ()


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """Base class for unit fields."""

    name: Optional[str]  # None = anonymous padding (the listings' '_')


@dataclass(frozen=True)
class IntField(Field):
    size: int = 4
    signed: bool = False

    def __post_init__(self):
        if self.size not in _INT_SIZES:
            raise GrammarError(
                f"integer field {self.name!r}: size must be one of "
                f"{_INT_SIZES}, got {self.size}"
            )


@dataclass(frozen=True)
class DataField(Field):
    """Bytes/string payload with constant or computed length."""

    length: Union[SizeExpr, int] = 0
    text: bool = False  # decode as UTF-8 str (FLICK 'string') vs bytes

    def length_expr(self) -> SizeExpr:
        if isinstance(self.length, int):
            return Const(self.length)
        return self.length


@dataclass(frozen=True)
class VarField(Field):
    """Computed field: parsed via an expression, optionally back-writing
    another field at serialisation time.

    ``parse_expr`` yields the field's value from earlier fields.
    ``serialize_target``/``serialize_expr`` implement Listing 2's
    ``&serialize = self.total_len = ... + $$`` form: when serialising,
    ``serialize_target`` is assigned ``serialize_expr`` with ``$$`` bound
    to this var's own (recomputed) value.
    """

    parse_expr: Optional[SizeExpr] = None
    serialize_target: Optional[str] = None
    serialize_expr: Optional[SizeExpr] = None


@dataclass(frozen=True)
class ConstField(Field):
    value: bytes = b""


@dataclass(frozen=True)
class TokenField(Field):
    """A token of a text unit's start line, decoded as latin-1.

    A token ends at a run of whitespace; the line (and so its last token)
    ends at CRLF, and must hold exactly one word per token.  ``rest``
    instead takes whatever follows the previous token up to CRLF —
    possibly empty, inner whitespace kept (HTTP's reason phrase).
    ``integer`` converts the word with ``int()``; ``prefix`` is bytes the
    word must start with.
    """

    integer: bool = False
    prefix: bytes = b""
    rest: bool = False


@dataclass(frozen=True)
class HeaderMapField(Field):
    """``name: value`` lines up to the blank line that ends a text unit's
    head, as a dict: names stripped and lower-cased, values stripped, the
    last of repeated names wins.  A line without ``:`` is a
    :class:`ParseError`, and so is a header whose lower-cased value a
    ``refuse`` pair names (``("transfer-encoding", "chunked")``)."""

    refuse: Tuple[Tuple[str, str], ...] = ()


_TEXT_FIELDS = (TokenField, HeaderMapField)


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Unit:
    """A complete message grammar."""

    name: str
    fields: Tuple[Field, ...]
    byteorder: str = BIG
    max_bytes: Optional[int] = None

    def __post_init__(self):
        if self.byteorder not in (BIG, LITTLE):
            raise GrammarError(f"unknown byte order {self.byteorder!r}")
        if self.max_bytes is not None and self.max_bytes < 1:
            raise GrammarError(f"unit {self.name!r}: max_bytes must be positive")
        seen = set()
        available = set()
        for f in self.fields:
            if f.name is not None:
                if f.name in seen:
                    raise GrammarError(
                        f"unit {self.name!r}: duplicate field {f.name!r}"
                    )
                seen.add(f.name)
            for expr in self._exprs_of(f):
                for ref in referenced_fields(expr):
                    if ref not in available:
                        raise GrammarError(
                            f"unit {self.name!r}: field {f.name!r} references "
                            f"{ref!r} before it is parsed"
                        )
            if f.name is not None:
                available.add(f.name)
        if not self.fields:
            raise GrammarError(f"unit {self.name!r} has no fields")
        if self.text:
            self._check_text_layout()

    def _check_text_layout(self) -> None:
        kinds = [type(f) for f in self.fields]
        words = [f for f in self.fields if isinstance(f, TokenField)]
        n = len(words)
        last = words[-1] if words else None
        if not (
            n > 0
            and kinds[: n + 1] == [TokenField] * n + [HeaderMapField]
            and kinds[n + 1 :] in ([], [DataField])
            and not any(body.text for body in self.fields[n + 1 :])
            and all(f.name is not None for f in self.fields)
            and not any(f.rest for f in words[:-1])
            and not (last.rest and (n == 1 or last.integer or last.prefix))
        ):
            raise GrammarError(
                f"unit {self.name!r}: a text unit is named start-line tokens "
                "(a plain rest-of-line token only last, after a word), one "
                "header map, then at most one bytes body"
            )

    def __hash__(self) -> int:
        # ``make_codec`` looks units up per call: hash the field tree once.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.name, self.fields, self.byteorder, self.max_bytes))
            object.__setattr__(self, "_hash", value)
            return value

    @property
    def text(self) -> bool:
        """Whether this is a text unit (line-delimited, as HTTP/1.1)."""
        return any(isinstance(f, _TEXT_FIELDS) for f in self.fields)

    @staticmethod
    def _exprs_of(f: Field):
        if isinstance(f, DataField) and isinstance(f.length, SizeExpr):
            yield f.length
        if isinstance(f, VarField):
            if f.parse_expr is not None:
                yield f.parse_expr
            # serialize_expr may reference later fields via $$; validated
            # at serialisation time instead.

    def named_fields(self) -> Tuple[Field, ...]:
        return tuple(f for f in self.fields if f.name is not None)

    def integer_fields(self) -> frozenset:
        """Named integer and var fields.  Specialised parsers decode these
        too: they are cheap, and the serialiser needs them to re-emit a
        message whose skipped payloads it splices back."""
        return frozenset(
            f.name
            for f in self.named_fields()
            if isinstance(f, (IntField, VarField))
        )

    def structural_fields(self) -> frozenset:
        """Fields whose *values* are required to locate message boundaries
        or to drive serialisation: anything referenced by a length or var
        expression.  These are always decoded, even by specialised
        parsers.  A header map is not one of them: only the headers its
        :class:`HeaderRef` and ``refuse`` entries name are framing, and a
        parser reads those whether or not it builds the map."""
        needed = set()
        for f in self.fields:
            if isinstance(f, DataField) and isinstance(f.length, SizeExpr):
                needed.update(referenced_fields(f.length))
            if isinstance(f, VarField):
                needed.update(referenced_fields(f.parse_expr))
                needed.update(referenced_fields(f.serialize_expr))
                if f.serialize_target is not None:
                    needed.add(f.serialize_target)
                if f.name is not None:
                    needed.add(f.name)
        maps = {f.name for f in self.fields if isinstance(f, HeaderMapField)}
        return frozenset(needed - maps)

    def frame(self) -> Optional["Unit"]:
        """The leading fields a parser reads before it knows where a
        message ends — up to the last field a length or var expression
        names, and in a text unit at least its head (the blank line) — as
        a unit of their own; None when every field's size is fixed.

        ``max_bytes`` is enforced against it: feeding a parser more than
        ``max_bytes`` unconsumed bytes that do not hold the current
        message's frame is a :class:`ParseError` (an HTTP head with no
        blank line within 64 KiB)."""
        named = set()
        for f in self.fields:
            for expr in self._exprs_of(f):
                named.update(referenced_fields(expr))
        ends = [
            i
            for i, f in enumerate(self.fields)
            if f.name in named or isinstance(f, HeaderMapField)
        ]
        if not ends:
            return None
        return Unit(f"{self.name}_frame", self.fields[: ends[-1] + 1], self.byteorder)
