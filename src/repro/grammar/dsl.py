"""Text front end for message grammars, following Listing 2's syntax.

Accepts Spicy-style unit definitions::

    type cmd = unit {
        %byteorder = big;

        magic_code : uint8;
        opcode : uint8;
        key_len : uint16;
        : uint8;                      # anonymous / reserved field
        total_len : uint32;

        var value_len : uint32
            &parse = self.total_len - (self.extras_len + self.key_len)
            &serialize = self.total_len = self.key_len + self.extras_len + $$;
        key : string &length = self.key_len;
        value : bytes &length = self.value_len;
    };

Text units (HTTP/1.1 framing) use three more field types and a header
reference in length expressions::

    type http_resp = unit {
        %max_bytes = 65536;           # bytes a head may take

        version : token;              # up to the next whitespace
        status : token &convert = int;
        reason : line;                # the rest of the start line
        headers : header_map &refuse = "transfer-encoding: chunked";
        body : bytes &length = self.headers["content-length"];
    };

and compiles them to :class:`repro.grammar.model.Unit` objects.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.core.errors import GrammarError
from repro.grammar.model import (
    BIG,
    Binary,
    Const,
    DataField,
    Field,
    FieldRef,
    HeaderMapField,
    HeaderRef,
    IntField,
    LITTLE,
    SelfRef,
    SizeExpr,
    TokenField,
    Unit,
    VarField,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<ws>\s+)
  | (?P<selfref>\$\$)
  | (?P<number>0x[0-9a-fA-F]+|\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\\\n]*")
  | (?P<op>&[a-z]+|%[a-z_]+|[{}();:=+\-*.,\[\]])
    """,
    re.VERBOSE,
)

_INT_TYPES = {
    "uint8": (1, False),
    "uint16": (2, False),
    "uint32": (4, False),
    "uint64": (8, False),
    "int8": (1, True),
    "int16": (2, True),
    "int32": (4, True),
    "int64": (8, True),
}


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise GrammarError(
                f"grammar DSL: unexpected character {text[pos]!r} at "
                f"offset {pos}"
            )
        pos = match.end()
        if match.lastgroup in ("comment", "ws"):
            continue
        tokens.append(match.group())
    return tokens


class _DslParser:
    def __init__(self, tokens: List[str]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self, offset: int = 0) -> Optional[str]:
        idx = self._pos + offset
        return self._tokens[idx] if idx < len(self._tokens) else None

    def _next(self) -> str:
        tok = self._peek()
        if tok is None:
            raise GrammarError("grammar DSL: unexpected end of input")
        self._pos += 1
        return tok

    def _expect(self, tok: str) -> None:
        got = self._next()
        if got != tok:
            raise GrammarError(
                f"grammar DSL: expected {tok!r}, found {got!r}"
            )

    def _accept(self, tok: str) -> bool:
        if self._peek() == tok:
            self._pos += 1
            return True
        return False

    # -- units -------------------------------------------------------------

    def parse_units(self) -> List[Unit]:
        units: List[Unit] = []
        while self._peek() is not None:
            units.append(self._parse_unit())
        return units

    def _string(self) -> str:
        tok = self._next()
        if not tok.startswith('"'):
            raise GrammarError(f"grammar DSL: expected a string, found {tok!r}")
        return tok[1:-1]

    def _parse_unit(self) -> Unit:
        self._expect("type")
        name = self._next()
        self._expect("=")
        self._expect("unit")
        self._expect("{")
        byteorder = BIG
        max_bytes = None
        fields: List[Field] = []
        while not self._accept("}"):
            if self._accept("%byteorder"):
                self._expect("=")
                order = self._next()
                if order not in (BIG, LITTLE):
                    raise GrammarError(
                        f"grammar DSL: unknown byte order {order!r}"
                    )
                byteorder = order
                self._expect(";")
                continue
            if self._accept("%max_bytes"):
                self._expect("=")
                max_bytes = self._number()
                self._expect(";")
                continue
            fields.append(self._parse_field())
        self._accept(";")
        return Unit(name, tuple(fields), byteorder, max_bytes)

    def _number(self) -> int:
        tok = self._next()
        if not (tok.isdigit() or tok.startswith("0x")):
            raise GrammarError(f"grammar DSL: expected a number, found {tok!r}")
        return int(tok, 0)

    # -- fields --------------------------------------------------------------

    def _parse_field(self) -> Field:
        if self._accept("var"):
            return self._parse_var_field()
        if self._accept(":"):
            # anonymous field: ``: uint8;``
            return self._finish_data_or_int(None)
        name = self._next()
        self._expect(":")
        return self._finish_data_or_int(name)

    def _finish_data_or_int(self, name: Optional[str]) -> Field:
        type_name = self._next()
        if type_name in _INT_TYPES:
            size, signed = _INT_TYPES[type_name]
            self._expect(";")
            return IntField(name, size, signed)
        if type_name in ("bytes", "string"):
            length: SizeExpr = Const(0)
            if self._accept("&length"):
                self._expect("=")
                length = self._parse_expr()
            self._expect(";")
            return DataField(name, length, text=(type_name == "string"))
        if type_name in ("token", "line"):
            return self._finish_token(name, rest=(type_name == "line"))
        if type_name == "header_map":
            refuse = []
            while self._accept("&refuse"):
                self._expect("=")
                header, sep, value = self._string().partition(":")
                if not sep:
                    raise GrammarError(
                        "grammar DSL: &refuse takes \"name: value\""
                    )
                refuse.append((header.strip().lower(), value.strip().lower()))
            self._expect(";")
            return HeaderMapField(name, tuple(refuse))
        raise GrammarError(f"grammar DSL: unknown field type {type_name!r}")

    def _finish_token(self, name: Optional[str], rest: bool) -> TokenField:
        integer, prefix = False, b""
        while True:
            if self._accept("&convert"):
                self._expect("=")
                self._expect("int")
                integer = True
            elif self._accept("&prefix"):
                self._expect("=")
                prefix = self._string().encode("latin-1")
            else:
                break
        self._expect(";")
        return TokenField(name, integer, prefix, rest)

    def _parse_var_field(self) -> VarField:
        name = self._next()
        self._expect(":")
        type_name = self._next()
        if type_name not in _INT_TYPES:
            raise GrammarError(
                f"grammar DSL: var field {name!r} must have an integer "
                f"type, got {type_name!r}"
            )
        parse_expr: Optional[SizeExpr] = None
        serialize_target: Optional[str] = None
        serialize_expr: Optional[SizeExpr] = None
        while True:
            if self._accept("&parse"):
                self._expect("=")
                parse_expr = self._parse_expr()
            elif self._accept("&serialize"):
                self._expect("=")
                # Form: self.<target> = <expr possibly using $$>
                self._expect("self")
                self._expect(".")
                serialize_target = self._next()
                self._expect("=")
                serialize_expr = self._parse_expr()
            else:
                break
        self._expect(";")
        if parse_expr is None:
            raise GrammarError(
                f"grammar DSL: var field {name!r} needs a &parse expression"
            )
        return VarField(name, parse_expr, serialize_target, serialize_expr)

    # -- expressions ----------------------------------------------------------

    def _parse_expr(self) -> SizeExpr:
        return self._parse_additive()

    def _parse_additive(self) -> SizeExpr:
        left = self._parse_multiplicative()
        while self._peek() in ("+", "-"):
            op = self._next()
            left = Binary(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> SizeExpr:
        left = self._parse_atom()
        while self._peek() == "*":
            self._next()
            left = Binary("*", left, self._parse_atom())
        return left

    def _parse_atom(self) -> SizeExpr:
        tok = self._peek()
        if tok == "(":
            self._next()
            expr = self._parse_expr()
            self._expect(")")
            return expr
        if tok == "$$":
            self._next()
            return SelfRef()
        if tok == "self":
            self._next()
            self._expect(".")
            name = self._next()
            if not self._accept("["):
                return FieldRef(name)
            header = self._string().lower()
            self._expect("]")
            return HeaderRef(name, header)
        if tok is not None and (tok.isdigit() or tok.startswith("0x")):
            return Const(self._number())
        raise GrammarError(
            f"grammar DSL: expected an expression, found {tok!r}"
        )


def parse_grammar(text: str) -> List[Unit]:
    """Parse grammar DSL ``text`` into a list of units."""
    return _DslParser(_tokenize(text)).parse_units()


def parse_unit(text: str) -> Unit:
    """Parse exactly one unit definition."""
    units = parse_grammar(text)
    if len(units) != 1:
        raise GrammarError(f"expected exactly one unit, found {len(units)}")
    return units[0]
