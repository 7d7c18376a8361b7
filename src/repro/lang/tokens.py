"""Token definitions for the FLICK language lexer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import SourceLocation

# Token kinds are plain strings; keeping them in one frozenset makes the
# parser's expectations auditable.
KEYWORDS = frozenset(
    {
        "type",
        "proc",
        "fun",
        "record",
        "global",
        "let",
        "if",
        "elif",
        "else",
        "ref",
        "dict",
        "list",
        "and",
        "or",
        "not",
        "mod",
        "fold",
        "foldt",
        "map",
        "filter",
        "on",
        "ordering",
        "by",
        "as",
        "True",
        "False",
        "None",
    }
)

# Multi-character operators must be listed before their prefixes.
OPERATORS = (
    "=>",
    ":=",
    "->",
    "<>",
    "<=",
    ">=",
    "==",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "<",
    ">",
    ":",
    ",",
    ".",
    "|",
    "=",
    "+",
    "-",
    "*",
    "/",
    "_",
)

# Kinds that are not operators or keywords.
NAME = "NAME"
INT = "INT"
STRING = "STRING"
NEWLINE = "NEWLINE"
INDENT = "INDENT"
DEDENT = "DEDENT"
EOF = "EOF"


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``kind`` is either one of the literal operator strings, a keyword, or
    one of the symbolic kinds (NAME, INT, STRING, NEWLINE, INDENT, DEDENT,
    EOF).  ``value`` carries the decoded payload for NAME/INT/STRING.
    """

    kind: str
    value: Optional[object]
    location: SourceLocation
