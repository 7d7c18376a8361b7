"""Message grammars: model, DSL front end, codec engine, protocol library."""

from repro.grammar.dsl import parse_grammar, parse_unit
from repro.grammar.engine import UnitCodec, UnitParser, make_codec
from repro.grammar.model import (
    BIG,
    Binary,
    Const,
    ConstField,
    DataField,
    Field,
    FieldRef,
    HeaderMapField,
    HeaderRef,
    IntField,
    LITTLE,
    SelfRef,
    TokenField,
    Unit,
    VarField,
)

__all__ = [
    "parse_grammar",
    "parse_unit",
    "UnitCodec",
    "UnitParser",
    "make_codec",
    "BIG",
    "Binary",
    "Const",
    "ConstField",
    "DataField",
    "Field",
    "FieldRef",
    "HeaderMapField",
    "HeaderRef",
    "IntField",
    "LITTLE",
    "SelfRef",
    "TokenField",
    "Unit",
    "VarField",
]
