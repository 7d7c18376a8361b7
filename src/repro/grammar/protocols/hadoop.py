"""Hadoop intermediate key/value wire format.

Section 2.1/6.1: the in-network aggregator consumes the stream of
intermediate map-output key/value pairs and emits combined pairs in the
same format.  We use the length-prefixed layout of Hadoop's intermediate
``IFile`` records, simplified to (key length, key bytes, value length,
value bytes) with big-endian prefixes — an "application-specific Hadoop
data type" grammar in the paper's terms (section 4.2).
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.grammar.dsl import parse_unit
from repro.grammar.engine import UnitCodec, make_codec
from repro.grammar.model import Unit
from repro.lang.values import Record

HADOOP_GRAMMAR_TEXT = """
type kv = unit {
    %byteorder = big;

    key_len : uint16;
    value_len : uint32;
    key : string &length = self.key_len;
    value : string &length = self.value_len;
};
"""

#: Compiled grammar for Hadoop intermediate key/value pairs.
HADOOP_UNIT: Unit = parse_unit(HADOOP_GRAMMAR_TEXT)


_CODEC: UnitCodec = make_codec(HADOOP_UNIT)


def codec() -> UnitCodec:
    return _CODEC


def encode_pairs(pairs: Iterable[Tuple[str, str]]) -> bytes:
    """Serialise (key, value) tuples into one mapper output stream.

    Each pair goes through the generated encoder as a record of its key
    and value alone: the encoder computes both length prefixes from the
    encoded payloads, so the record needs no ``key_len``/``value_len``.
    """
    serialize = codec().serialize
    return b"".join(
        [serialize(Record("kv", {"key": key, "value": value}))[0]
         for key, value in pairs]
    )
