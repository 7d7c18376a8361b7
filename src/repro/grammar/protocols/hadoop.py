"""Hadoop intermediate key/value wire format.

Section 2.1/6.1: the in-network aggregator consumes the stream of
intermediate map-output key/value pairs and emits combined pairs in the
same format.  We use the length-prefixed layout of Hadoop's intermediate
``IFile`` records, simplified to (key length, key bytes, value length,
value bytes) with big-endian prefixes — an "application-specific Hadoop
data type" grammar in the paper's terms (section 4.2).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

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


def make_pair(key: str, value: str) -> Record:
    """Build a key/value record as produced by a mapper."""
    return Record(
        "kv",
        {
            "key_len": len(key.encode("utf-8")),
            "value_len": len(value.encode("utf-8")),
            "key": key,
            "value": value,
        },
    )


def encode_pairs(pairs: Iterable[Tuple[str, str]]) -> bytes:
    """Serialise (key, value) tuples into one mapper output stream."""
    c = codec()
    out = bytearray()
    for key, value in pairs:
        data, _ = c.serialize(make_pair(key, value))
        out.extend(data)
    return bytes(out)


def decode_pairs(data: bytes) -> List[Tuple[str, str]]:
    """Parse a complete mapper stream back into (key, value) tuples."""
    return [(r.key, r.value) for r in codec().parse_all(data)]
