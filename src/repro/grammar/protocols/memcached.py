"""Memcached binary protocol grammar (Listing 2 of the paper).

The grammar below is the paper's Listing 2 verbatim (modulo the anonymous
reserved field's placement in the DSL).  Helpers build well-formed request
and response commands for workload generators and tests.

Protocol reference: the Memcached "binary protocol revamped" spec [50].
"""

from __future__ import annotations

from typing import Optional

from repro.grammar.dsl import parse_unit
from repro.grammar.engine import UnitCodec, make_codec
from repro.grammar.model import Unit
from repro.lang.values import Record

MEMCACHED_GRAMMAR_TEXT = """
type cmd = unit {
    %byteorder = big;

    magic_code : uint8;
    opcode : uint8;
    key_len : uint16;
    extras_len : uint8;
    : uint8;                       # data type, reserved for future use
    status_or_v_bucket : uint16;
    total_len : uint32;
    opaque : uint32;
    cas : uint64;

    var value_len : uint32
        &parse = self.total_len - (self.extras_len + self.key_len)
        &serialize = self.total_len = self.key_len + self.extras_len + $$;
    extras : bytes &length = self.extras_len;
    key : string &length = self.key_len;
    value : bytes &length = self.value_len;
};
"""

#: Compiled grammar unit for Memcached binary commands.
MEMCACHED_UNIT: Unit = parse_unit(MEMCACHED_GRAMMAR_TEXT)

# Magic codes
MAGIC_REQUEST = 0x80
MAGIC_RESPONSE = 0x81

# Opcodes used by the evaluation's proxy workload.
OP_GET = 0x00
OP_SET = 0x01
OP_GETK = 0x0C

STATUS_OK = 0x0000
STATUS_KEY_NOT_FOUND = 0x0001

HEADER_LEN = 24


_FULL_CODEC: UnitCodec = make_codec(MEMCACHED_UNIT)


def full_codec() -> UnitCodec:
    """Codec that decodes every field (a generic, unspecialised parser)."""
    return _FULL_CODEC


def specialized_codec(accessed: Optional[frozenset] = None) -> UnitCodec:
    """Codec specialised to the fields a FLICK program accesses.

    With the Listing 1 router, ``accessed`` is ``{opcode, key}`` — the
    ``extras`` and ``value`` payloads are skipped, not decoded.
    """
    return make_codec(MEMCACHED_UNIT, project=accessed or {"opcode", "key"})


def _command(
    magic: int,
    opcode: int,
    key: str,
    value: bytes = b"",
    extras: bytes = b"",
    status: int = 0,
    opaque: int = 0,
    cas: int = 0,
) -> Record:
    key_bytes = key.encode("utf-8")
    return Record(
        "cmd",
        {
            "magic_code": magic,
            "opcode": opcode,
            "key_len": len(key_bytes),
            "extras_len": len(extras),
            "status_or_v_bucket": status,
            "total_len": len(extras) + len(key_bytes) + len(value),
            "opaque": opaque,
            "cas": cas,
            "value_len": len(value),
            "extras": extras,
            "key": key,
            "value": value,
        },
    )


def make_request(
    opcode: int, key: str, value: bytes = b"", opaque: int = 0
) -> Record:
    """Build a client request command record."""
    extras = b"\x00" * 8 if opcode == OP_SET else b""
    return _command(
        MAGIC_REQUEST, opcode, key, value=value, extras=extras, opaque=opaque
    )


def make_response(
    opcode: int,
    key: str,
    value: bytes,
    status: int = STATUS_OK,
    opaque: int = 0,
) -> Record:
    """Build a server response command record.

    GETK responses echo the key (which is what lets the Listing 1 router
    cache them); plain GET responses do not.
    """
    included_key = key if opcode == OP_GETK else ""
    extras = b"\x00\x00\x00\x00" if opcode in (OP_GET, OP_GETK) else b""
    return _command(
        MAGIC_RESPONSE,
        opcode,
        included_key,
        value=value,
        extras=extras,
        status=status,
        opaque=opaque,
    )


def encode(record: Record) -> bytes:
    """Serialise a command record with the full codec."""
    return _FULL_CODEC.serialize(record)[0]
