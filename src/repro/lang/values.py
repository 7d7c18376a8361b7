"""Runtime values manipulated by compiled FLICK programs.

The single interesting value class is :class:`Record`: a typed, ordered
bundle of named fields.  Records are produced by the generated message
parsers, by record constructors in FLICK code (``kv(e_key, v)``), and flow
through task-graph channels.  They are mutable (FLICK permits field
assignment, e.g. updating a cached response) but carry a fixed field set:
adding fields after construction is an error, which mirrors the
static-memory discipline of the language.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.core.errors import RuntimeFlickError


class Record:
    """A FLICK record value: a type name plus ordered named fields.

    Records parsed off the wire carry their raw serialised bytes
    (``raw``); as long as the record is not mutated (``dirty`` is False)
    an output task can emit ``raw`` verbatim instead of re-encoding —
    the paper's "copied in their wire format representation" fast path.

    ``record.key`` is for FLICK-facing and test code.  Run-path code
    reads ``record._fields["key"]``, as generated code does: a field is
    not a slot, so CPython first fails the slot lookup and builds an
    ``AttributeError`` before it calls :meth:`__getattr__`: over ten
    times the cost of the dict read on CPython 3.11 (timeit: 844 ns
    against 61 ns).  The slots are plain stores; there is no
    ``__setattr__``.
    """

    __slots__ = ("_type_name", "_fields", "raw", "dirty", "spans")

    def __init__(
        self,
        type_name: str,
        fields: Dict[str, object],
        raw: bytes = None,
    ):
        self._type_name = type_name
        self._fields = dict(fields)
        self.raw = raw
        self.dirty = False
        self.spans = None

    # -- field access -----------------------------------------------------

    @property
    def type_name(self) -> str:
        return self._type_name

    def __getattr__(self, name: str):
        fields = object.__getattribute__(self, "_fields")
        if name in fields:
            return fields[name]
        raise AttributeError(
            f"record {self._type_name!r} has no field {name!r}"
        )

    def get(self, name: str):
        try:
            return self._fields[name]
        except KeyError:
            raise RuntimeFlickError(
                f"record {self._type_name!r} has no field {name!r}"
            ) from None

    def set(self, name: str, value) -> None:
        if name not in self._fields:
            raise RuntimeFlickError(
                f"record {self._type_name!r} has no field {name!r}; "
                "fields cannot be added at run time"
            )
        self._fields[name] = value
        self.dirty = True

    def __getitem__(self, name: str):
        return self.get(name)

    def __setitem__(self, name: str, value) -> None:
        self.set(name, value)

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def keys(self) -> Tuple[str, ...]:
        return tuple(self._fields.keys())

    def items(self) -> Iterator[Tuple[str, object]]:
        return iter(self._fields.items())

    def copy(self) -> "Record":
        return Record(self._type_name, self._fields, self.raw)

    # -- equality / hashing / repr ------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Record)
            and other._type_name == self._type_name
            and other._fields == self._fields
        )

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __hash__(self):
        return hash((self._type_name, tuple(sorted(self._fields.items()))))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._fields.items())
        return f"{self._type_name}({inner})"


def record_size_bytes(value) -> int:
    """Approximate in-memory/wire size of a FLICK value in bytes.

    Used by the runtime for buffer accounting and by cost models for
    per-byte charges when no serialised representation is available.
    """
    if isinstance(value, Record):
        return sum(record_size_bytes(v) for _, v in value.items()) or 1
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8", "replace"))
    if isinstance(value, bool) or value is None:
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, dict):
        return sum(
            record_size_bytes(k) + record_size_bytes(v) for k, v in value.items()
        )
    if isinstance(value, (list, tuple)):
        return sum(record_size_bytes(v) for v in value)
    return 8
