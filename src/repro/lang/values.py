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

from typing import Dict, Tuple


class Record:
    """A FLICK record value: a type name plus ordered named fields.

    ``Record(type_name, fields, raw=None, spans=None)`` is the one way to
    build one, and it keeps ``fields`` itself, not a copy: every caller
    (a generated parser or record constructor, a protocol helper) hands
    over a dict it has just built.

    Records parsed off the wire carry their raw serialised bytes
    (``raw``); as long as the record is not mutated (``dirty`` is False)
    an output task can emit ``raw`` verbatim instead of re-encoding —
    the paper's "copied in their wire format representation" fast path.
    ``spans`` holds a generated parser's field offsets into ``raw``.

    Code reads a field as ``record._fields["key"]``, as generated code
    does.  ``record.key`` reads the same dict for examples and
    hand-written FLICK-facing code, but a field is not a slot, so
    CPython first fails the slot lookup and builds an ``AttributeError``
    before it calls :meth:`__getattr__`: over ten times the cost of the
    dict read on CPython 3.11 (timeit: 844 ns against 61 ns).
    """

    __slots__ = ("_type_name", "_fields", "raw", "dirty", "spans")

    def __init__(
        self,
        type_name: str,
        fields: Dict[str, object],
        raw: bytes = None,
        spans: Dict[str, Tuple[int, int]] = None,
    ):
        self._type_name = type_name
        self._fields = fields
        self.raw = raw
        self.dirty = False
        self.spans = spans

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

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Record)
            and other._type_name == self._type_name
            and other._fields == self._fields
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._fields.items())
        return f"{self._type_name}({inner})"
