"""Parser/serialiser generation from message grammars (section 4.2).

:func:`make_codec` lowers a :class:`repro.grammar.model.Unit` to two
generated-and-``exec``'d Python functions (:mod:`repro.grammar.codegen`
writes them; ``UnitCodec.source`` is their text):

* an **incremental parser** — a :class:`UnitParser` whose ``poll`` is
  straight-line code for this unit — that consumes a byte stream in
  arbitrary chunks and emits :class:`repro.lang.values.Record` messages
  as they complete, mirroring the generated input-task code;
* a **serialiser** that re-encodes records, automatically recomputing
  dependent length fields (Listing 2's ``key_len``/``total_len``), with a
  zero-work fast path for unmodified records (raw copy).

A codec may be **specialised** with ``project=...`` — the set of fields
the FLICK program actually accesses.  Non-structural fields outside the
projection are *skipped*: their bytes are located but never sliced, and
serialisation splices their raw spans back verbatim.  This is the paper's
"only parse and serialise the required fields and their dependencies";
the projection is resolved when the code is generated.

Binary units (Memcached, Hadoop) and text units (HTTP/1.1) go through the
same generator; a text unit's skipped fields are its tokens, its header
map (the framing headers are still read) and its body, and a dirty
record gets them back by re-parsing its ``raw`` bytes.  ``raw`` is always
the bytes the message was parsed from.  A unit that declares
``max_bytes`` gets a parser whose ``feed`` refuses a stream that buffers
more than that before a message can be framed.

Parsing/serialisation cost is reported in abstract **ops** (see
``OPS_PER_*`` constants); the runtime converts ops into virtual CPU time.
A message's ops are charged when it completes, bit-identical to the
field-by-field reference codec in ``tests/grammar_oracle.py`` for binary
units and to the hand-written HTTP codec in ``tests/http_oracle.py`` for
text units; for text units they do not depend on the projection.

Codecs are stateless and memoised: every caller asking for the same
``(unit, projection)`` shares one instance and generation is paid once.
All per-stream state lives in the parser objects.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.core.errors import ParseError, SerializeError
from repro.core.generated import exec_generated
from repro.grammar.model import Unit
from repro.lang.values import Record

# Abstract cost weights (ops).  Decoded payload costs per byte; skipped
# payload is only pointer arithmetic.  Chosen so that a full parse of a
# typical Memcached command is ~an order of magnitude above a skip-parse.
# Powers of two, so that sums of charges are exact in any order.
OPS_PER_FIELD = 1.0
OPS_PER_DECODED_BYTE = 1.0 / 16.0
OPS_PER_SKIPPED_BYTE = 1.0 / 512.0
OPS_PER_RAW_COPY_BYTE = 1.0 / 256.0

#: Serialising a payload that has no value and no raw span writes zeros;
#: a length above this is refused with SerializeError, not allocated.
MAX_FILL_BYTES = 1 << 20


class UnitParser:
    """Resumable parser for one byte stream of a unit's messages.

    ``poll`` is generated per codec: it returns the next complete message,
    or None if more bytes are needed (remembering in ``_need`` how many,
    so that a short feed costs one comparison, and in ``_scan`` how far a
    text unit's head was searched), and raises :class:`ParseError` on
    malformed input.
    """

    __slots__ = ("_buf", "_pos", "_need", "_scan", "ops")

    first_need = 0  # bytes without which the generated code cannot start

    def __init__(self):
        self._buf = bytearray()
        # Start of the in-progress message in _buf.  A completed message
        # drops the consumed bytes when they are at least as many as the
        # rest: an idle parser holds none, and moving the rest down never
        # copies more bytes than the drop frees.
        self._pos = 0
        self._need = self.first_need
        self._scan = 0
        self.ops = 0.0

    def feed(self, data: bytes) -> None:
        """Append stream bytes; call :meth:`poll` to harvest messages."""
        self._buf += data

    def pending_bytes(self) -> int:
        """Bytes buffered but not yet consumed by a complete message."""
        return len(self._buf) - self._pos

    def take_ops(self) -> float:
        ops, self.ops = self.ops, 0.0
        return ops

    def poll(self) -> Optional[Record]:  # pragma: no cover - generated
        raise NotImplementedError

    def messages(self) -> Iterator[Record]:
        """Drain every complete message currently buffered."""
        # Not ``iter(self.poll, None)``: that compares each message with
        # the sentinel by ``==``, one ``Record.__eq__`` call per message.
        poll = self.poll
        while (message := poll()) is not None:
            yield message


class _BoundedParser(UnitParser):
    """The parser of a unit that declares ``max_bytes``: ``feed`` refuses
    a stream that buffers more than that without the current message's
    frame (:meth:`repro.grammar.model.Unit.frame`)."""

    __slots__ = ()

    label = ""
    max_bytes = 0
    frame: Optional[Unit] = None

    def feed(self, data: bytes) -> None:
        self._buf += data
        pending = len(self._buf) - self._pos
        if pending > self.max_bytes and not self._framed():
            raise ParseError(
                f"{self.label}: {pending} bytes buffered and no message "
                f"framed within max_bytes={self.max_bytes}"
            )

    def _framed(self) -> bool:
        """Whether the frame parses (or fails to) from what is buffered."""
        if self.frame is None:
            return True
        probe = make_codec(self.frame, ()).parser()  # generated on first use
        probe._buf = self._buf[self._pos:]
        try:
            return probe.poll() is not None
        except ParseError:
            return True


class UnitCodec:
    """Generated parser/serialiser pair for one grammar unit."""

    def __init__(self, unit: Unit, project: Optional[Iterable[str]] = None):
        from repro.grammar import codegen  # it imports the weights above

        self.unit = unit
        named = {f.name for f in unit.named_fields()}
        if project is None:
            decoded = named
        else:
            unknown = set(project) - named
            if unknown:
                raise SerializeError(
                    f"projection names unknown fields: {sorted(unknown)}"
                )
            # Projection only elides *payload* decoding, which is where
            # the savings are.
            decoded = (
                set(project) | unit.structural_fields() | unit.integer_fields()
            )
        #: fields whose values are decoded during parsing
        self.decoded_fields: frozenset = frozenset(decoded)
        if unit.text:
            poll_source, first_need = codegen.text_parser_source(
                unit, self.decoded_fields
            )
            encode_source = codegen.text_encoder_source(unit)
        else:
            poll_source, first_need = codegen.parser_source(
                unit, self.decoded_fields
            )
            encode_source = codegen.encoder_source(unit)
        #: the generated ``poll`` and ``encode`` functions, as text
        self.source: str = poll_source + "\n\n" + encode_source
        namespace = dict(codegen.RUNTIME_NAMESPACE)
        if unit.text:
            namespace["_complete"] = self._complete
        exec_generated(self.source, __file__, unit.name, namespace)
        self._encode = namespace["encode"]
        base, attrs = UnitParser, {}
        if unit.max_bytes is not None:
            base, attrs = _BoundedParser, {
                "label": unit.name,
                "max_bytes": unit.max_bytes,
                "frame": unit.frame(),
            }
        attrs.update(__slots__=(), poll=namespace["poll"], first_need=first_need)
        self._parser_type = type(f"{unit.name}_parser", (base,), attrs)

    # -- parsing ------------------------------------------------------------

    def parser(self) -> UnitParser:
        return self._parser_type()

    def parse_all(self, data: bytes) -> List[Record]:
        """Parse a complete buffer; raises if bytes are left over."""
        p = self.parser()
        p.feed(data)
        records = list(p.messages())
        if p.pending_bytes():
            raise ParseError(
                f"{self.unit.name}: {p.pending_bytes()} trailing byte(s)"
            )
        return records

    # -- serialisation ---------------------------------------------------------

    def serialize(self, record: Record) -> Tuple[bytes, float]:
        """Encode ``record``; returns (bytes, ops cost).

        Fast path: a parsed, unmodified record is emitted as its raw
        bytes.  Otherwise dependent length fields are recomputed and the
        message re-encoded, splicing raw spans for skipped fields.
        """
        raw = record.raw
        if raw is not None and not record.dirty:
            return raw, len(raw) * OPS_PER_RAW_COPY_BYTE
        return self._encode(record)

    def _complete(self, record: Record) -> dict:
        """Every field of a text unit's record: the ones a projected parse
        did not build come from parsing its ``raw`` bytes again."""
        if record.raw is None:
            missing = sorted(f.name for f in self.unit.fields if f.name not in record)
            raise SerializeError(
                f"{self.unit.name}: no value and no raw bytes for {missing}"
            )
        parsed = make_codec(self.unit).parse_all(record.raw)[0]
        return {**parsed._fields, **record._fields}


@functools.lru_cache(maxsize=None)
def _cached_codec(unit: Unit, project: Optional[frozenset]) -> UnitCodec:
    return UnitCodec(unit, project)


def make_codec(unit: Unit, project: Optional[Iterable[str]] = None) -> UnitCodec:
    """The (possibly specialised) codec for ``unit``: generated once per
    ``(unit, projection)`` and shared by every caller."""
    return _cached_codec(unit, None if project is None else frozenset(project))
