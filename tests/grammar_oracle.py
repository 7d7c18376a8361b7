"""Reference codec: the field-by-field interpreter the generator replaced.

This was ``src/repro/grammar/engine.py`` until the codec became generated
code (``repro.grammar.codegen``).  It stays here as the executable
definition of what a generated parser/serialiser must do:
:class:`IncrementalUnitParser` walks the unit's field tuple per message
and evaluates length expressions through :func:`eval_expr`, their
reference semantics (the generated code inlines them as arithmetic);
``OracleCodec._encode`` is the three-pass serialiser.  ``tests/test_grammar_codegen.py`` holds every
generated codec to it — records, ``raw``, ``spans``, ``pending_bytes()``,
cumulative ``ops`` (``==``) and exception classes, including ``feed``'s
refusal under a unit's ``max_bytes``.  Nothing under ``src/`` imports
it.  Text units (HTTP) have their own oracle, ``tests/http_oracle.py``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.errors import GrammarError, ParseError, SerializeError
from repro.grammar.engine import (
    MAX_FILL_BYTES,
    OPS_PER_DECODED_BYTE,
    OPS_PER_FIELD,
    OPS_PER_RAW_COPY_BYTE,
    OPS_PER_SKIPPED_BYTE,
)
from repro.grammar.model import (
    Binary,
    Const,
    ConstField,
    DataField,
    Field,
    FieldRef,
    IntField,
    SelfRef,
    SizeExpr,
    Unit,
    VarField,
)
from repro.lang.values import Record


def eval_expr(
    expr: SizeExpr, values: Dict[str, int], own: Optional[int] = None
) -> int:
    """Evaluate a grammar expression over parsed field ``values``."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, FieldRef):
        try:
            return values[expr.name]
        except KeyError:
            raise GrammarError(
                f"expression references field {expr.name!r} before it is "
                "available"
            ) from None
    if isinstance(expr, SelfRef):
        if own is None:
            raise GrammarError("'$$' used outside a field context")
        return own
    if isinstance(expr, Binary):
        left = eval_expr(expr.left, values, own)
        right = eval_expr(expr.right, values, own)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        raise GrammarError(f"unknown grammar operator {expr.op!r}")
    raise GrammarError(f"unknown grammar expression {expr!r}")


class IncrementalUnitParser:
    """Resumable parser for one byte stream of ``unit`` messages."""

    def __init__(self, codec: "OracleCodec"):
        self._codec = codec
        self._buf = bytearray()
        self._pos = 0  # consume offset into _buf
        self._msg_start = 0  # start of the in-progress message
        self._field_idx = 0
        self._values: Dict[str, object] = {}
        self._spans: Dict[str, Tuple[int, int]] = {}  # relative to message
        self.ops = 0.0

    # -- byte intake -------------------------------------------------------

    def feed(self, data: bytes) -> None:
        """Append stream bytes; call :meth:`poll` to harvest messages.
        Refuses more than ``max_bytes`` unconsumed bytes that do not hold
        the current message's frame."""
        self._buf.extend(data)
        bound = self._codec.unit.max_bytes
        if bound is not None and self.pending_bytes() > bound and not self._framed():
            raise ParseError(f"{self._codec.unit.name}: no frame within {bound} bytes")

    def _framed(self) -> bool:
        frame = self._codec.unit.frame()
        if frame is None:
            return True
        probe = OracleCodec(frame).parser()
        probe.feed(bytes(self._buf[self._msg_start:]))
        try:
            return probe.poll() is not None
        except ParseError:
            return True

    def pending_bytes(self) -> int:
        """Bytes buffered but not yet consumed by a complete message."""
        return len(self._buf) - self._msg_start

    def take_ops(self) -> float:
        ops, self.ops = self.ops, 0.0
        return ops

    # -- message extraction ---------------------------------------------------

    def poll(self) -> Optional[Record]:
        """Return the next complete message, or None if more bytes are
        needed.  Raises :class:`ParseError` on malformed input."""
        unit = self._codec.unit
        fields = unit.fields
        while self._field_idx < len(fields):
            if not self._step(fields[self._field_idx]):
                return None
            self._field_idx += 1
        return self._finish_message()

    def messages(self) -> Iterator[Record]:
        """Drain every complete message currently buffered."""
        while True:
            record = self.poll()
            if record is None:
                return
            yield record

    # -- internals ---------------------------------------------------------------

    def _step(self, field: Field) -> bool:
        """Try to consume ``field``; False if more bytes are needed."""
        codec = self._codec
        if isinstance(field, VarField):
            value = eval_expr(field.parse_expr, self._int_values())
            if value < 0:
                raise ParseError(
                    f"{codec.unit.name}.{field.name}: computed negative "
                    f"value {value}"
                )
            self._values[field.name] = value
            self.ops += OPS_PER_FIELD
            return True
        size = self._field_size(field)
        if len(self._buf) - self._pos < size:
            return False
        start = self._pos
        end = start + size
        rel = (start - self._msg_start, end - self._msg_start)
        if isinstance(field, IntField):
            if field.name is not None:
                self._values[field.name] = int.from_bytes(
                    self._buf[start:end],
                    codec.unit.byteorder,
                    signed=field.signed,
                )
                self._spans[field.name] = rel
            else:
                self._spans[f"__anon_{self._field_idx}"] = rel
            self.ops += OPS_PER_FIELD
        elif isinstance(field, ConstField):
            if bytes(self._buf[start:end]) != field.value:
                raise ParseError(
                    f"{codec.unit.name}: constant field mismatch at "
                    f"offset {start - self._msg_start}"
                )
            self.ops += OPS_PER_FIELD
        elif isinstance(field, DataField):
            span_key = (
                field.name
                if field.name is not None
                else f"__anon_{self._field_idx}"
            )
            self._spans[span_key] = rel
            if field.name in codec.decoded_fields:
                raw = bytes(self._buf[start:end])
                self._values[field.name] = (
                    raw.decode("utf-8", "replace") if field.text else raw
                )
                self.ops += OPS_PER_FIELD + size * OPS_PER_DECODED_BYTE
            else:
                self.ops += OPS_PER_FIELD + size * OPS_PER_SKIPPED_BYTE
        else:  # pragma: no cover - exhaustive over field kinds
            raise ParseError(f"unknown field kind {field!r}")
        self._pos = end
        return True

    def _field_size(self, field: Field) -> int:
        if isinstance(field, IntField):
            return field.size
        if isinstance(field, ConstField):
            return len(field.value)
        if isinstance(field, DataField):
            size = eval_expr(field.length_expr(), self._int_values())
            if size < 0:
                raise ParseError(
                    f"{self._codec.unit.name}.{field.name}: negative "
                    f"length {size}"
                )
            return size
        raise ParseError(f"field {field!r} has no wire size")

    def _int_values(self) -> Dict[str, int]:
        return self._values

    def _finish_message(self) -> Record:
        codec = self._codec
        raw = bytes(self._buf[self._msg_start : self._pos])
        fields = {
            name: self._values[name]
            for name in codec.record_fields
            if name in self._values
        }
        record = Record(codec.unit.name, fields, raw)
        record.spans = dict(self._spans)
        # Reset per-message state; drop the consumed bytes once they are
        # at least as many as the rest.
        self._msg_start = self._pos
        self._field_idx = 0
        self._values = {}
        self._spans = {}
        if self._pos >= len(self._buf) - self._pos:
            del self._buf[: self._pos]
            self._msg_start -= self._pos
            self._pos = 0
        return record


class OracleCodec:
    """Interpretive parser/serialiser pair for one grammar unit."""

    def __init__(self, unit: Unit, project: Optional[Set[str]] = None):
        self.unit = unit
        named = [f.name for f in unit.named_fields()]
        structural = unit.structural_fields()
        # Integer and var fields are always decoded: they are cheap and the
        # serialiser needs them to re-emit spliced messages.  Projection
        # therefore only elides *payload* (DataField) decoding, which is
        # where the savings are.
        always = {
            f.name
            for f in unit.fields
            if isinstance(f, (IntField, VarField)) and f.name is not None
        }
        if project is None:
            decoded = set(named)
        else:
            unknown = set(project) - set(named)
            if unknown:
                raise SerializeError(
                    f"projection names unknown fields: {sorted(unknown)}"
                )
            decoded = set(project) | set(structural) | always
        #: fields whose values are decoded during parsing
        self.decoded_fields: frozenset = frozenset(decoded)
        #: fields exposed on produced records (decoded, in unit order)
        self.record_fields: Tuple[str, ...] = tuple(
            n for n in named if n in decoded
        )

    # -- parsing ------------------------------------------------------------

    def parser(self) -> IncrementalUnitParser:
        return IncrementalUnitParser(self)

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
        if record.raw is not None and not record.dirty:
            return record.raw, len(record.raw) * OPS_PER_RAW_COPY_BYTE
        return self._encode(record)

    def _encode(self, record: Record) -> Tuple[bytes, float]:
        unit = self.unit
        values: Dict[str, object] = {}
        spans = getattr(record, "spans", None) or {}
        raw = record.raw
        for f in unit.named_fields():
            if f.name in record:
                values[f.name] = record._fields[f.name]
        # Pass 1: invert simple length references from payload sizes.
        for f in unit.fields:
            if isinstance(f, DataField) and f.name is not None:
                payload = self._payload_bytes(f, values, spans, raw)
                if payload is None:
                    raise SerializeError(
                        f"{unit.name}.{f.name}: no value and no raw span "
                        "to serialise"
                    )
                values[f.name] = payload
                expr = f.length_expr()
                if isinstance(expr, FieldRef):
                    values[expr.name] = len(payload)
        # Pass 2: var-field serialisation rules (total_len etc.).
        for f in unit.fields:
            if isinstance(f, VarField):
                own = self._var_own_value(f, values)
                values[f.name] = own
                if f.serialize_target is not None:
                    values[f.serialize_target] = eval_expr(
                        f.serialize_expr, values, own
                    )
        # Pass 3: emit.
        out = bytearray()
        ops = 0.0
        for idx, f in enumerate(unit.fields):
            ops += OPS_PER_FIELD
            if isinstance(f, VarField):
                continue
            if isinstance(f, ConstField):
                out.extend(f.value)
                continue
            if isinstance(f, IntField):
                if f.name is None:
                    span = spans.get(f"__anon_{idx}")
                    if span is not None and raw is not None:
                        out.extend(raw[span[0] : span[1]])
                    else:
                        out.extend(b"\x00" * f.size)
                    continue
                value = values.get(f.name)
                if value is None:
                    raise SerializeError(
                        f"{unit.name}.{f.name}: missing integer value"
                    )
                try:
                    out.extend(
                        int(value).to_bytes(
                            f.size, unit.byteorder, signed=f.signed
                        )
                    )
                except OverflowError:
                    raise SerializeError(
                        f"{unit.name}.{f.name}: value {value} does not fit "
                        f"in {f.size} byte(s)"
                    ) from None
                continue
            # DataField
            length = eval_expr(f.length_expr(), values)
            if f.name is None:
                span = spans.get(f"__anon_{idx}")
                if span is not None and raw is not None:
                    chunk = bytes(raw[span[0] : span[1]])
                elif length > MAX_FILL_BYTES:
                    raise SerializeError(
                        f"{unit.name}._ (field {idx}): length {length} exceeds "
                        f"{MAX_FILL_BYTES} zero bytes"
                    )
                elif length < 0:
                    # Before ``b"\x00" * length``: below -2**63 that
                    # multiplication raises OverflowError.
                    raise SerializeError(
                        f"{unit.name}._ (field {idx}): negative length {length}"
                    )
                else:
                    chunk = b"\x00" * length
            else:
                chunk = values[f.name]
            if len(chunk) != length:
                raise SerializeError(
                    f"{unit.name}.{f.name or '_'}: payload is "
                    f"{len(chunk)} byte(s) but length fields say {length}"
                )
            out.extend(chunk)
            ops += length * OPS_PER_DECODED_BYTE
        return bytes(out), ops

    def _payload_bytes(
        self, f: DataField, values, spans, raw
    ) -> Optional[bytes]:
        if f.name in values and values[f.name] is not None:
            value = values[f.name]
            if isinstance(value, str):
                return value.encode("utf-8")
            return bytes(value)
        span = spans.get(f.name)
        if span is not None and raw is not None:
            return bytes(raw[span[0] : span[1]])
        return None

    def _var_own_value(self, f: VarField, values) -> int:
        # A var field's serialisation-time value is the recomputed length
        # of whatever payload its parse expression measured.  For the
        # common pattern ``var L ... ; data &length = self.L`` the pass-1
        # inversion already set it; fall back to the parse expression.
        if f.name in values and values[f.name] is not None:
            return values[f.name]
        try:
            return eval_expr(f.parse_expr, values)
        except Exception as exc:  # pragma: no cover - defensive
            raise SerializeError(
                f"cannot compute var field {f.name!r}: {exc}"
            ) from exc
