"""Lower a grammar unit to straight-line Python (section 4.2).

:func:`parser_source` and :func:`encoder_source` turn a ``Unit`` into the
text of a ``poll(self)`` method and an ``encode(record)`` function, which
:mod:`repro.grammar.engine` ``exec``s once per codec.  What the reference
codec (``tests/grammar_oracle.py``) decides per message by walking the
field tuple is decided here, once: a run of fixed-size integer/constant
fields is one precompiled ``struct.Struct`` ``unpack_from``/``pack``;
length and ``var`` expressions are arithmetic on locals; the projection
picks which payloads are sliced (skipped ones only move an offset); the
record's field dict, its ``spans`` and the ``ops`` charge (a constant
plus byte terms) are literals.

The generated parser raises on exactly the ``poll()`` call where the
reference would: it asks for more bytes only between fields where nothing
can fail, so the waits for payloads whose lengths are provably
non-negative merge into one, and a run ends at a constant field so that
a bad magic number is reported as soon as its bytes arrive.

A text unit (:func:`text_parser_source`, :func:`text_encoder_source`) is
lowered the same way, with the start line split once, the header block
walked once and the body sliced from ``raw``.  Its parse charge does not
depend on the projection: every field, every head byte decoded, every
body byte copied — a projection saves host time, never virtual time.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

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
    FieldRef,
    HeaderMapField,
    HeaderRef,
    IntField,
    SelfRef,
    SizeExpr,
    Unit,
    VarField,
    referenced_fields,
)
from repro.lang.values import Record

_INT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _int_code(field: IntField) -> str:
    code = _INT_CODES[field.size]
    return code if field.signed else code.upper()


def _span_key(idx: int, name: Optional[str]) -> str:
    return name if name is not None else f"__anon_{idx}"


def _ops(count: int, terms: List[Tuple[List[str], float]]) -> str:
    """``count`` field charges plus ``weight * bytes`` per term."""
    text = repr(count * OPS_PER_FIELD)
    for sizes, weight in terms:
        if sizes:
            total = sizes[0] if len(sizes) == 1 else f"({' + '.join(sizes)})"
            text += f" + {total} * {weight!r}"
    return text


class _Lowering:
    """What both generators share: one local per integer/var field
    (``v<index>``: field names never become identifiers), the expression
    printer and the text being built."""

    def __init__(self, unit: Unit):
        self.unit = unit
        self.order = ">" if unit.byteorder == "big" else "<"
        self.index = {f.name: i for i, f in enumerate(unit.fields)}
        self.integers = unit.integer_fields()
        self.headers: Dict[HeaderRef, str] = {}  # text units: header -> local
        self.structs: List[str] = []  # precompiled, above the def
        self.lines: List[str] = []

    def emit(self, text: str, depth: int = 1) -> None:
        self.lines.append("    " * depth + text)

    def emit_dict(self, target: str, entries: List[str]) -> None:
        if not entries:
            self.emit(f"{target} = {{}}")
            return
        self.emit(f"{target} = {{")
        for entry in entries:
            self.emit(f"{entry},", 2)
        self.emit("}")

    def emit_parse_error(self, prefix: str, detail: str) -> None:
        self.emit(f"raise ParseError({prefix!r} + str({detail}))", 2)

    def struct_method(self, name: str, codes: List[str], method: str) -> str:
        name = f"_{name}{len(self.structs)}"
        fmt = self.order + "".join(codes)
        self.structs.append(f"{name} = _struct({fmt!r}).{method}")
        return name

    def local(self, name: str, where: str) -> str:
        """The local holding integer/var field ``name``."""
        if name not in self.integers:
            raise GrammarError(
                f"unit {self.unit.name!r}: {where} references {name!r}, "
                "which is not an integer or var field"
            )
        return f"v{self.index[name]}"

    def expr(self, expr: SizeExpr, where: str, own: Optional[str] = None) -> str:
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, FieldRef):
            return self.local(expr.name, where)
        if isinstance(expr, SelfRef) and own is not None:
            return own
        if isinstance(expr, HeaderRef) and expr in self.headers:
            return self.headers[expr]
        if isinstance(expr, Binary) and expr.op in ("+", "-", "*"):
            left = self.expr(expr.left, where, own)
            right = self.expr(expr.right, where, own)
            return f"({left} {expr.op} {right})"
        raise GrammarError(f"unit {self.unit.name!r}: {where} cannot use {expr!r}")

    def source(self, header: str) -> str:
        head = self.structs + [""] * bool(self.structs) + [header]
        return "\n".join(head + self.lines) + "\n"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_POLL_HEAD = """\
    buf = self._buf
    p = self._pos
    n = len(buf) - p
    if n < self._need:
        return None"""

_POLL_TAIL = """\
    self.ops += {ops}
    p += {size}
    if p >= len(buf) - p:
        del buf[:p]
        p = 0
    self._pos = p
    self._need = {first_need}
    return record"""


def parser_source(unit: Unit, decoded: frozenset) -> Tuple[str, int]:
    """Text of ``poll(self)`` for ``unit`` decoding only the ``decoded``
    payloads, and the byte count below which it cannot make progress."""
    low = _Lowering(unit)
    emit, label = low.emit, unit.name
    low.lines.append(_POLL_HEAD)
    nonneg = set()  # locals proven >= 0 at this point of the walk

    def is_nonneg(expr: SizeExpr) -> bool:
        if isinstance(expr, Const):
            return expr.value >= 0
        if isinstance(expr, FieldRef):
            return low.local(expr.name, "a length") in nonneg
        return (
            isinstance(expr, Binary)
            and expr.op in "+*"
            and is_nonneg(expr.left)
            and is_nonneg(expr.right)
        )

    # Offsets are relative to the message start: an optional local holding
    # the end of the last variable-length field, plus a constant.
    base: Optional[str] = None
    add = 0
    checked = None  # offset the last emitted availability check covers
    first_need: Optional[int] = None
    run: List[Tuple[str, Optional[str]]] = []  # (struct code, local) at run_at
    run_at = ""

    def at(extra: int = 0) -> str:
        if base is None:
            return repr(add + extra)
        return base if add + extra == 0 else f"{base} + {add + extra}"

    def need_bytes() -> None:
        """``return None`` unless everything up to the current offset is
        buffered.  Called only in front of code that reads bytes or can
        raise, so that the waits between harmless fields merge."""
        nonlocal checked, first_need
        if checked == (base, add):
            return
        checked = (base, add)
        if first_need is None:
            # What ``_need`` holds between messages: _POLL_HEAD tests it.
            first_need = add if base is None else 0
            if base is None:
                return
        emit(f"if n < {at()}:")
        emit(f"self._need = {at()}", 2)
        emit("return None", 2)

    def flush_run() -> None:
        if not run:
            return
        need_bytes()
        targets = [local for _, local in run if local is not None]
        if targets:
            codes = [code for code, _ in run]
            unpack = low.struct_method("unpack", codes, "unpack_from")
            names = ", ".join(targets) + "," * (len(targets) == 1)
            where = "p" if run_at == "0" else f"p + {run_at}"
            emit(f"{names} = {unpack}(buf, {where})")
        run.clear()

    spans: List[str] = []
    values: List[str] = []  # the record's fields, in unit order
    decoded_sizes: List[str] = []
    skipped_sizes: List[str] = []

    for idx, f in enumerate(unit.fields):
        where = f"field {f.name!r}"
        if isinstance(f, (IntField, ConstField)) and not run:
            run_at = at()
        if isinstance(f, IntField):
            if f.name is None:
                run.append((f"{f.size}x", None))
            else:
                run.append((_int_code(f), f"v{idx}"))
                values.append(f"{f.name!r}: v{idx}")
                if not f.signed:
                    nonneg.add(f"v{idx}")
            spans.append(f"{_span_key(idx, f.name)!r}: ({at()}, {at(f.size)})")
            add += f.size
        elif isinstance(f, ConstField):
            const_at = at()
            run.append((f"{len(f.value)}x", None))
            add += len(f.value)
            flush_run()
            if f.value:
                emit(f"if not buf.startswith({f.value!r}, p + {const_at}):")
                prefix = f"{label}: constant field mismatch at offset "
                low.emit_parse_error(prefix, const_at)
        elif isinstance(f, VarField):
            flush_run()
            emit(f"v{idx} = {low.expr(f.parse_expr, where)}  # {f.name!r}")
            if not is_nonneg(f.parse_expr):
                need_bytes()
                emit(f"if v{idx} < 0:")
                prefix = f"{label}.{f.name}: computed negative value "
                low.emit_parse_error(prefix, f"v{idx}")
            nonneg.add(f"v{idx}")
            values.append(f"{f.name!r}: v{idx}")
        elif isinstance(f, DataField):
            flush_run()
            length = f.length_expr()
            size = low.expr(length, where)
            if isinstance(length, Binary):
                emit(f"n{idx} = {size}")
                size = f"n{idx}"
            if not is_nonneg(length):
                need_bytes()
                emit(f"if {size} < 0:")
                prefix = f"{label}.{f.name}: negative length "
                low.emit_parse_error(prefix, size)
            start = at()
            if isinstance(length, Const):
                add += max(length.value, 0)
            else:
                emit(f"o{idx} = {start} + {size}  # end of {f.name!r}")
                base, add = f"o{idx}", 0
            spans.append(f"{_span_key(idx, f.name)!r}: ({start}, {at()})")
            if f.name is not None and f.name in decoded:
                decoded_sizes.append(size)
                text = ".decode('utf-8', 'replace')" if f.text else ""
                values.append(f"{f.name!r}: raw[{start}:{at()}]{text}")
            else:
                skipped_sizes.append(size)
        else:  # pragma: no cover - exhaustive over field kinds
            raise GrammarError(f"unknown field kind {f!r}")
    flush_run()
    need_bytes()

    emit(f"raw = bytes(buf[p:p + {at()}])")
    low.emit_dict("fields", values)
    low.emit_dict("spans", spans)
    emit(f"record = Record({label!r}, fields, raw, spans)")
    weighted = [
        (decoded_sizes, OPS_PER_DECODED_BYTE),
        (skipped_sizes, OPS_PER_SKIPPED_BYTE),
    ]
    low.lines.append(
        _POLL_TAIL.format(
            ops=_ops(len(unit.fields), weighted),
            size=at(),
            first_need=first_need,
        )
    )
    return low.source("def poll(self):"), first_need


# ---------------------------------------------------------------------------
# Serialiser
# ---------------------------------------------------------------------------


def encoder_source(unit: Unit) -> str:
    """Text of ``encode(record)``: recompute dependent lengths, then emit
    every field.  The projection does not matter here: payloads a parser
    skipped are spliced back from ``record.raw`` through ``spans``."""
    low = _Lowering(unit)
    emit, label, fields = low.emit, unit.name, unit.fields
    payloads = [
        (idx, f)
        for idx, f in enumerate(fields)
        if isinstance(f, DataField) and f.name is not None
    ]
    # Pass 1 of the reference: a payload's size overwrites the integer or
    # var field its length names, so those locals are never loaded.
    # ``written`` maps a local to the field that assigns it last.
    written: Dict[str, int] = {
        low.local(f.length.name, f"field {f.name!r}"): idx
        for idx, f in payloads
        if isinstance(f.length, FieldRef)
    }
    inverted = frozenset(written)

    emit("get = record._fields.get")
    for idx, f in enumerate(fields):
        local = f"d{idx}" if isinstance(f, DataField) else f"v{idx}"
        valued = f.name is not None and not isinstance(f, ConstField)
        if valued and local not in inverted:
            emit(f"{local} = get({f.name!r})")
    if any(f.name is None and not isinstance(f, ConstField) for f in fields):
        emit("spliced = record.raw is not None and record.spans")
    for idx, f in payloads:
        d, test = f"d{idx}", "if"
        if f.text:
            emit(f"if {d}.__class__ is str:")
            emit(f"{d} = {d}.encode()", 2)
            test = "elif"
        emit(f"{test} {d}.__class__ is not bytes:")
        emit(f"{d} = _payload_bytes(record, {f.name!r}, {label!r}, {d})", 2)
        emit(f"n{idx} = len({d})")
        if isinstance(f.length, FieldRef):
            emit(f"{low.local(f.length.name, '')} = n{idx}")

    # Pass 2: a var field takes the size its payload turned out to have
    # (or, with no such payload and no value, its parse expression) and
    # drives its ``&serialize`` target.
    derived: List[str] = []
    for idx, f in enumerate(fields):
        if not isinstance(f, VarField):
            continue
        where = f"var field {f.name!r}"
        if f"v{idx}" not in inverted:
            fallback = low.expr(f.parse_expr, where)
            derived.append(f"if v{idx} is None:")
            # A field the record lacks reads as None, which only arithmetic
            # rejects; the reference rejects it unless a pass assigned it.
            for name in referenced_fields(f.parse_expr):
                if low.local(name, where) not in written:
                    derived += [f"    if {name!r} not in record._fields:", "        raise TypeError"]
            derived.append(f"    v{idx} = {fallback}")
            written[f"v{idx}"] = idx
        if f.serialize_target is not None:
            target = low.local(f.serialize_target, where)
            value = low.expr(f.serialize_expr, where, f"v{idx}")
            derived.append(f"{target} = {value}")
            written[target] = idx
    if derived:
        emit("try:")
        for line in derived:
            emit(line, 2)
        emit("except TypeError:")
        message = f"{label}: a length is computed from a missing value"
        emit(f"raise SerializeError({message!r}) from None", 2)

    # Pass 3: emit, each fixed-size run through one ``struct.pack``.
    parts: List[str] = []
    sizes: List[str] = []
    run: List[Tuple[str, str, Optional[Tuple]]] = []  # code, argument, spec

    def flush_run() -> None:
        if not run:
            return
        args = ", ".join(arg for _, arg, _ in run)
        specs = tuple(spec for _, _, spec in run)
        pack = low.struct_method("pack", [code for code, _, _ in run], "pack")
        emit("try:")
        emit(f"h{len(parts)} = {pack}({args})", 2)
        emit("except _struct_error:")
        emit(
            f"h{len(parts)} = _pack_checked({label!r}, {unit.byteorder!r}, "
            f"{specs!r}, ({args},))",
            2,
        )
        parts.append(f"h{len(parts)}")
        run.clear()

    def spliced_or(idx: int, zeros: str) -> str:
        located = f"_span_bytes(record, {_span_key(idx, None)!r}, {label!r}, {zeros})"
        return f"{located} if spliced else {zeros}"

    for idx, f in enumerate(fields):
        if isinstance(f, IntField) and f.name is None:
            emit(f"a{idx} = {spliced_or(idx, repr(bytes(f.size)))}")
            run.append((f"{f.size}s", f"a{idx}", None))
        elif isinstance(f, IntField):
            run.append((_int_code(f), f"v{idx}", (f.name, f.size, f.signed)))
        elif isinstance(f, ConstField):
            run.append((f"{len(f.value)}s", repr(f.value), None))
        elif isinstance(f, DataField):
            flush_run()
            length = low.expr(f.length_expr(), f"field {f.name!r}")
            if f.name is None:
                # Zeros are allocated: refuse a huge length before that.
                emit(f"if {length} > {MAX_FILL_BYTES}:")
                prefix = f"{label}._ (field {idx}): length "
                emit(
                    f"raise SerializeError({prefix!r} + str({length}) + "
                    f"' exceeds {MAX_FILL_BYTES} zero bytes')",
                    2,
                )
                emit(f"d{idx} = {spliced_or(idx, f'bytes(max({length}, 0))')}")
                emit(f"n{idx} = len(d{idx})")
            # No check when ``length`` is the local this very payload set.
            if f.name is None or written.get(length) != idx:
                emit(f"if n{idx} != {length}:")
                prefix = f"{label}.{f.name or '_'}: payload is "
                emit(
                    f"raise SerializeError({prefix!r} + str(n{idx}) + "
                    f"' byte(s) but length fields say ' + str({length}))",
                    2,
                )
            parts.append(f"d{idx}")
            sizes.append(f"n{idx}")
    flush_run()
    out = parts[0] if len(parts) == 1 else f"b''.join(({', '.join(parts)}))"
    emit(f"return {out}, {_ops(len(fields), [(sizes, OPS_PER_DECODED_BYTE)])}")
    return low.source("def encode(record):")


# ---------------------------------------------------------------------------
# Text units
# ---------------------------------------------------------------------------

_HEAD_END = b"\r\n\r\n"


def _text_parts(unit: Unit):
    """A text unit's (tokens, header map, body or None), with indices; the
    model has checked this layout."""
    fields = list(enumerate(unit.fields))
    cut = next(i for i, f in fields if isinstance(f, HeaderMapField))
    body = fields[cut + 1] if cut + 1 < len(fields) else None
    return fields[:cut], fields[cut], body


def _framing(unit: Unit, header_map: HeaderMapField, body):
    """The headers the body's length reads, and every header name the
    parser must pick out: those plus the ``refuse`` ones.  ASCII only, so
    that comparing lower-cased bytes is the same test as comparing
    lower-cased latin-1 text."""
    refs: List[HeaderRef] = []
    pending = [body[1].length_expr()] if body is not None else []
    while pending:
        expr = pending.pop()
        if isinstance(expr, Binary):
            pending += [expr.right, expr.left]
        elif isinstance(expr, HeaderRef) and expr not in refs:
            if expr.field != header_map.name:
                raise GrammarError(
                    f"unit {unit.name!r}: {expr.field!r} is not a header map"
                )
            refs.append(expr)
    names = [ref.name for ref in refs]
    names += [name for name, _ in header_map.refuse if name not in names]
    for text in names + [value for _, value in header_map.refuse]:
        if not text.isascii():
            raise GrammarError(f"unit {unit.name!r}: framing text {text!r} is not ASCII")
    return refs, names


def text_parser_source(unit: Unit, decoded: frozenset) -> Tuple[str, int]:
    """Text of ``poll(self)`` for a text unit, building only the
    ``decoded`` fields, and the byte count below which it cannot start.

    ``_scan`` remembers how much of the current message was searched for
    the blank line without finding it, and a head that is there but whose
    body is not sets ``_need`` to the message's size, so a short feed
    costs one comparison and a long head is scanned once.  The head is
    parsed again when the body completes; nothing is charged until then.
    """
    low = _Lowering(unit)
    emit, label = low.emit, unit.name
    tokens, (hm, header_map), body = _text_parts(unit)
    refs, framing = _framing(unit, header_map, body)
    low.lines.append(_POLL_HEAD)
    emit(f"e = buf.find({_HEAD_END!r}, p + self._scan)")
    emit("if e < 0:")
    emit("self._need = n + 1", 2)
    emit("self._scan = n - 3 if n > 3 else 0", 2)
    emit("return None", 2)
    emit("lines = buf[p:e].split(b'\\r\\n')")

    def fail(message: str, detail: str = "", depth: int = 2, tail: str = "") -> None:
        detail = f" + {detail}" if detail else ""
        emit(f"raise ParseError({label + message!r}{detail}){tail}", depth)

    # The start line: one split, unpacked into one word per word token; a
    # rest-of-line token (only ever last) gets what is left, if anything.
    rest = tokens[-1][1].rest
    words = [f"w{at}" for at in range(len(tokens) - rest)]
    targets = words + ["*r"] * rest
    split = f"split(None, {len(words)})" if rest else "split()"
    emit("try:")
    emit(f"{', '.join(targets)}{',' * (len(targets) == 1)} = lines[0].{split}", 2)
    emit("except ValueError:")
    fail(": malformed start line ", "repr(bytes(lines[0]))", tail=" from None")
    values: Dict[str, str] = {}
    for word, (idx, f) in zip(words, tokens):
        values[f.name] = f"{word}.decode('latin-1')"
        if f.prefix:
            emit(f"if not {word}.startswith({f.prefix!r}):")
            fail(f".{f.name}: no {f.prefix!r} in ", f"repr(bytes({word}))")
        if f.integer:
            emit("try:")
            emit(f"t{idx} = int({word})", 2)
            emit("except ValueError:")
            fail(f".{f.name}: not an integer: ", f"repr(bytes({word}))", tail=" from None")
            values[f.name] = f"t{idx}"
    if rest:
        values[tokens[-1][1].name] = "r[0].decode('latin-1') if r else ''"

    # The header block: every line needs a colon.  Framing headers are
    # read from the map when it is built (stripped text), else picked out
    # as they go by (raw bytes).
    where = f".{header_map.name}: "
    locals_ = {name: f"f{i}" for i, name in enumerate(framing)}
    built = header_map.name in decoded
    if built:
        values[header_map.name] = f"t{hm}"
        emit(f"t{hm} = {{}}")
    elif framing:
        emit(" = ".join(locals_.values()) + " = None")
    emit("for line in lines[1:]:")
    if built or framing:
        emit("name, sep, value = line.partition(b':')", 2)
        emit("if not sep:", 2)
    else:
        emit("if b':' not in line:", 2)
    fail(where + "malformed header line ", "repr(bytes(line))", 3)
    if built:
        emit(
            f"t{hm}[name.strip().decode('latin-1').lower()] = "
            "value.strip().decode('latin-1')",
            2,
        )
        for name, local in locals_.items():  # no .get(): a call per message
            emit(f"{local} = t{hm}[{name!r}] if {name!r} in t{hm} else None")
    elif framing:
        emit("name = name.strip().lower()", 2)
        for i, (name, local) in enumerate(locals_.items()):
            emit(f"{'elif' if i else 'if'} name == {name.encode()!r}:", 2)
            emit(f"{local} = value", 3)
    strip = "" if built else ".strip()"
    for name, value in header_map.refuse:
        local = locals_[name]
        target = repr(value if built else value.encode())
        emit(f"if {local} is not None and {local}{strip}.lower() == {target}:")
        fail(f"{where}refuses {name}: {value}")
    for i, ref in enumerate(refs):
        local = locals_[ref.name]
        low.headers[ref] = f"h{i}"
        emit(f"if {local} is None:")
        emit(f"h{i} = 0", 2)
        if built:  # str.isdigit() also accepts non-ASCII digits
            emit(f"elif {local}.isdigit() and {local}.isascii():")
        else:
            emit("else:")
            emit(f"{local} = {local}.strip()", 2)
            emit(f"if not {local}.isdigit():", 2)
            fail(f"{where}{ref.name} is not 1*DIGIT: ", f"repr(bytes({local}))", 3)
        emit(f"h{i} = int({local})", 2)
        if built:
            emit("else:")
            fail(f"{where}{ref.name} is not 1*DIGIT: ", f"repr({local})")

    # The body, if any, and the message's end.
    emit(f"h = e - p + {len(_HEAD_END)}")
    end, size = "h", None
    if body is not None:
        idx, f = body
        length = f.length_expr()
        size = low.expr(length, f"field {f.name!r}")
        if isinstance(length, Binary):
            emit(f"n{idx} = {size}")
            size = f"n{idx}"
            emit(f"if {size} < 0:")
            fail(f".{f.name}: negative length ", f"str({size})")
        elif isinstance(length, Const) and length.value < 0:
            raise GrammarError(f"unit {label!r}: field {f.name!r} has a negative length")
        end = f"o{idx}"
        emit(f"{end} = h + {size}")
        emit(f"if n < {end}:")
        emit(f"self._need = {end}", 2)
        emit(f"self._scan = h - {len(_HEAD_END)}", 2)
        emit("return None", 2)
        values[f.name] = f"raw[h:{end}]"

    emit(f"raw = bytes(buf[p:p + {end}])")
    low.emit_dict(
        "fields",
        [f"{f.name!r}: {values[f.name]}" for f in unit.fields if f.name in decoded],
    )
    emit(f"record = Record({label!r}, fields, raw)")
    emit("self._scan = 0")
    weighted = [(["h"], OPS_PER_DECODED_BYTE), ([size] if size else [], OPS_PER_RAW_COPY_BYTE)]
    low.lines.append(
        _POLL_TAIL.format(
            ops=_ops(len(unit.fields), weighted),
            size=end,
            first_need=len(_HEAD_END),
        )
    )
    return low.source("def poll(self):"), len(_HEAD_END)


def text_encoder_source(unit: Unit) -> str:
    """Text of ``encode(record)`` for a text unit: the start line's tokens
    joined by single spaces, one ``name: value`` line per header, a blank
    line, the body.  A record from a projected parse gets the fields it
    lacks from its own ``raw`` bytes (``_complete``)."""
    low = _Lowering(unit)
    emit = low.emit
    tokens, (_, header_map), body = _text_parts(unit)
    required = frozenset(f.name for f in unit.fields)
    low.structs.append(f"_required = frozenset({sorted(required)!r})")
    emit("f = record._fields")
    emit("if not f.keys() >= _required:")
    emit("f = _complete(record)", 2)
    line = " ".join(["%s"] * len(tokens)) + "\r\n"
    args = ", ".join(f"f[{f.name!r}]" for _, f in tokens) + "," * (len(tokens) == 1)
    headers = f"f[{header_map.name!r}].items()"
    head = f"({line!r} % ({args}) + ''.join(['%s: %s\\r\\n' % kv for kv in {headers}]))"
    data = f"{head}.encode('latin-1') + b'\\r\\n'"
    if body is not None:
        data += f" + f[{body[1].name!r}]"
    emit(f"data = {data}")
    head_fields = len(unit.fields) - (body is not None)
    emit(f"return data, {_ops(head_fields, [(['len(data)'], OPS_PER_DECODED_BYTE)])}")
    return low.source("def encode(record):")


# ---------------------------------------------------------------------------
# What generated code calls
# ---------------------------------------------------------------------------


def _span_bytes(record, key: str, label: str, default=None) -> bytes:
    """The bytes a parser located under ``key`` but did not decode."""
    span = (record.spans or {}).get(key)
    if span is not None and record.raw is not None:
        return bytes(record.raw[span[0] : span[1]])
    if default is None:
        raise SerializeError(f"{label}.{key}: no value and no raw span to serialise")
    return default


def _payload_bytes(record, key: str, label: str, value) -> bytes:
    if value is None:
        return _span_bytes(record, key, label)
    return value.encode("utf-8") if isinstance(value, str) else bytes(value)


def _pack_checked(label: str, byteorder: str, specs, values) -> bytes:
    """``struct`` refused a run: redo it field by field, coercing with ``int()`` as the
    reference does, to name the field at fault."""
    out = bytearray()
    for spec, value in zip(specs, values):
        if spec is None:  # constant or anonymous bytes
            out += value
            continue
        name, size, signed = spec
        if value is None:
            raise SerializeError(f"{label}.{name}: missing integer value")
        try:
            out += int(value).to_bytes(size, byteorder, signed=signed)
        except OverflowError:
            raise SerializeError(
                f"{label}.{name}: value {value} does not fit in {size} byte(s)"
            ) from None
    return bytes(out)


#: Globals of every codec's generated code.
RUNTIME_NAMESPACE = {
    "ParseError": ParseError,
    "SerializeError": SerializeError,
    "Record": Record,
    "_struct": struct.Struct,
    "_struct_error": struct.error,
    "_span_bytes": _span_bytes,
    "_payload_bytes": _payload_bytes,
    "_pack_checked": _pack_checked,
}
