"""Generated codecs against the reference interpreter.

``repro.grammar.codegen`` lowers a unit to straight-line Python;
``tests/grammar_oracle.py`` is the field-by-field interpreter it
replaced.  Everything here runs both on the same input and requires the
same observable behaviour: records, ``raw``, ``spans``,
``pending_bytes()``, cumulative ``ops`` with ``==`` wherever ``poll()``
returns a record, ``serialize()`` bytes and ops, and the exception class
on malformed input — on the same ``poll()`` call, whatever the chunking.
"""

from __future__ import annotations

import linecache
import subprocess
import sys
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FlickError, GrammarError, ParseError, SerializeError
from repro.grammar import engine
from repro.grammar.dsl import parse_unit
from repro.grammar.engine import make_codec
from repro.grammar.model import (
    Binary,
    Const,
    ConstField,
    DataField,
    FieldRef,
    IntField,
    SelfRef,
    Unit,
    VarField,
)
from repro.grammar.protocols import hadoop
from repro.grammar.protocols import memcached as mc
from repro.lang.values import Record
from tests.grammar_oracle import OracleCodec, eval_expr

SETTINGS = settings(max_examples=150, deadline=None)

# ---------------------------------------------------------------------------
# The differential drivers
# ---------------------------------------------------------------------------


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except FlickError as exc:
        return "error", type(exc)
    except TypeError:
        # Arithmetic on a None the caller put in a record: no codec
        # promises a class for that, only that it does not pass silently.
        return "error", TypeError


_last_generated = [None, None]


def generated(unit, project) -> engine.UnitCodec:
    """The codec under test.  ``make_codec`` never forgets a codec, so
    only the fixed units go through it; a hypothesis-made unit's codec
    is kept just as long as consecutive calls ask for it again."""
    if any(unit is fixed for fixed in FIXED_UNITS):
        return make_codec(unit, project)
    key = (unit, None if project is None else frozenset(project))
    if _last_generated[0] != key:
        _last_generated[:] = key, engine.UnitCodec(unit, project)
    return _last_generated[1]


def _same_record(ours: Record, theirs: Record) -> None:
    assert ours.type_name == theirs.type_name
    assert list(ours.items()) == list(theirs.items())
    assert [type(v) for _, v in ours.items()] == [
        type(v) for _, v in theirs.items()
    ]
    assert ours.raw == theirs.raw and type(ours.raw) is bytes
    assert ours.spans == theirs.spans
    assert list(ours.spans) == list(theirs.spans)
    assert ours.dirty is False and theirs.dirty is False


def parse_both(unit, project, chunks, take_every=0):
    """Feed ``chunks`` to a generated and a reference parser, polling
    both dry after each; returns the (generated, reference) records.
    Stops at the first error, which both must raise on the same poll."""
    ours = generated(unit, project).parser()
    theirs = OracleCodec(unit, project).parser()
    pairs = []
    for chunk in chunks:
        kind, got = _outcome(ours.feed, chunk)
        kind_ref, expected = _outcome(theirs.feed, chunk)
        assert kind == kind_ref, (got, expected)
        if kind == "error":
            assert got is expected is ParseError
            return pairs
        while True:
            kind, got = _outcome(ours.poll)
            kind_ref, expected = _outcome(theirs.poll)
            assert kind == kind_ref, (got, expected)
            assert ours.pending_bytes() == theirs.pending_bytes()
            assert ours._pos <= ours.pending_bytes()  # no more consumed than left
            if kind == "error":
                assert got is expected is ParseError
                return pairs
            if expected is None:
                assert got is None
                break
            _same_record(got, expected)
            assert ours.ops == theirs.ops  # bit-identical, not approx
            pairs.append((got, expected))
            if take_every and len(pairs) % take_every == 0:
                assert ours.take_ops() == theirs.take_ops()
    return pairs


def serialize_both(unit, project, ours: Record, theirs: Record):
    kind, got = _outcome(generated(unit, project).serialize, ours)
    kind_ref, expected = _outcome(OracleCodec(unit, project).serialize, theirs)
    assert kind == kind_ref, (got, expected)
    if kind == "ok":
        assert got == expected
        assert type(got[0]) is bytes
    elif expected is SerializeError:
        assert got is SerializeError
    return kind, got


def chunked(data: bytes, cuts) -> list:
    edges = [0] + sorted(c % (len(data) + 1) for c in cuts) + [len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:])]


def bytewise(data: bytes) -> list:
    return [data[i : i + 1] for i in range(len(data))]


cut_lists = st.lists(st.integers(0, 1 << 16), max_size=8)

# ---------------------------------------------------------------------------
# Fixed units: the protocols, and one unit per grammar feature
# ---------------------------------------------------------------------------

SIMPLE = parse_unit(
    "type msg = unit { %byteorder = big; tag : uint8; body_len : uint16;"
    " body : bytes &length = self.body_len; };"
)
LITTLE_SIGNED = parse_unit(
    "type t = unit { %byteorder = little; a : uint16; b : int8; c : int32;"
    " s : string &length = self.a; };"
)
FRAMED = Unit(
    "framed",
    (
        ConstField(None, b"\xca\xfe"),
        IntField("kind", 1),
        IntField(None, 2),
        IntField("len", 2, signed=True),
        DataField("body", FieldRef("len")),
        DataField(None, 3),
        ConstField(None, b"\r\n"),
        IntField("crc", 4),
    ),
)
TRAILER = Unit(
    "trailer",
    (
        IntField("n", 1),
        VarField("twice", Binary("*", FieldRef("n"), Const(2)), "n",
                 Binary("-", SelfRef(), FieldRef("pad"))),
        IntField("pad", 1),
        DataField("body", Binary("-", FieldRef("twice"), FieldRef("pad")), text=True),
        DataField("fixed", 2),
    ),
    byteorder="little",
)
#: ``max_bytes`` below its frame (``klen``, ``key``, ``vlen``): a long key
#: is refused by ``feed`` until the value's length arrives with it.
BOUNDED = Unit(
    "bounded",
    (
        IntField("klen", 1),
        DataField("key", FieldRef("klen")),
        IntField("vlen", 1),
        DataField("val", FieldRef("vlen")),
    ),
    max_bytes=8,
)
FIXED_UNITS = [
    mc.MEMCACHED_UNIT, hadoop.HADOOP_UNIT, SIMPLE, LITTLE_SIGNED, FRAMED, TRAILER, BOUNDED,
]


def memcached_stream(n=6) -> bytes:
    out = bytearray()
    for i in range(n):
        key = "k" * (i % 4) + f"é{i}"
        out += mc.encode(mc.make_request(mc.OP_SET, key, b"v" * (7 * i), opaque=i))
        out += mc.encode(mc.make_response(mc.OP_GETK, key, b"w" * (90 - i), opaque=i))
    return bytes(out)


MEMCACHED_PROJECTIONS = [None, {"opcode", "key"}, {"value"}, set(), {"cas", "extras"}]


class TestProtocols:
    @pytest.mark.parametrize("project", MEMCACHED_PROJECTIONS)
    def test_memcached_whole_and_bytewise(self, project):
        data = memcached_stream()
        for chunks in ([data], bytewise(data), chunked(data, range(0, len(data), 7))):
            pairs = parse_both(mc.MEMCACHED_UNIT, project, chunks, take_every=3)
            assert len(pairs) == 12

    @given(cut_lists, st.sampled_from(MEMCACHED_PROJECTIONS))
    @SETTINGS
    def test_memcached_any_chunking(self, cuts, project):
        data = memcached_stream(3)
        assert len(parse_both(mc.MEMCACHED_UNIT, project, chunked(data, cuts))) == 6

    @given(
        st.lists(st.tuples(st.text(max_size=12), st.text(max_size=40)), max_size=8),
        cut_lists,
        st.sampled_from([None, {"key"}, set()]),
    )
    @SETTINGS
    def test_hadoop_any_chunking(self, pairs, cuts, project):
        data = hadoop.encode_pairs(pairs)
        parsed = parse_both(hadoop.HADOOP_UNIT, project, chunked(data, cuts))
        assert len(parsed) == len(pairs)
        if project is None:
            assert [(r.key, r.value) for r, _ in parsed] == pairs

    def test_buffer_compaction_keeps_offsets(self):
        """Both parsers drop consumed bytes mid-buffer, and records,
        spans and ``pending_bytes()`` do not see it."""
        one = mc.encode(mc.make_response(mc.OP_GETK, "key", b"v" * 3000))
        data = one * 60
        pairs = parse_both(mc.MEMCACHED_UNIT, {"opcode", "key"}, [data, one[:10], one[10:]])
        assert len(pairs) == 61
        # Spans are relative to each message, wherever it sat in the buffer.
        assert all(ours.spans == pairs[0][0].spans for ours, _ in pairs)

    @pytest.mark.parametrize("project", MEMCACHED_PROJECTIONS)
    def test_memcached_serialize_clean_dirty_spliced(self, project):
        data = memcached_stream(3)
        for ours, theirs in parse_both(mc.MEMCACHED_UNIT, project, [data]):
            assert serialize_both(mc.MEMCACHED_UNIT, project, ours, theirs)[0] == "ok"
            for name, value in (("key", "rewritten-é"), ("opaque", 7), ("cas", 1 << 63)):
                if name in ours:
                    ours.set(name, value)
                    theirs.set(name, value)
            # The proxy parses with the projection and writes with the
            # full codec: skipped payloads come back through the spans.
            for writer in (project, None):
                kind, (wire, _) = serialize_both(mc.MEMCACHED_UNIT, writer, ours, theirs)
                assert kind == "ok"
                again = mc.full_codec().parse_all(wire)[0]
                assert again.key_len == len(again.key.encode())
                assert again.total_len == len(wire) - mc.HEADER_LEN

    def test_built_records_serialize_identically(self):
        for record in (
            mc.make_request(mc.OP_GETK, "abc"),
            mc.make_request(mc.OP_SET, "kéy", b"\x00\xff" * 9, opaque=2**32 - 1),
            mc.make_response(mc.OP_GET, "abc", b"", status=mc.STATUS_KEY_NOT_FOUND),
        ):
            assert serialize_both(mc.MEMCACHED_UNIT, None, record, record.copy())[0] == "ok"
        pair = hadoop.make_pair("wörd", "12")
        assert serialize_both(hadoop.HADOOP_UNIT, None, pair, pair.copy())[0] == "ok"


class TestErrors:
    """Same exception class, raised by the same ``poll()``."""

    def test_negative_computed_length(self):
        good = mc.encode(mc.make_request(mc.OP_GETK, "abcdef"))
        bad = good[:8] + (1).to_bytes(4, "big") + good[12:]
        for chunks in ([bad], bytewise(bad), [good + bad[:23], bad[23:]]):
            parser = make_codec(mc.MEMCACHED_UNIT).parser()
            parse_both(mc.MEMCACHED_UNIT, None, chunks)
            for chunk in chunks:
                parser.feed(chunk)
            with pytest.raises(ParseError, match="negative"):
                list(parser.messages())

    def test_negative_wire_length(self):
        bad = b"\xca\xfe\x01\x00\x00" + (-2).to_bytes(2, "big", signed=True)
        assert parse_both(FRAMED, None, bytewise(bad)) == []
        parser = make_codec(FRAMED).parser()
        parser.feed(bad)
        with pytest.raises(ParseError, match="negative length"):
            parser.poll()

    def test_constant_mismatch_is_reported_as_its_bytes_arrive(self):
        parser = make_codec(FRAMED).parser()
        parser.feed(b"\xca")
        assert parser.poll() is None
        parser.feed(b"\xff")  # kind/len not here yet: the magic is enough
        with pytest.raises(ParseError, match="constant field mismatch at offset 0"):
            parser.poll()
        body = b"\xca\xfe\x01\x00\x00\x00\x02hi\x00\x00\x00"
        for tail in (b"\r\n\x00\x00\x00\x01", b"\r\r\x00\x00\x00\x01"):
            pairs = parse_both(FRAMED, None, bytewise(body + tail))
            assert len(pairs) == (tail[1:2] == b"\n")

    UNDERFLOW = parse_unit(
        "type m = unit { %byteorder = big; n : uint8;"
        " : bytes &length = self.n - 99999999999999999999; };"
    )

    @pytest.mark.parametrize(
        "unit, fields",
        [
            (SIMPLE, {"tag": 300, "body_len": 0, "body": b""}),  # overflow
            (SIMPLE, {"tag": -1, "body_len": 0, "body": b""}),
            (SIMPLE, {"body_len": 0, "body": b""}),  # missing integer
            (SIMPLE, {"tag": None, "body_len": 0, "body": b""}),
            (SIMPLE, {"tag": 1, "body_len": 0}),  # missing payload, no span
            # length overflows
            (SIMPLE, {"tag": 1, "body_len": 0, "body": b"x" * 70000}),
            # a zero fill below -2**63 (found by test_serialize_built_records)
            (UNDERFLOW, {"n": 1}),
        ],
        ids=[f"fields{i}" for i in range(7)],
    )
    def test_serialize_errors(self, unit, fields):
        record = Record(unit.name, fields)
        kind, got = serialize_both(unit, None, record, record.copy())
        assert (kind, got) == ("error", SerializeError)

    REWRITTEN = parse_unit(
        "type u = unit { buf : uint8;"
        " var p : uint8 &parse = self.buf &serialize = self.buf = 0; };"
    )

    @pytest.mark.parametrize(
        "fields, kind",
        [({}, "error"), ({"buf": None}, "ok"), ({"p": 3}, "ok"), ({"buf": 5}, "ok")],
    )
    def test_var_computed_from_a_field_the_record_lacks(self, fields, kind):
        """Found by ``test_serialize_built_records``: a var field whose
        value comes from its parse expression over a field the record
        does not hold is an error, even when nothing does arithmetic on
        it; a field held as None is not."""
        record = Record("u", fields)
        assert serialize_both(self.REWRITTEN, None, record, record.copy())[0] == kind

    WIDE = parse_unit(
        "type w = unit { n : uint8; var m : uint64 &parse = self.n * 1;"
        " : bytes &length = self.m; };"
    )

    @pytest.mark.parametrize("m", [2**64, 2**40, engine.MAX_FILL_BYTES + 1])
    def test_out_of_range_fill_length(self, m):
        """A zero-filled payload longer than ``MAX_FILL_BYTES`` is refused,
        naming the field, before ``bytes(n)`` overflows (2**64) or tries
        to allocate (2**40 is 1 TiB)."""
        record = Record("w", {"n": 1, "m": m})
        assert serialize_both(self.WIDE, None, record, record.copy()) == (
            "error", SerializeError)
        for codec in (make_codec(self.WIDE), OracleCodec(self.WIDE)):
            with pytest.raises(SerializeError, match=r"^w\._ \(field 2\): length"):
                codec.serialize(record)

    def test_fill_length_at_the_limit_is_written(self):
        record = Record("w", {"n": 1, "m": engine.MAX_FILL_BYTES})
        kind, (wire, _) = serialize_both(self.WIDE, None, record, record.copy())
        assert kind == "ok" and wire == b"\x01" + bytes(engine.MAX_FILL_BYTES)

    def test_outcome_lets_overflow_through(self):
        """The harness names no class for a raw ``OverflowError``: one
        escaping a codec fails the test that drew it."""
        with pytest.raises(OverflowError):
            _outcome(bytes, 2**64)

    def test_max_bytes_bounds_the_frame_not_the_message(self):
        long_key = b"\x0a" + b"k" * 10 + b"\x02vv"
        assert len(parse_both(BOUNDED, None, [long_key])) == 1  # framed at once
        assert parse_both(BOUNDED, None, bytewise(long_key)) == []
        parser = make_codec(BOUNDED).parser()
        parser.feed(long_key[:8])
        assert parser.poll() is None
        with pytest.raises(ParseError, match="max_bytes=8"):
            parser.feed(long_key[8:9])
        long_value = b"\x01k\xf0" + b"v" * 0xF0  # framed after 3 bytes
        assert len(parse_both(BOUNDED, None, bytewise(long_value))) == 1
        # A fixed-size unit is framed from its first byte: never refused.
        assert Unit("fixed", (IntField("a", 8),), max_bytes=1).frame() is None
        assert len(parse_both(Unit("fixed", (IntField("a", 8),), max_bytes=1),
                              None, bytewise(bytes(16)))) == 2

    def test_fixed_length_payload_mismatch(self):
        record = Record("trailer", {"n": 0, "twice": None, "pad": 1,
                                    "body": "abc", "fixed": b"toolong"})
        assert serialize_both(TRAILER, None, record, record.copy()) == (
            "error", SerializeError)

    def test_coerced_integers(self):
        """``int()`` coercion survives: struct refuses, the checked path
        redoes the run as the reference does."""
        record = Record("msg", {"tag": "7", "body_len": 0, "body": "text"})
        kind, (wire, _) = serialize_both(SIMPLE, None, record, record.copy())
        assert kind == "ok" and wire == b"\x07\x00\x04text"
        record = Record("msg", {"tag": 3.9, "body_len": 0, "body": bytearray(b"ab")})
        assert serialize_both(SIMPLE, None, record, record.copy())[0] == "ok"

    def test_unsupported_references_fail_at_generation(self):
        for fields in (
            (IntField("n", 1), DataField("a", FieldRef("n")), DataField("b", FieldRef("a"))),
            (IntField("n", 1), DataField("a", SelfRef())),
            (IntField("n", 1), VarField("v", None)),
            (IntField("n", 1), VarField("v", FieldRef("n"), "ghost", SelfRef())),
        ):
            with pytest.raises(GrammarError):
                make_codec(Unit("bad", fields))

    def test_unknown_projection(self):
        with pytest.raises(SerializeError):
            make_codec(SIMPLE, {"ghost"})


# ---------------------------------------------------------------------------
# Generated units x projections x streams x chunk boundaries
# ---------------------------------------------------------------------------

# Field names never become identifiers; these would collide if they did.
NAMES = ["buf", "p", "n", "self", "raw", "record", "fields", "v0", "o1",
         "d2", "get", "it's", "a b", "key", "len", "ops"]

small = st.integers(0, 6)


@st.composite
def expressions(draw, refs, depth=2, allow_self=False):
    leaves = [st.builds(Const, st.integers(-1, 5))]
    if refs:
        leaves += [st.builds(FieldRef, st.sampled_from(refs))] * 3
    if allow_self:
        leaves += [st.just(SelfRef())] * 2
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.one_of(leaves))
    return Binary(
        draw(st.sampled_from("+-*")),
        draw(expressions(refs, depth - 1, allow_self)),
        draw(expressions(refs, depth - 1, allow_self)),
    )


@st.composite
def units(draw, bounded=False):
    names = iter(draw(st.permutations(NAMES)))
    count = draw(st.integers(1, 7))
    fields, ints = [], []
    for _ in range(count):
        kind = draw(st.sampled_from(["int", "int", "data", "data", "const", "var"]))
        name = next(names) if draw(st.integers(0, 4)) else None
        if kind == "int":
            fields.append(IntField(name, draw(st.sampled_from([1, 1, 2, 4, 8])),
                                   draw(st.booleans())))
            if name is not None:
                ints.append(name)
        elif kind == "const":
            fields.append(ConstField(None, draw(st.binary(max_size=3))))
        elif kind == "var" and name is not None:
            target = draw(st.sampled_from(ints)) if ints and draw(st.booleans()) else None
            fields.append(VarField(
                name,
                draw(expressions(ints)),
                target,
                draw(expressions(ints, 1, allow_self=True)) if target else None,
            ))
            ints.append(name)
        else:
            length = draw(st.one_of(small, expressions(ints)))
            fields.append(DataField(name, length, text=draw(st.booleans())))
    if not any(isinstance(f, IntField) or getattr(f, "value", b"") for f in fields):
        fields.append(IntField(next(names), 1))  # every message has a byte
    max_bytes = draw(st.integers(1, 24)) if bounded else None
    return Unit("u", tuple(fields), draw(st.sampled_from(["big", "little"])), max_bytes)


@st.composite
def projections(draw, unit):
    named = [f.name for f in unit.named_fields()]
    if not named or draw(st.integers(0, 3)) == 0:
        return None
    return set(draw(st.lists(st.sampled_from(named), unique=True)))


@st.composite
def messages(draw, unit):
    """One message built forwards from the reference semantics, or the
    prefix of one where a length goes negative or huge."""
    out, values = bytearray(), {}
    for f in unit.fields:
        if isinstance(f, IntField):
            bits = 8 * f.size
            lo, hi = (-(1 << bits - 1), (1 << bits - 1) - 1) if f.signed else (0, (1 << bits) - 1)
            value = draw(st.one_of(small, small, st.integers(lo, hi)))
            out += value.to_bytes(f.size, unit.byteorder, signed=f.signed)
            if f.name is not None:
                values[f.name] = value
        elif isinstance(f, ConstField):
            out += f.value if draw(st.integers(0, 15)) else b"\x00" * len(f.value)
        elif isinstance(f, VarField):
            values[f.name] = eval_expr(f.parse_expr, values)
            if values[f.name] < 0:
                break
        else:
            length = eval_expr(f.length_expr(), values)
            if length < 0:
                break
            if length > 48:
                out += b"..."
                break
            out += draw(st.binary(min_size=length, max_size=length))
    return bytes(out)


@st.composite
def cases(draw, bounded=False):
    unit = draw(units(bounded))
    stream = b"".join(draw(st.lists(messages(unit), min_size=1, max_size=4)))
    return unit, draw(projections(unit)), stream


class TestGeneratedUnits:
    @given(cases(), cut_lists, st.integers(0, 2))
    @SETTINGS
    def test_parse(self, case, cuts, take_every):
        unit, project, stream = case
        parse_both(unit, project, chunked(stream, cuts), take_every)

    @given(cases(bounded=True), cut_lists)
    @SETTINGS
    def test_parse_bounded(self, case, cuts):
        """``feed`` refuses on the same call as the reference, whatever
        the chunking; bytewise feeding is the hardest on a bound."""
        unit, project, stream = case
        parse_both(unit, project, chunked(stream, cuts))
        parse_both(unit, project, bytewise(stream))

    @given(cases())
    @SETTINGS
    def test_parse_one_byte_feeds(self, case):
        unit, project, stream = case
        whole = parse_both(unit, project, [stream])
        assert len(parse_both(unit, project, bytewise(stream))) == len(whole)

    @given(st.sampled_from(FIXED_UNITS), st.data(), cut_lists)
    @SETTINGS
    def test_fixed_units(self, unit, data, cuts):
        stream = b"".join(data.draw(st.lists(messages(unit), min_size=1, max_size=4)))
        parse_both(unit, data.draw(projections(unit)), chunked(stream, cuts))

    @given(st.one_of(st.sampled_from(FIXED_UNITS), units()), st.data(),
           st.binary(max_size=120), cut_lists)
    @SETTINGS
    def test_arbitrary_bytes(self, unit, data, noise, cuts):
        """Garbage in: a record, None or ParseError — never anything else."""
        project = data.draw(projections(unit))
        parse_both(unit, project, chunked(noise, cuts))
        parser = generated(unit, project).parser()
        try:
            parser.feed(noise)
            for record in parser.messages():
                assert isinstance(record, Record)
        except ParseError:
            pass

    @given(cases(), st.data())
    @SETTINGS
    def test_serialize_parsed_then_mutated(self, case, data):
        unit, project, stream = case
        for ours, theirs in parse_both(unit, project, [stream]):
            assert serialize_both(unit, project, ours, theirs)[0] == "ok"  # clean: raw
            if not ours.keys():
                continue
            for name in data.draw(st.lists(st.sampled_from(ours.keys()), max_size=3)):
                if isinstance(unit.field_named(name), DataField):
                    values = st.one_of(st.binary(max_size=9), st.text(max_size=9), st.none())
                else:
                    values = st.one_of(small, st.integers(-(1 << 70), 1 << 70), st.none())
                value = data.draw(values)
                ours.set(name, value)
                theirs.set(name, value)
            writer = data.draw(st.sampled_from([project, None]))
            serialize_both(unit, writer, ours, theirs)

    @given(units(), st.data())
    @settings(SETTINGS, derandomize=True)
    def test_serialize_built_records(self, unit, data):
        """Derandomised: every run draws the same examples, so whether
        this differential test catches an encoder bug is not luck."""
        fields = {}
        for f in unit.named_fields():
            if data.draw(st.integers(0, 7)) == 0:
                continue  # a missing value
            if isinstance(f, DataField):
                fields[f.name] = data.draw(st.one_of(
                    st.binary(max_size=9), st.text(max_size=9), st.none()))
            else:
                fields[f.name] = data.draw(st.one_of(
                    small, small, st.integers(-(1 << 64), 1 << 64), st.none()))
        record = Record(unit.name, fields)
        serialize_both(unit, None, record, record.copy())


# ---------------------------------------------------------------------------
# Codecs are built once and hold no stream state
# ---------------------------------------------------------------------------


class TestSharedCodecs:
    def test_protocol_helpers_return_the_memoised_instance(self):
        assert mc.full_codec() is mc.full_codec() is make_codec(mc.MEMCACHED_UNIT)
        assert hadoop.codec() is hadoop.codec() is make_codec(hadoop.HADOOP_UNIT)
        spec = mc.specialized_codec(frozenset({"opcode", "key"}))
        assert spec is mc.specialized_codec() is mc.specialized_codec({"key", "opcode"})
        assert spec is make_codec(mc.MEMCACHED_UNIT, project=["key", "opcode"])
        assert spec is not mc.full_codec()
        # An equal unit parsed again is the same grammar: same codec.
        assert make_codec(parse_unit(mc.MEMCACHED_GRAMMAR_TEXT)) is mc.full_codec()

    def test_lookup_does_not_rehash_the_field_tree(self, monkeypatch):
        """A unit's hash is computed once.  (Besides the cost: the
        dataclass-generated ``__hash__``es all sit at ``<string>:2``, so
        a profile keyed by file and line merges them arbitrarily, and
        ``benchmarks/hosttime`` requires exact call counts.)"""
        make_codec(mc.MEMCACHED_UNIT, {"opcode", "key"})

        def rehashed(self):
            raise AssertionError("field hashed again")

        monkeypatch.setattr(IntField, "__hash__", rehashed)
        monkeypatch.setattr(DataField, "__hash__", rehashed)
        assert make_codec(mc.MEMCACHED_UNIT, {"opcode", "key"}) is mc.specialized_codec()

    def test_encode_constructs_no_codec(self, monkeypatch):
        built = []
        init = engine.UnitCodec.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(engine.UnitCodec, "__init__", counting)
        record = mc.make_request(mc.OP_GETK, "key-000001")
        for _ in range(1000):
            mc.encode(record)
            mc.full_codec()
            mc.specialized_codec()
            hadoop.codec()
        hadoop.encode_pairs([("a", "1")] * 10)
        assert built == []

    def test_parsers_of_one_codec_do_not_interfere(self):
        codec = mc.specialized_codec()
        one = memcached_stream(4)
        two = mc.encode(mc.make_request(mc.OP_GETK, "other")) * 9
        alone = [codec.parse_all(one), codec.parse_all(two)]
        a, b = codec.parser(), codec.parser()
        got = [[], []]
        for at in range(0, max(len(one), len(two)), 5):
            a.feed(one[at : at + 5])
            b.feed(two[at : at + 5])
            got[1].extend(b.messages())
            got[0].extend(a.messages())
        assert got == alone
        assert [r.raw for r in got[0]] == [r.raw for r in alone[0]]
        assert a.pending_bytes() == b.pending_bytes() == 0
        assert not hasattr(codec, "_buf") and type(a) is type(b)


# ---------------------------------------------------------------------------
# Explainability: source, tracebacks, profiler attribution, the CLI
# ---------------------------------------------------------------------------


def _layer_of(filename: str) -> str:
    """``benchmarks/hosttime/child.py``'s rule, restated."""
    at = filename.rfind("/repro/")
    return filename[at + len("/repro/"):].split("/", 1)[0] if at >= 0 else "other"


class TestExplainability:
    def test_source_is_the_code_that_runs(self):
        codec = mc.specialized_codec()
        assert "def poll(self):" in codec.source and "def encode(record):" in codec.source
        assert "unpack_from" in codec.source
        filename = type(codec.parser()).poll.__code__.co_filename
        assert "".join(linecache.getlines(filename)) == codec.source
        # Projected away: located by offset arithmetic, never sliced.
        assert "'value': raw[" not in codec.source
        assert "'value': raw[" in mc.full_codec().source

    def test_generated_grammar_code_is_charged_to_grammar(self):
        codec = hadoop.codec()
        for code in (type(codec.parser()).poll.__code__, codec._encode.__code__):
            assert _layer_of(code.co_filename) == "grammar"
            assert "<generated:kv:" in code.co_filename

    def test_generated_handler_code_is_charged_to_lang(self):
        from repro.apps.hadoop_agg import HADOOP_SOURCE
        from repro.lang.compiler import compile_source

        functions = list(compile_source(HADOOP_SOURCE).executor()._funs.values())
        assert functions
        for function in functions:
            filename = function.__code__.co_filename
            assert _layer_of(filename) == "lang" and "<generated:flick:" in filename
            first = linecache.getlines(filename)[function.__code__.co_firstlineno - 1]
            assert first.startswith("def ")

    def test_traceback_shows_the_generated_line(self):
        parser = mc.full_codec().parser()
        parser.feed(b"\x80\x00\x00\x09" + b"\x00" * 20)
        with pytest.raises(ParseError) as info:
            parser.poll()
        text = "".join(traceback.format_exception(info.value))
        assert "raise ParseError('cmd.value_len: computed negative value '" in text

    def test_cli_prints_the_generated_source(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.grammar", "memcached", "--project", "opcode,key"],
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == mc.specialized_codec().source.strip()
        out = subprocess.run(
            [sys.executable, "-m", "repro.grammar", "hadoop"],
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == hadoop.codec().source.strip()

    def test_cli_prints_both_http_units(self):
        from repro.grammar.protocols import http

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro.grammar", "http", *args],
                capture_output=True, text=True,
            )

        assert cli().stdout == http.request_codec().source + "\n\n" + http.response_codec().source
        # Each unit takes the projected names it has: the LB's request
        # parse builds no header map, yet still reads the framing headers.
        out = cli("--project", "status,body").stdout
        request = http.request_codec({"body"}).source
        assert out == request + "\n\n" + http.response_codec({"status", "body"}).source
        assert "t3 = {}" not in request and "b'content-length'" in request
        refused = cli("--project", "status,ghost")
        assert refused.returncode == 2 and "unknown fields: ghost" in refused.stderr

    def test_architecture_doc_shows_the_generated_parser(self):
        from pathlib import Path

        doc = (Path(__file__).resolve().parents[1] / "docs" / "architecture.md").read_text()
        command = "python -m repro.grammar memcached --project opcode,key"
        block = doc.split(f"<!-- generated: {command} -->")[1]
        block = block.split("<!-- end generated -->")[0].strip()
        assert block.startswith("```python") and block.endswith("```")
        shown = block[len("```python"):-len("```")].strip()
        source = mc.specialized_codec().source
        assert shown == source[: source.index("_pack0 = ")].strip()


def _wire_units():
    """A codec and the bytes of three messages (three requests and three
    responses for memcached) for each unit the platform parses:
    memcached, hadoop and both HTTP units."""
    from repro.grammar.protocols import http

    requests = (http.make_request("GET", f"/{i}", body=b"x" * i) for i in range(3))
    responses = (http.make_response(body=b"y" * (9 * i)) for i in range(3))
    return [
        pytest.param(mc.specialized_codec(), memcached_stream(3), id="memcached"),
        pytest.param(
            hadoop.codec(),
            hadoop.encode_pairs([("a", "1"), ("bb", "22"), ("", "")]),
            id="hadoop",
        ),
        pytest.param(
            http.request_codec(), b"".join(r.raw for r in requests), id="http-request"
        ),
        pytest.param(
            http.response_codec(), b"".join(r.raw for r in responses), id="http-response"
        ),
    ]


@pytest.mark.parametrize("codec, data", _wire_units())
class TestIdleParserHoldsNothing:
    """A parser keeps no consumed bytes once they are at least as many
    as the unconsumed ones, so an idle parser holds nothing."""

    def test_whole_messages_leave_an_empty_buffer(self, codec, data):
        parser = codec.parser()
        parser.feed(data)
        assert len(list(parser.messages())) in (3, 6)
        assert len(parser._buf) == 0

    def test_consumed_bytes_never_exceed_the_rest(self, codec, data):
        parser = codec.parser()
        done = 0
        for i in range(len(data)):
            parser.feed(data[i : i + 1])
            done += len(list(parser.messages()))
            assert parser._pos <= len(parser._buf) - parser._pos
        assert done in (3, 6) and len(parser._buf) == 0
