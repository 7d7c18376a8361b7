"""Grammar model, DSL and codec-engine tests."""

import pytest

from repro.core.errors import GrammarError, ParseError, SerializeError
from repro.grammar.dsl import parse_grammar, parse_unit
from repro.grammar.engine import make_codec
from repro.grammar.model import (
    Binary,
    Const,
    DataField,
    FieldRef,
    HeaderMapField,
    HeaderRef,
    IntField,
    SelfRef,
    TokenField,
    Unit,
    VarField,
    referenced_fields,
)
from repro.lang.values import Record
from tests.grammar_oracle import eval_expr

SIMPLE = """
type msg = unit {
    %byteorder = big;
    tag : uint8;
    body_len : uint16;
    body : bytes &length = self.body_len;
};
"""


class TestModel:
    def test_eval_const(self):
        assert eval_expr(Const(7), {}) == 7

    def test_eval_field_ref(self):
        assert eval_expr(FieldRef("n"), {"n": 3}) == 3

    def test_eval_binary(self):
        expr = Binary("-", FieldRef("total"), Binary("+", FieldRef("a"), Const(2)))
        assert eval_expr(expr, {"total": 10, "a": 3}) == 5

    def test_eval_self_ref(self):
        assert eval_expr(Binary("*", SelfRef(), Const(2)), {}, own=21) == 42

    def test_self_ref_without_context_rejected(self):
        with pytest.raises(GrammarError):
            eval_expr(SelfRef(), {})

    def test_missing_field_rejected(self):
        with pytest.raises(GrammarError):
            eval_expr(FieldRef("ghost"), {})

    def test_referenced_fields_deduplicated(self):
        expr = Binary("+", FieldRef("a"), Binary("+", FieldRef("b"), FieldRef("a")))
        assert referenced_fields(expr) == ("a", "b")

    def test_forward_reference_rejected(self):
        with pytest.raises(GrammarError):
            Unit(
                "bad",
                (
                    DataField("body", FieldRef("later")),
                    IntField("later", 2),
                ),
            )

    def test_duplicate_field_rejected(self):
        with pytest.raises(GrammarError):
            Unit("bad", (IntField("x", 1), IntField("x", 2)))

    def test_invalid_int_size_rejected(self):
        with pytest.raises(GrammarError):
            IntField("x", 3)

    def test_structural_fields(self):
        unit = parse_unit(SIMPLE)
        assert unit.structural_fields() == frozenset({"body_len"})


class TestDsl:
    def test_simple_unit(self):
        unit = parse_unit(SIMPLE)
        assert unit.name == "msg"
        assert [f.name for f in unit.fields] == ["tag", "body_len", "body"]

    def test_listing2_grammar(self):
        from repro.grammar.protocols.memcached import MEMCACHED_UNIT

        names = [f.name for f in MEMCACHED_UNIT.fields]
        assert "opcode" in names and "value_len" in names
        assert None in names  # the anonymous reserved byte
        var = MEMCACHED_UNIT.field_named("value_len")
        assert isinstance(var, VarField)
        assert var.serialize_target == "total_len"

    def test_multiple_units(self):
        units = parse_grammar(SIMPLE + SIMPLE.replace("msg", "msg2"))
        assert [u.name for u in units] == ["msg", "msg2"]

    def test_comments_ignored(self):
        unit = parse_unit(
            "type t = unit {\n  a : uint8; # first\n  # whole line\n  b : uint8;\n};"
        )
        assert len(unit.fields) == 2

    def test_little_endian(self):
        unit = parse_unit(
            "type t = unit { %byteorder = little; a : uint16; };"
        )
        codec = make_codec(unit)
        rec = Record("t", {"a": 0x0102})
        data, _ = codec.serialize(rec)
        assert data == b"\x02\x01"

    def test_unknown_type_rejected(self):
        with pytest.raises(GrammarError):
            parse_unit("type t = unit { a : float32; };")

    def test_var_needs_parse_expr(self):
        with pytest.raises(GrammarError):
            parse_unit("type t = unit { var v : uint32; a : uint8; };")

    def test_signed_types(self):
        unit = parse_unit("type t = unit { a : int8; };")
        codec = make_codec(unit)
        data, _ = codec.serialize(Record("t", {"a": -5}))
        assert codec.parse_all(data)[0].a == -5


TEXT_TAIL = """
    headers : header_map &refuse = "Transfer-Encoding: Chunked";
    body : bytes &length = self.headers["Content-Length"];
};
"""


class TestTextUnits:
    """The three grammar features HTTP needs, as model and DSL."""

    def test_dsl_builds_the_text_fields(self):
        unit = parse_unit(
            "type r = unit { %max_bytes = 0x100; verb : token &prefix = \"G\";"
            " code : token &convert = int; why : line;" + TEXT_TAIL
        )
        verb, code, why, headers, body = unit.fields
        assert verb == TokenField("verb", prefix=b"G")
        assert code == TokenField("code", integer=True)
        assert why == TokenField("why", rest=True)
        # names and refused values are lower-cased: headers compare so
        assert headers == HeaderMapField("headers", (("transfer-encoding", "chunked"),))
        assert body.length == HeaderRef("headers", "content-length")
        assert unit.max_bytes == 256 and unit.text

    def test_the_header_map_is_not_structural(self):
        """Only the headers a length names are framing; the map is not,
        so a projection can skip building it."""
        from repro.grammar.protocols import http

        assert http.REQUEST_UNIT.structural_fields() == frozenset()
        assert referenced_fields(http.REQUEST_UNIT.fields[-1].length) == ("headers",)

    def test_frames(self):
        from repro.grammar.protocols import http
        from repro.grammar.protocols.memcached import MEMCACHED_UNIT

        assert http.REQUEST_UNIT.frame().fields == http.REQUEST_UNIT.fields[:4]
        assert MEMCACHED_UNIT.frame().fields[-1].name == "value_len"
        assert parse_unit(SIMPLE).frame().fields == parse_unit(SIMPLE).fields[:2]
        assert parse_unit("type t = unit { a : uint8; };").frame() is None
        bodiless = parse_unit("type t = unit { a : token; h : header_map; };")
        assert bodiless.frame().fields == bodiless.fields

    @pytest.mark.parametrize(
        "fields",
        [
            "h : header_map; a : token;",  # token after the head
            "a : token; h : header_map; g : header_map;",
            "a : line; h : header_map;",  # rest of line with no word before
            "a : token; b : line; c : token; h : header_map;",
            "a : token; b : line &convert = int; h : header_map;",
            "a : token;",  # no header map
            "a : token; n : uint8; h : header_map;",
            "a : token; h : header_map; b : bytes; c : bytes;",
            "a : token; h : header_map; b : string;",
            ": token; h : header_map;",
        ],
    )
    def test_text_layout_errors(self, fields):
        with pytest.raises(GrammarError):
            parse_unit(f"type t = unit {{ {fields} }};")

    @pytest.mark.parametrize(
        "text",
        [
            'a : token &convert = float; h : header_map;',
            'a : token; h : header_map &refuse = "no colon";',
            'a : token; h : header_map; b : bytes &length = self.h[4];',
            "%max_bytes = x;",
        ],
    )
    def test_dsl_errors(self, text):
        with pytest.raises(GrammarError):
            parse_unit(f"type t = unit {{ {text} }};")

    def test_max_bytes_must_be_positive(self):
        with pytest.raises(GrammarError):
            Unit("t", (IntField("a", 1),), max_bytes=0)

    @pytest.mark.parametrize(
        "head",
        [
            # a length over a token, not a header map
            (HeaderMapField("h"), DataField("b", HeaderRef("a", "x"))),
            (HeaderMapField("h"), DataField("b", Binary("+", HeaderRef("h", "x"), FieldRef("a")))),
            # framing compares lower-cased bytes: ASCII only
            (HeaderMapField("h", (("x", "caf\u00e9"),)),),
        ],
    )
    def test_generation_errors(self, head):
        with pytest.raises(GrammarError):
            make_codec(Unit("t", (TokenField("a"),) + head))


class TestCodec:
    def codec(self):
        return make_codec(parse_unit(SIMPLE))

    def test_round_trip(self):
        codec = self.codec()
        rec = Record("msg", {"tag": 9, "body_len": 3, "body": b"abc"})
        data, _ = codec.serialize(rec)
        back = codec.parse_all(data)[0]
        assert back.tag == 9 and back.body == b"abc"

    def test_length_recomputed_on_serialize(self):
        codec = self.codec()
        rec = Record("msg", {"tag": 1, "body_len": 0, "body": b"xyzzy"})
        data, _ = codec.serialize(rec)
        assert codec.parse_all(data)[0].body_len == 5

    def test_incremental_parse_across_chunks(self):
        codec = self.codec()
        rec = Record("msg", {"tag": 1, "body_len": 4, "body": b"data"})
        data, _ = codec.serialize(rec)
        parser = codec.parser()
        for i in range(len(data)):
            parser.feed(data[i : i + 1])
            if i < len(data) - 1:
                assert parser.poll() is None
        assert parser.poll().body == b"data"

    def test_multiple_messages_in_one_feed(self):
        codec = self.codec()
        one, _ = codec.serialize(Record("msg", {"tag": 1, "body_len": 1, "body": b"a"}))
        two, _ = codec.serialize(Record("msg", {"tag": 2, "body_len": 1, "body": b"b"}))
        parser = codec.parser()
        parser.feed(one + two)
        msgs = list(parser.messages())
        assert [m.tag for m in msgs] == [1, 2]

    def test_trailing_bytes_rejected_by_parse_all(self):
        codec = self.codec()
        data, _ = codec.serialize(
            Record("msg", {"tag": 1, "body_len": 1, "body": b"a"})
        )
        with pytest.raises(ParseError):
            codec.parse_all(data + b"\x01")

    def test_raw_fast_path_for_unmodified(self):
        codec = self.codec()
        data, _ = codec.serialize(Record("msg", {"tag": 1, "body_len": 2, "body": b"ab"}))
        parsed = codec.parse_all(data)[0]
        out, ops = codec.serialize(parsed)
        assert out == data
        assert ops < 1.0  # raw copy is nearly free

    def test_dirty_record_reencoded(self):
        codec = self.codec()
        data, _ = codec.serialize(Record("msg", {"tag": 1, "body_len": 2, "body": b"ab"}))
        parsed = codec.parse_all(data)[0]
        parsed.set("body", b"longer body")
        out, _ = codec.serialize(parsed)
        again = codec.parse_all(out)[0]
        assert again.body == b"longer body"
        assert again.body_len == len(b"longer body")

    def test_serializer_heals_inconsistent_lengths(self):
        """Length fields are recomputed from actual payload sizes, so a
        record with stale totals serialises to a consistent message."""
        from repro.grammar.protocols.memcached import full_codec

        codec = full_codec()
        rec = Record(
            "cmd",
            {
                "magic_code": 0x80, "opcode": 0, "key_len": 1,
                "extras_len": 9, "status_or_v_bucket": 0, "total_len": 0,
                "opaque": 0, "cas": 0, "value_len": 7, "extras": b"",
                "key": "k" * 50, "value": b"",
            },
        )
        data, _ = codec.serialize(rec)
        back = codec.parse_all(data)[0]
        assert back.key_len == 50
        assert back.total_len == 50
        assert back.value_len == 0

    def test_negative_wire_length_rejected_at_parse(self):
        """A message whose total_len is less than extras+key lengths makes
        the computed value_len negative: malformed input."""
        from repro.grammar.protocols import memcached as mc

        codec = mc.full_codec()
        good = mc.encode(mc.make_request(mc.OP_GETK, "abcdef"))
        # total_len lives at offset 8..12 (big endian); corrupt it to 1,
        # below key_len=6.
        bad = good[:8] + (1).to_bytes(4, "big") + good[12:]
        parser = codec.parser()
        parser.feed(bad)
        with pytest.raises(ParseError):
            parser.poll()

    def test_int_overflow_rejected(self):
        codec = self.codec()
        with pytest.raises(SerializeError):
            codec.serialize(
                Record("msg", {"tag": 300, "body_len": 0, "body": b""})
            )

    def test_projection_unknown_field_rejected(self):
        with pytest.raises(SerializeError):
            make_codec(parse_unit(SIMPLE), project={"ghost"})


class TestSpecialisation:
    def test_skipped_fields_absent_from_record(self):
        from repro.grammar.protocols import memcached as mc

        spec = mc.specialized_codec(frozenset({"opcode", "key"}))
        raw = mc.encode(mc.make_response(mc.OP_GETK, "k", b"v" * 100))
        rec = spec.parser()
        rec.feed(raw)
        parsed = rec.poll()
        assert "value" not in parsed
        assert "extras" not in parsed
        assert parsed.opcode == mc.OP_GETK

    def test_specialised_parse_is_cheaper(self):
        from repro.grammar.protocols import memcached as mc

        raw = mc.encode(mc.make_response(mc.OP_GETK, "k", b"v" * 2000))
        full = mc.full_codec().parser()
        full.feed(raw)
        full.poll()
        spec = mc.specialized_codec(frozenset({"opcode", "key"})).parser()
        spec.feed(raw)
        spec.poll()
        assert spec.take_ops() < full.take_ops() / 3

    def test_specialised_serialise_splices_raw(self):
        from repro.grammar.protocols import memcached as mc

        spec = mc.specialized_codec(frozenset({"opcode", "key"}))
        raw = mc.encode(mc.make_response(mc.OP_GETK, "key1", b"payload"))
        parsed = spec.parse_all(raw)[0]
        out, _ = spec.serialize(parsed)
        assert out == raw

    def test_specialised_mutation_roundtrip(self):
        from repro.grammar.protocols import memcached as mc

        spec = mc.specialized_codec(frozenset({"opcode", "key"}))
        raw = mc.encode(mc.make_request(mc.OP_GETK, "aaaa"))
        parsed = spec.parse_all(raw)[0]
        parsed.set("key", "bbbbbb")
        out, _ = spec.serialize(parsed)
        again = mc.full_codec().parse_all(out)[0]
        assert again.key == "bbbbbb"
        assert again.key_len == 6
