"""Property-based tests (hypothesis) on the invariants of the core and
wire-grammar layers (docs/architecture.md)."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import hash_fold, stable_hash
from repro.grammar.engine import make_codec
from repro.grammar.model import DataField, FieldRef, IntField, Unit
from repro.grammar.protocols import hadoop, http
from repro.grammar.protocols import memcached as mc
from repro.lang.values import Record
from tests.lang_oracle import oracle_for

keys = st.text(string.ascii_lowercase, min_size=1, max_size=32)
values = st.binary(min_size=0, max_size=200)


class TestStableHash:
    # Pinned before the memo went in front of the byte loop: these values
    # decide routing and key choice, so no optimisation may move them.
    GOLDEN = [
        ("", 0xCBF29CE484222325),
        ("key-000042", 0xDC3BB523995BE785),
        ("h\u00e9llo", 0xA35FF71F960240E0),
        (b"", 0xCBF29CE484222325),
        (b"\x00\xff", 0x0831C907B4EA2B60),
        (0, 0xA8C7F832281A39C5),
        (1, 0x89CD31291D2AEFA4),
        (True, 0x89CD31291D2AEFA4),
        (42, 0xFF3ADD6B3789DAEF),
        (-1, 0x8CF51A8BFCA3883D),
        (-(2 ** 62), 0xA8C7B8322819CD05),
        (2 ** 63 - 1, 0x8CF59A8BFCA461BD),
        ((), 0xCBF29CE484222325),
        ((0, 17), 0xE583E78A1B2262FC),
        (("word", 3, 7), 0xFB5BE8E713617A58),
        (((1, "a"), (b"b", -2)), 0x0248BDF79F28A084),
    ]

    def test_golden_values(self):
        for _ in range(2):  # computed, then served from the memo
            for data, expected in self.GOLDEN:
                assert stable_hash(data) == expected, data
        assert stable_hash(bytearray(b"\x00\xff")) == 0x0831C907B4EA2B60
        assert stable_hash(memoryview(b"\x00\xff")) == 0x0831C907B4EA2B60

    def test_memo_does_not_confuse_equal_values_of_other_types(self):
        import pytest

        assert stable_hash(1) == stable_hash(True)
        for unsupported in (1.0, None, (1, 1.0), [1]):
            with pytest.raises(TypeError):
                stable_hash(unsupported)
        assert stable_hash("1") == stable_hash(b"1") != stable_hash(1)

    @given(st.text())
    def test_deterministic(self, s):
        assert stable_hash(s) == stable_hash(s)

    @given(st.text(), st.text())
    def test_mostly_injective(self, a, b):
        if a != b:
            # 64-bit FNV collisions are possible but must not happen for
            # hypothesis-sized inputs in practice.
            assert stable_hash(a) != stable_hash(b) or len(a) > 32

    @given(st.integers(min_value=-(2 ** 62), max_value=2 ** 62))
    def test_ints_supported(self, n):
        assert 0 <= stable_hash(n) < 2 ** 64

    def test_ints_past_signed_64_bits(self):
        # FLICK's hash takes any integer, and memcached's cas is a
        # uint64: ``hash(req.cas)`` with a cas >= 2**63 must not end the
        # run.  Such an int hashes its shortest signed little-endian
        # bytes, 9 here, so no in-range int changes its hash.
        def fnv(raw):
            h = 0xCBF29CE484222325
            for byte in raw:
                h = ((h ^ byte) * 0x100000001B3) & (2 ** 64 - 1)
            return h

        for n in (2 ** 63, 2 ** 64 - 1, -(2 ** 63) - 1):
            raw = n.to_bytes(9, "little", signed=True)
            for _ in range(2):  # computed, then served from the memo
                assert stable_hash(n) == fnv(raw)
            folded = 0xCBF29CE484222325
            for part in (fnv(raw), stable_hash(1)):  # a tuple folds its parts
                folded = (folded ^ part) * 0x100000001B3 & (2 ** 64 - 1)
            assert stable_hash((n, 1)) == folded
        assert stable_hash(2 ** 72) == fnv((2 ** 72).to_bytes(10, "little"))
        # In range, the hash is the one pinned before: 8 signed bytes.
        for n, expected in (
            (255, 0x9016B196E349A31A),
            (256, 0xE3757CA7D64666EA),
            (12345, 0xE71EB185E2EDCC4C),
            (-98765, 0xFF4434C2CD08EF5F),
            (2 ** 31, 0x515662F380650845),
            (2 ** 63 - 1, 0x8CF59A8BFCA461BD),
            (-(2 ** 63), 0xA8C7783228196045),
        ):
            assert stable_hash(n) == expected == fnv(
                n.to_bytes(8, "little", signed=True)
            )

    @given(st.tuples(st.text(max_size=8), st.integers(0, 1000)))
    def test_tuples_supported(self, t):
        assert stable_hash(t) == stable_hash(t)

    def test_tuple_parts_the_memo_cannot_serve(self):
        import collections

        import pytest

        pair = collections.namedtuple("pair", "word index")
        assert stable_hash(pair("word", 3)) == stable_hash(("word", 3))
        assert stable_hash((7, pair("a", 1))) == stable_hash((7, ("a", 1)))
        for raw in (bytearray(b"\x00\xff"), memoryview(b"\x00\xff")):
            assert stable_hash((1, raw)) == stable_hash((1, b"\x00\xff"))
            assert stable_hash(((raw,),)) == stable_hash(((b"\x00\xff",),))
        assert stable_hash(((1, "a"), (b"b", -2))) == 0x0248BDF79F28A084
        for unsupported in ((1, 1.0), (1, [1]), ("a", (None,)), (None,)):
            with pytest.raises(TypeError) as whole:
                stable_hash(unsupported)
            with pytest.raises(TypeError) as step:  # the last fold step alone
                hash_fold(stable_hash(unsupported[:-1]), unsupported[-1])
            assert str(step.value) == str(whole.value)

    @given(
        st.recursive(
            st.one_of(st.text(max_size=6), st.binary(max_size=6),
                      st.binary(max_size=6).map(bytearray),
                      st.integers(-(2 ** 63), 2 ** 63 - 1),
                      st.integers(2 ** 63, 2 ** 72)),
            lambda parts: st.lists(parts, max_size=4).map(tuple),
            max_leaves=12,
        )
    )
    def test_tuple_fold_matches_a_recursive_fold(self, data):
        assert stable_hash(data) == _reference_fold(data)
        if isinstance(data, tuple) and data:
            # A prefix hashed once and extended by one fold step.
            assert hash_fold(stable_hash(data[:-1]), data[-1]) == stable_hash(data)


def _reference_fold(data) -> int:
    """FNV-1a as the definition reads: a tuple folds its parts' hashes,
    each found by recursion; a leaf hashes its bytes."""
    prime, mask = 0x100000001B3, 0xFFFFFFFFFFFFFFFF
    h = 0xCBF29CE484222325
    if isinstance(data, tuple):
        for part in data:
            h = (h ^ _reference_fold(part)) * prime & mask
        return h
    if isinstance(data, str):
        data = data.encode("utf-8")
    elif isinstance(data, int):  # its shortest signed bytes, at least 8
        magnitude = data if data >= 0 else ~data
        width = max(8, (magnitude.bit_length() + 8) // 8)
        data = data.to_bytes(width, "little", signed=True)
    for byte in data:
        h = ((h ^ byte) * prime) & mask
    return h


class TestMemcachedRoundTrip:
    @given(
        st.sampled_from([mc.OP_GET, mc.OP_GETK, mc.OP_SET]),
        keys,
        values,
        st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_request_round_trip(self, opcode, key, value, opaque):
        record = mc.make_request(opcode, key, value=value, opaque=opaque)
        raw = mc.encode(record)
        back = mc.full_codec().parse_all(raw)[0]
        assert back.key == key
        assert back.value == (value if opcode == mc.OP_SET else value)
        assert back.opaque == opaque
        # Re-serialising the parsed record reproduces the wire bytes.
        again, _ = mc.full_codec().serialize(back)
        assert again == raw

    @given(keys, values, st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_chunking_invariance(self, key, value, chunk):
        """Feeding a stream in arbitrary chunk sizes yields the same
        messages."""
        raw = mc.encode(mc.make_response(mc.OP_GETK, key, value)) * 3
        parser = mc.full_codec().parser()
        whole = mc.full_codec().parser()
        whole.feed(raw)
        expected = list(whole.messages())
        for start in range(0, len(raw), chunk):
            parser.feed(raw[start : start + chunk])
        got = list(parser.messages())
        assert [m.key for m in got] == [m.key for m in expected]
        assert [m.value for m in got] == [m.value for m in expected]

    @given(keys, values)
    @settings(max_examples=40, deadline=None)
    def test_specialised_forwarding_is_lossless(self, key, value):
        spec = mc.specialized_codec(frozenset({"opcode", "key"}))
        raw = mc.encode(mc.make_response(mc.OP_GETK, key, value))
        parsed = spec.parse_all(raw)[0]
        out, _ = spec.serialize(parsed)
        assert out == raw


class TestHadoopRoundTrip:
    @given(st.lists(st.tuples(keys, st.text(string.digits, min_size=1, max_size=6)), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_pairs_round_trip(self, pairs):
        assert hadoop.decode_pairs(hadoop.encode_pairs(pairs)) == pairs


class TestHttpRoundTrip:
    paths = st.text(string.ascii_letters + string.digits + "/._-", min_size=1, max_size=40)

    @given(paths, st.binary(max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_request_round_trip(self, path, body):
        record = http.make_request("GET", "/" + path, body=body)
        parser = http.HttpRequestParser()
        parser.feed(record.raw)
        back = parser.poll()
        assert back.path == "/" + path
        assert back.body == body

    @given(st.integers(100, 599), st.binary(max_size=300), st.integers(1, 17))
    @settings(max_examples=40, deadline=None)
    def test_response_chunked_feed(self, status, body, chunk):
        raw = http.make_response(status, "R", body=body).raw
        parser = http.HttpResponseParser()
        for start in range(0, len(raw), chunk):
            parser.feed(raw[start : start + chunk])
        back = parser.poll()
        assert back.status == status
        assert back.body == body


class TestGenericUnitRoundTrip:
    """Round-trip over a randomly parameterised generic unit."""

    @given(
        st.integers(0, 255),
        st.binary(max_size=64),
        st.binary(max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_payload_unit(self, tag, first, second):
        unit = Unit(
            "g",
            (
                IntField("tag", 1),
                IntField("alen", 2),
                IntField("blen", 2),
                DataField("a", FieldRef("alen")),
                DataField("b", FieldRef("blen")),
            ),
        )
        codec = make_codec(unit)
        rec = Record(
            "g", {"tag": tag, "alen": 0, "blen": 0, "a": first, "b": second}
        )
        data, _ = codec.serialize(rec)
        back = codec.parse_all(data)[0]
        assert back.tag == tag and back.a == first and back.b == second


class TestFoldTEquivalence:
    """The compiled merge tree must match the sequential reference
    semantics of foldt for any set of sorted unique-key streams."""

    streams = st.lists(
        st.lists(
            st.tuples(keys, st.integers(1, 99)), max_size=12, unique_by=lambda t: t[0]
        ),
        min_size=1,
        max_size=5,
    )

    @given(streams)
    @settings(max_examples=40, deadline=None)
    def test_tree_matches_reference(self, raw_streams):
        from repro.apps.hadoop_agg import compile_hadoop
        from repro.lang.values import Record as R

        program = compile_hadoop()
        plan = program.proc("hadoop").foldt
        interp = oracle_for(program)
        streams = [
            sorted(
                (R("kv", {"key": k, "value": str(v)}) for k, v in s),
                key=lambda r: r.key,
            )
            for s in raw_streams
        ]
        reference = interp.merge_sorted_streams(plan.expr, streams)
        # Expected totals per key
        totals = {}
        for s in raw_streams:
            for k, v in s:
                totals[k] = totals.get(k, 0) + v
        assert {r.key: int(r.value) for r in reference} == totals
        assert [r.key for r in reference] == sorted(totals)


class TestLexerTotality:
    @given(st.text(string.printable, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_lexer_never_crashes_unexpectedly(self, text):
        """The lexer either tokenises or raises FlickSyntaxError — never
        anything else."""
        from repro.core.errors import FlickSyntaxError
        from repro.lang.lexer import tokenize

        try:
            tokenize(text)
        except FlickSyntaxError:
            pass
