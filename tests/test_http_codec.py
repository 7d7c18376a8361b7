"""The generated HTTP codec against the hand-written one it replaced.

HTTP/1.1 is two text units of the grammar DSL
(``repro.grammar.protocols.http``); ``tests/http_oracle.py`` is the
hand-written codec that was ``src/`` until then.  Both run on the same
bytes and must agree on the fields (those the projection keeps), ``raw``,
cumulative ``ops`` wherever a record comes back, ``pending_bytes()``
between messages, and the exception class — on the same ``feed`` or
``poll`` call, whatever the chunking and whatever the projection.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FlickError, ParseError
from repro.grammar.engine import UnitParser, make_codec
from repro.grammar.protocols import http
from repro.grammar.protocols import memcached as mc
from repro.lang.values import Record
from tests import http_oracle as oracle
from tests.lang_oracle import assign_field

SETTINGS = settings(max_examples=150, deadline=None)

ORACLE_PARSER = {
    http.REQUEST_UNIT: oracle.HttpRequestParser,
    http.RESPONSE_UNIT: oracle.HttpResponseParser,
}


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except FlickError as exc:
        return "error", type(exc)


def parse_both(unit, project, chunks):
    """Feed ``chunks`` to the generated parser (projected to ``project``)
    and to the oracle, polling both dry after each; returns the
    (generated, oracle) record pairs.  Stops at the first error, which
    both must raise on the same call."""
    codec = make_codec(unit, project)
    ours, theirs = codec.parser(), ORACLE_PARSER[unit]()
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
            if kind == "error":
                assert got is expected is ParseError
                return pairs
            if expected is None:
                assert got is None
                break
            _same_record(got, expected, codec.decoded_fields)
            assert ours.ops == theirs.ops  # bit-identical, not approx
            pairs.append((got, expected))
        if theirs._head is None:  # the oracle drops a head it has parsed
            assert ours.pending_bytes() == theirs.pending_bytes()
    return pairs


def _same_record(ours: Record, theirs: Record, decoded) -> None:
    assert ours.type_name == theirs.type_name
    kept = [(k, v) for k, v in theirs._fields.items() if k in decoded]
    assert list(ours._fields.items()) == kept
    assert [type(v) for v in ours._fields.values()] == [type(v) for _, v in kept]
    if "headers" in decoded:
        assert list(ours.headers.items()) == list(theirs.headers.items())
    assert ours.raw == theirs.raw and type(ours.raw) is bytes
    assert ours.spans is None and ours.dirty is False


def chunked(data: bytes, cuts) -> list:
    edges = [0] + sorted(c % (len(data) + 1) for c in cuts) + [len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:])]


def bytewise(data: bytes) -> list:
    return [data[i : i + 1] for i in range(len(data))]


def names(unit):
    return [f.name for f in unit.fields]


cut_lists = st.lists(st.integers(0, 1 << 12), max_size=8)
units = st.sampled_from([http.REQUEST_UNIT, http.RESPONSE_UNIT])


@st.composite
def projections(draw, unit):
    if draw(st.integers(0, 3)) == 0:
        return None
    return set(draw(st.lists(st.sampled_from(names(unit)), unique=True)))


# ---------------------------------------------------------------------------
# Streams: what make_request / make_response build, and what they cannot
# ---------------------------------------------------------------------------

tchar = "!#$%&'*+-.^_`|~" + "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
tokens = st.text(tchar, min_size=1, max_size=8)
header_values = st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF), max_size=12).map(
    str.strip
)
extra_headers = st.dictionaries(
    tokens.filter(lambda n: n.lower() not in ("content-length", "transfer-encoding")),
    header_values,
    max_size=3,
)
bodies = st.binary(max_size=40)


@st.composite
def built_messages(draw, unit):
    """A record as the simulated clients, backends and servers build it."""
    if unit is http.REQUEST_UNIT:
        return http.make_request(
            draw(tokens), "/" + draw(tokens), draw(extra_headers), draw(bodies),
            keep_alive=draw(st.booleans()),
        )
    return http.make_response(
        draw(st.integers(100, 599)), draw(header_values), draw(extra_headers), draw(bodies)
    )


@st.composite
def built_streams(draw):
    unit = draw(units)
    records = draw(st.lists(built_messages(unit), min_size=1, max_size=4))
    return unit, draw(projections(unit)), records


RUNS = [b" ", b"  ", b"\t", b"\x0b", b" \x0c", b"\n", b"\r"]  # whitespace to split() at
WORDS = [b"GET", b"/x", b"HTTP/1.1", b"HTTP/1.0", b"HTTPS", b"200", b"+3", b"-5",
         b"1_0", b"OK", b"Not Found", b"\xb2", b":", b""]
SHAPES = {  # words the oracle accepts, per unit
    "http_req": [[b"GET", b"PUT"], [b"/x", b"/"], [b"HTTP/1.1", b"HTTP/1.0"]],
    "http_resp": [[b"HTTP/1.1", b"X"], [b"200", b"+3", b"404"], [b"OK", b"Not  Found", b""]],
}
NAMES = [b"Host", b"Content-Length", b"content-length ", b" CONTENT-LENGTH",
         b"Transfer-Encoding", b"Connection", b"X-\xc9", b""]
SEPS = [b":", b": ", b" :", b""]  # b"" drops the colon: a malformed line
VALUES = [b"0", b"2", b"5", b"-5", b"+3", b"1_0", b"", b"\xb2", b"\xd9\xa3", b" 7 ",
          b"chunked", b"Chunked ", b"gzip, chunked", b"close", b"keep-alive", b"a:b"]


@st.composite
def raw_messages(draw, unit):
    """A head assembled from pieces the oracle treats differently —
    whitespace runs, signs, non-ASCII digits, missing colons, repeated
    and oddly-cased names — then a body of any length.  Half of them
    have a start line of the unit's shape, so that the lenient-accept
    paths are compared field by field, not only the refusals."""
    sample = st.sampled_from
    if draw(st.booleans()):
        words = [draw(sample(choices)) for choices in SHAPES[unit.name]]
    else:
        words = draw(st.lists(sample(WORDS), max_size=4))
    line = draw(sample(RUNS + [b""]))
    for word in words:
        line += word + draw(sample(RUNS + [b""] * (word is words[-1])))
    head = [line]
    for _ in range(draw(st.integers(0, 4))):
        head.append(draw(sample(NAMES)) + draw(sample(SEPS)) + draw(sample(VALUES)))
    return b"\r\n".join(head) + b"\r\n\r\n" + draw(st.binary(max_size=8))


# ---------------------------------------------------------------------------
# The differential
# ---------------------------------------------------------------------------


class TestAgainstTheOracle:
    @given(built_streams(), cut_lists)
    @SETTINGS
    def test_built_streams_any_chunking(self, case, cuts):
        unit, project, records = case
        stream = b"".join(r.raw for r in records)
        for chunks in (chunked(stream, cuts), [stream]):
            pairs = parse_both(unit, project, chunks)
            assert [ours.raw for ours, _ in pairs] == [r.raw for r in records]

    @given(built_streams())
    @SETTINGS
    def test_built_streams_one_byte_feeds(self, case):
        unit, project, records = case
        stream = b"".join(r.raw for r in records)
        assert len(parse_both(unit, project, bytewise(stream))) == len(records)

    @given(units, st.data(), cut_lists)
    @SETTINGS
    def test_hostile_heads(self, unit, data, cuts):
        stream = b"".join(data.draw(st.lists(raw_messages(unit), min_size=1, max_size=3)))
        project = data.draw(projections(unit))
        parse_both(unit, project, chunked(stream, cuts))
        parse_both(unit, project, bytewise(stream))

    @given(units, st.data(), st.lists(st.one_of(st.binary(max_size=30),
                                                st.just(b"\r\n\r\n")), max_size=6), cut_lists)
    @SETTINGS
    def test_arbitrary_bytes(self, unit, data, pieces, cuts):
        """Garbage in: a record, None or ParseError — never anything else."""
        parse_both(unit, data.draw(projections(unit)), chunked(b"".join(pieces), cuts))

    @given(units, st.data())
    @SETTINGS
    def test_projection_moves_no_ops(self, unit, data):
        """Virtual cost is the projection's business only in host time."""
        records = data.draw(st.lists(built_messages(unit), min_size=1, max_size=3))
        stream = b"".join(r.raw for r in records)
        full = make_codec(unit).parser()
        projected = make_codec(unit, data.draw(projections(unit))).parser()
        for parser in (full, projected):
            parser.feed(stream)
            assert len(list(parser.messages())) == len(records)
        assert full.take_ops() == projected.take_ops()


class TestMalformedBranches:
    """Every way the oracle refuses a message, each on the same call."""

    @pytest.mark.parametrize(
        "unit, data",
        [
            (http.REQUEST_UNIT, b"NOT-HTTP\r\n\r\n"),
            (http.REQUEST_UNIT, b"GET / HTTP/1.1 extra\r\n\r\n"),
            (http.REQUEST_UNIT, b"GET / FTP/1.1\r\n\r\n"),
            (http.REQUEST_UNIT, b"\r\n\r\n"),
            (http.RESPONSE_UNIT, b"HTTP/1.1\r\n\r\n"),
            (http.RESPONSE_UNIT, b"HTTP/1.1 OK fine\r\n\r\n"),
            (http.REQUEST_UNIT, b"GET / HTTP/1.1\r\nno colon here\r\n\r\n"),
            (http.RESPONSE_UNIT, b"HTTP/1.1 200 OK\r\nTransfer-Encoding:  CHUNKED \r\n\r\n"),
            (http.REQUEST_UNIT, b"GET / HTTP/1.1\r\ncontent-length: abc\r\n\r\n"),
        ],
    )
    def test_refused_on_the_poll_that_finds_the_head(self, unit, data):
        for project in (None, set()):
            for chunks in ([data], bytewise(data)):
                assert parse_both(unit, project, chunks) == []
            parser = make_codec(unit, project).parser()
            parser.feed(data[:-1])
            assert parser.poll() is None
            parser.feed(data[-1:])
            with pytest.raises(ParseError):
                parser.poll()

    @pytest.mark.parametrize("value", [b"-5", b"+3", b"1_0", b"", b"\xb2", b"\xd9\xa3"])
    def test_content_length_is_1_digit(self, value):
        """``int()`` accepted all of these: ``-5`` took ``buf[:-5]`` as the
        body and swallowed the next pipelined request; ``1_0`` was 10."""
        first = b"GET /a HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n"
        second = http.make_request("GET", "/b").raw
        for project in (None, set()):
            assert parse_both(http.REQUEST_UNIT, project, [first + second]) == []
            parser = make_codec(http.REQUEST_UNIT, project).parser()
            parser.feed(first + second)
            with pytest.raises(ParseError, match="content-length is not 1"):
                parser.poll()
        for ok in (b"0", b"007", b" 3\t"):
            message = b"GET /a HTTP/1.1\r\nContent-Length: " + ok + b"\r\n\r\n"
            message += b"x" * int(ok)
            assert len(parse_both(http.REQUEST_UNIT, None, [message + second])) == 2

    def test_head_overflow_is_refused_by_feed(self):
        """No blank line within 64 KiB: refused by the ``feed`` that crosses
        it, whatever the chunk sizes; complete heads past it are not."""
        endless = b"GET /" + b"a" * (70 * 1024)
        for cuts in ([], [65536, 65537], list(range(0, 70 * 1024, 4093))):
            assert parse_both(http.REQUEST_UNIT, None, chunked(endless, cuts)) == []
        parser = http.HttpRequestParser()
        parser.feed(endless[: 64 * 1024 - 1])
        assert parser.poll() is None
        with pytest.raises(ParseError, match="max_bytes=65536"):
            parser.feed(endless[64 * 1024 - 1 :])
        pipelined = http.make_request("GET", "/" + "p" * 200).raw * 400  # ~90 KiB
        parser = http.HttpRequestParser()
        parser.feed(pipelined)
        assert len(list(parser.messages())) == 400
        # A body is bounded by its Content-Length, not by max_bytes.
        big = http.make_response(body=b"b" * (100 * 1024)).raw
        assert len(parse_both(http.RESPONSE_UNIT, None, chunked(big, range(0, len(big), 999)))) == 1


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


class TestSerialize:
    @given(built_streams())
    @SETTINGS
    def test_render_of_parse_is_identity(self, case):
        """``raw`` is the consumed bytes; for everything the simulation
        builds, re-rendering the parsed fields gives the same bytes."""
        unit, _, records = case
        codec = make_codec(unit)
        for record in records:
            parsed = codec.parse_all(record.raw)[0]
            parsed.dirty = True
            assert codec.serialize(parsed)[0] == record.raw
            assert oracle.serialize(parsed)[0] == record.raw

    @given(built_streams(), st.data())
    @SETTINGS
    def test_clean_dirty_and_projected(self, case, data):
        unit, project, records = case
        stream = b"".join(r.raw for r in records)
        for ours, theirs in parse_both(unit, project, [stream]):
            assert http.serialize(ours) == oracle.serialize(theirs)  # raw fast path
            fields = data.draw(st.lists(st.sampled_from(sorted(ours._fields) or ["-"]),
                                        max_size=2))
            for name in fields:
                if name == "-":
                    continue
                value = {"status": 503, "body": b"new", "headers": {"x": "y"}}.get(name, "Z")
                assign_field(ours, name, value)
                assign_field(theirs, name, value)
            # A projected record gets the fields it skipped from raw.
            assert http.serialize(ours) == oracle.serialize(theirs)

    def test_built_records_match_the_oracle_renderer(self):
        for record in (
            http.make_request("POST", "/submit", {"X-A": "1"}, b"payload", keep_alive=False),
            http.make_response(404, "Not Found", body=b"gone"),
            http.make_response(200, "", body=b""),
        ):
            record.dirty = True
            assert http.serialize(record) == oracle.serialize(record)

    def test_a_fieldless_record_without_raw_is_refused(self):
        from repro.core.errors import SerializeError

        with pytest.raises(SerializeError, match="no value and no raw bytes"):
            http.serialize(Record(http.REQUEST_TYPE, {"method": "GET", "path": "/"}))


# ---------------------------------------------------------------------------
# The interface callers keep, and what it no longer does
# ---------------------------------------------------------------------------


class TestInterface:
    def test_parser_names_are_thin_callables_over_the_generated_codec(self):
        for name, unit in (("HttpRequestParser", http.REQUEST_UNIT),
                           ("HttpResponseParser", http.RESPONSE_UNIT)):
            parser = getattr(http, name)()
            assert isinstance(parser, UnitParser)
            assert type(parser) is type(make_codec(unit).parser())

    def test_keep_alive_from_a_projected_parse(self):
        codec = http.request_codec(http.KEEP_ALIVE_FIELDS)
        for raw, keep in (
            (http.make_request("GET", "/").raw, True),
            (http.make_request("GET", "/", keep_alive=False).raw, False),
            (b"GET / HTTP/1.0\r\nhost: h\r\n\r\n", False),
            (b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", True),
            (b"GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n", False),
        ):
            (record,) = codec.parse_all(raw)
            assert set(record._fields) == http.KEEP_ALIVE_FIELDS
            assert http.wants_keep_alive(record) is keep

    def test_helpers_do_not_go_through_record_getattr(self, monkeypatch):
        from repro.workloads.arrivals import HttpRequestCodec

        def refuse(self, name):
            raise AssertionError(f"Record.__getattr__({name!r})")

        monkeypatch.setattr(Record, "__getattr__", refuse)
        request = http.make_request("GET", "/", keep_alive=False)
        response = http.make_response(503, body=b"x")
        assert not http.wants_keep_alive(request)
        http.serialize(request)
        request.dirty = True
        http.serialize(request)
        codec = HttpRequestCodec()
        parser = codec.parser()
        parser.feed(response.raw)
        (parsed,) = parser.messages()
        assert codec.is_error(parsed)

    def test_no_hand_written_parser_is_left_in_the_protocol_library(self):
        protocols = Path(__file__).resolve().parents[1] / "src/repro/grammar/protocols"
        for path in protocols.glob("*.py"):
            text = path.read_text()
            for banned in ("def poll", "_parse_head", "_parse_headers", ".find("):
                assert banned not in text, f"{path.name}: {banned}"


class TestRenderedOnce:
    """A server that answers every request with the same bytes renders
    them once, not once per request; a client renders its request once
    per shape and splices the numbers in."""

    @pytest.mark.parametrize(
        "system, mode", [("flick-kernel", "lb"), ("apache", "lb"), ("nginx", "web"),
                         ("flick-kernel", "web")]
    )
    def test_renders_do_not_grow_with_requests(self, monkeypatch, system, mode):
        from repro.bench.testbeds import run_http_experiment

        codec = http.response_codec()
        encode, calls = codec._encode, itertools.count()
        monkeypatch.setattr(codec, "_encode", lambda r: (next(calls), encode(r))[1])
        renders = []
        for requests in (1, 3, 9):  # the first run fills process-wide caches
            before = next(calls)
            result = run_http_experiment(system, concurrency=4, mode=mode, cores=2,
                                         requests_per_client=requests)
            assert result.entry["completed"] == 4 * requests
            renders.append(next(calls) - before - 1)
        # Once per backend and baseline server: the same for 3x the load.
        assert renders[1] == renders[2] <= 11

    @pytest.mark.parametrize(
        "protocol, arg",
        [("http", "/index.html"), ("http", "/a\0b"), ("http", ""),
         ("memcached", 10_000), ("memcached", 7)],
    )
    def test_open_and_closed_loop_requests_are_spliced_not_rendered(self, protocol, arg):
        """Each codec's bytes are the per-request rendering it replaced;
        a memcached opaque past 32 bits fails the same way both ways."""
        from repro.core.ids import stable_hash
        from repro.workloads.arrivals import HttpRequestCodec, MemcachedRequestCodec

        if protocol == "http":
            codec = HttpRequestCodec(arg)

            def open_loop(index):
                return http.make_request("GET", f"{arg}?r={index}", keep_alive=True).raw

            def closed_loop(c, n, keep):
                return http.make_request("GET", f"{arg}?c={c}&n={n}", keep_alive=keep).raw
        else:
            codec = MemcachedRequestCodec(arg)

            def getk(bucket, opaque):
                key = f"key-{bucket % arg:06d}"
                return mc.encode(mc.make_request(mc.OP_GETK, key, opaque=opaque))

            def open_loop(index):
                return getk(index, index)

            def closed_loop(c, n, keep):
                return getk(stable_hash((c, n)), c)

        numbers = (0, 7, 2**32 - 1, 10**12)
        for index in numbers:
            assert _outcome(codec.request_bytes, index) == _outcome(open_loop, index)
        for c, n, keep in itertools.product(numbers, numbers, (False, True)):
            assert _outcome(codec.client_request, c, n, keep) == _outcome(
                closed_loop, c, n, keep
            )


@pytest.mark.parametrize("protocol", ["http", "memcached"])
def test_request_codec_parser_decodes_only_what_is_error_reads(protocol):
    """A client reads one field of a response, the one its codec's
    ``is_error`` reads: its parser decodes that field's projection, and
    no payload the client never looks at."""
    from repro.workloads.arrivals import HttpRequestCodec, MemcachedRequestCodec

    if protocol == "http":
        codec, unit, field = HttpRequestCodec(), http.RESPONSE_UNIT, "status"
        raw = http.make_response(200, "OK").raw
    else:
        codec, unit, field = MemcachedRequestCodec(), mc.MEMCACHED_UNIT, "magic_code"
        raw = mc.encode(mc.make_response(mc.OP_GETK, "key-000001", b"v" * 100))
    parser = codec.parser()
    parser.feed(raw)
    (message,) = parser.messages()
    assert set(message._fields) == make_codec(unit, (field,)).decoded_fields
    assert not codec.is_error(Record(unit.name, {field: message._fields[field]}))
