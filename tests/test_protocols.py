"""Protocol-library tests: HTTP, Memcached binary, Hadoop key/value."""

import pytest

from repro.core.errors import ParseError
from repro.grammar.protocols import hadoop, http
from repro.grammar.protocols import memcached as mc
from repro.lang.values import Record
from tests.lang_oracle import assign_field


def decode_pairs(data):
    """A complete mapper stream back as (key, value) tuples."""
    return [(r.key, r.value) for r in hadoop.codec().parse_all(data)]


class TestHttp:
    def test_request_round_trip(self):
        req = http.make_request("POST", "/submit", body=b"payload")
        parser = http.HttpRequestParser()
        parser.feed(req.raw)
        parsed = parser.poll()
        assert parsed.method == "POST"
        assert parsed.path == "/submit"
        assert parsed.body == b"payload"

    def test_response_round_trip(self):
        resp = http.make_response(404, "Not Found", body=b"gone")
        parser = http.HttpResponseParser()
        parser.feed(resp.raw)
        parsed = parser.poll()
        assert parsed.status == 404
        assert parsed.reason == "Not Found"
        assert parsed.body == b"gone"

    def test_header_names_case_insensitive(self):
        raw = b"GET / HTTP/1.1\r\nHost: h\r\nContent-LENGTH: 2\r\n\r\nok"
        parser = http.HttpRequestParser()
        parser.feed(raw)
        assert parser.poll().body == b"ok"

    def test_pipelined_requests(self):
        a = http.make_request("GET", "/a").raw
        b = http.make_request("GET", "/b").raw
        parser = http.HttpRequestParser()
        parser.feed(a + b)
        msgs = list(parser.messages())
        assert [m.path for m in msgs] == ["/a", "/b"]

    def test_byte_at_a_time(self):
        raw = http.make_request("GET", "/slow").raw
        parser = http.HttpRequestParser()
        got = []
        for i in range(len(raw)):
            parser.feed(raw[i : i + 1])
            msg = parser.poll()
            if msg is not None:
                got.append(msg)
        assert len(got) == 1 and got[0].path == "/slow"

    def test_keep_alive_defaults(self):
        assert http.wants_keep_alive(http.make_request("GET", "/"))
        assert not http.wants_keep_alive(
            http.make_request("GET", "/", keep_alive=False)
        )

    def test_http10_keep_alive(self):
        raw = b"GET / HTTP/1.0\r\nhost: h\r\n\r\n"
        parser = http.HttpRequestParser()
        parser.feed(raw)
        assert not http.wants_keep_alive(parser.poll())

    def test_malformed_request_line(self):
        parser = http.HttpRequestParser()
        parser.feed(b"NOT-HTTP\r\n\r\n")
        with pytest.raises(ParseError):
            parser.poll()

    def test_malformed_content_length(self):
        parser = http.HttpRequestParser()
        parser.feed(b"GET / HTTP/1.1\r\ncontent-length: abc\r\n\r\n")
        with pytest.raises(ParseError):
            parser.poll()

    def test_chunked_rejected(self):
        parser = http.HttpRequestParser()
        parser.feed(b"GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")
        with pytest.raises(ParseError):
            parser.poll()

    def test_serialize_raw_fast_path(self):
        resp = http.make_response(body=b"x" * 137)
        data, ops = http.serialize(resp)
        assert data == resp.raw
        assert ops < 2.0

    def test_serialize_after_mutation(self):
        resp = http.make_response(body=b"x")
        assign_field(resp, "status", 503)
        data, _ = http.serialize(resp)
        assert data.startswith(b"HTTP/1.1 503")


class TestMemcached:
    def test_header_is_24_bytes(self):
        raw = mc.encode(mc.make_request(mc.OP_GET, ""))
        assert len(raw) == mc.HEADER_LEN

    def test_request_round_trip(self):
        raw = mc.encode(mc.make_request(mc.OP_GETK, "key9", opaque=77))
        rec = mc.full_codec().parse_all(raw)[0]
        assert rec.magic_code == mc.MAGIC_REQUEST
        assert rec.opcode == mc.OP_GETK
        assert rec.key == "key9"
        assert rec.opaque == 77

    def test_getk_response_echoes_key(self):
        resp = mc.make_response(mc.OP_GETK, "k1", b"v1")
        assert resp.key == "k1"

    def test_get_response_omits_key(self):
        resp = mc.make_response(mc.OP_GET, "k1", b"v1")
        assert resp.key == ""

    def test_total_len_consistency(self):
        raw = mc.encode(mc.make_response(mc.OP_GETK, "kk", b"vvv"))
        rec = mc.full_codec().parse_all(raw)[0]
        assert rec.total_len == rec.key_len + rec.extras_len + rec.value_len

    def test_set_request_carries_extras(self):
        raw = mc.encode(mc.make_request(mc.OP_SET, "k", b"value"))
        rec = mc.full_codec().parse_all(raw)[0]
        assert rec.extras_len == 8
        assert rec.value == b"value"

    def test_value_len_not_on_wire(self):
        """value_len is a computed var: total size excludes it."""
        raw = mc.encode(mc.make_request(mc.OP_GET, "abc"))
        assert len(raw) == mc.HEADER_LEN + 3


class TestHadoop:
    def test_pairs_round_trip(self):
        pairs = [("alpha", "1"), ("beta", "22"), ("gamma", "333")]
        assert decode_pairs(hadoop.encode_pairs(pairs)) == pairs

    def test_empty_value(self):
        assert decode_pairs(hadoop.encode_pairs([("k", "")])) == [("k", "")]

    def test_unicode_keys(self):
        pairs = [("clé", "1")]
        assert decode_pairs(hadoop.encode_pairs(pairs)) == pairs

    def test_encoded_pair_lengths(self):
        """The encoder writes both length prefixes from the payloads."""
        rec = hadoop.codec().parse_all(hadoop.encode_pairs([("ab", "xyz")]))[0]
        assert rec.key_len == 2 and rec.value_len == 3

    def test_incremental_stream(self):
        data = hadoop.encode_pairs([("a", "1"), ("b", "2")])
        parser = hadoop.codec().parser()
        parser.feed(data[:3])
        assert parser.poll() is None
        parser.feed(data[3:])
        assert len(list(parser.messages())) == 2


def _streams():
    """Three messages of each protocol, back to back in one buffer."""
    return {
        "memcached": (
            mc.full_codec().parser(),
            b"".join(
                mc.encode(mc.make_request(mc.OP_GETK, f"key{i}"))
                for i in range(3)
            ),
        ),
        "http": (
            http.HttpRequestParser(),
            b"".join(
                http.make_request("GET", f"/{i}").raw for i in range(3)
            ),
        ),
        "hadoop": (
            hadoop.codec().parser(),
            hadoop.encode_pairs([("a", "1"), ("b", "22"), ("c", "333")]),
        ),
    }


@pytest.mark.parametrize("protocol", ["memcached", "http", "hadoop"])
def test_messages_compares_no_record(protocol, monkeypatch):
    """Draining a parser tests each message against ``None`` by
    identity: ``iter(poll, None)`` called ``Record.__eq__`` once per
    message on every client, backend and reducer parser."""

    def refuse(self, other):
        raise AssertionError("messages() compared a record by ==")

    monkeypatch.setattr(Record, "__eq__", refuse)
    parser, wire = _streams()[protocol]
    parser.feed(wire)
    assert len(list(parser.messages())) == 3
    assert list(parser.messages()) == []
