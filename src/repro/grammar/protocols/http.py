"""HTTP/1.1 request and response grammars (section 4.2).

HTTP is declared in the grammar DSL like Memcached and Hadoop, as two
*text* units: start-line tokens, a ``name: value`` header map and a body
whose length is the ``Content-Length`` header (``1*DIGIT``, default 0).
:mod:`repro.grammar.codegen` generates their ``poll`` and ``encode``
(``python -m repro.grammar http`` prints them), so HTTP gets what the
binary protocols get: one memoised codec per projection, and a parser
projected to the fields a FLICK program reads builds no header map.

Only the subset exercised by the evaluation is declared: request line,
status line, headers, fixed-length bodies; chunked transfer encoding is
refused, and a head that has not ended within 64 KiB is a
:class:`~repro.core.errors.ParseError` (``%max_bytes``).  A parsed
record's ``raw`` is the bytes it was parsed from.  The hand-written
codec this replaced is the oracle in ``tests/http_oracle.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.grammar.dsl import parse_grammar
from repro.grammar.engine import UnitCodec, make_codec
from repro.lang.values import Record

HTTP_GRAMMAR_TEXT = """
type http_req = unit {
    %max_bytes = 65536;

    method : token;
    path : token;
    version : token &prefix = "HTTP/";
    headers : header_map &refuse = "transfer-encoding: chunked";
    body : bytes &length = self.headers["content-length"];
};

type http_resp = unit {
    %max_bytes = 65536;

    version : token;
    status : token &convert = int;
    reason : line;                  # the rest of the status line
    headers : header_map &refuse = "transfer-encoding: chunked";
    body : bytes &length = self.headers["content-length"];
};
"""

#: Compiled grammar units for HTTP requests and responses.
REQUEST_UNIT, RESPONSE_UNIT = parse_grammar(HTTP_GRAMMAR_TEXT)

REQUEST_TYPE = REQUEST_UNIT.name
RESPONSE_TYPE = RESPONSE_UNIT.name

#: The fields :func:`wants_keep_alive` reads.
KEEP_ALIVE_FIELDS = frozenset({"version", "headers"})


def request_codec(project: Optional[Iterable[str]] = None) -> UnitCodec:
    """The request codec, decoding only ``project`` if given."""
    return make_codec(REQUEST_UNIT, project)


def response_codec(project: Optional[Iterable[str]] = None) -> UnitCodec:
    """The response codec, decoding only ``project`` if given."""
    return make_codec(RESPONSE_UNIT, project)


_REQUEST = request_codec()
_RESPONSE = response_codec()

#: Fresh parsers that decode every field.
HttpRequestParser = _REQUEST.parser
HttpResponseParser = _RESPONSE.parser


def _built(codec: UnitCodec, fields: Dict[str, object]) -> Record:
    record = Record(codec.unit.name, fields)
    record.raw = codec.serialize(record)[0]
    return record


def make_request(
    method: str,
    path: str,
    headers: Optional[Dict[str, str]] = None,
    body: bytes = b"",
    keep_alive: bool = True,
) -> Record:
    hdrs = {k.lower(): v for k, v in (headers or {}).items()}
    hdrs.setdefault("host", "flick.test")
    if body:
        hdrs["content-length"] = str(len(body))
    if not keep_alive:
        hdrs["connection"] = "close"
    return _built(
        _REQUEST,
        {
            "method": method,
            "path": path,
            "version": "HTTP/1.1",
            "headers": hdrs,
            "body": body,
        },
    )


def make_response(
    status: int = 200,
    reason: str = "OK",
    headers: Optional[Dict[str, str]] = None,
    body: bytes = b"",
) -> Record:
    hdrs = {k.lower(): v for k, v in (headers or {}).items()}
    hdrs["content-length"] = str(len(body))
    return _built(
        _RESPONSE,
        {
            "version": "HTTP/1.1",
            "status": status,
            "reason": reason,
            "headers": hdrs,
            "body": body,
        },
    )


def serialize(record: Record) -> Tuple[bytes, float]:
    """Serialise an HTTP record; raw fast path when unmodified."""
    codec = _REQUEST if record._type_name == REQUEST_TYPE else _RESPONSE
    return codec.serialize(record)


def wants_keep_alive(record: Record) -> bool:
    """Connection persistence per RFC 2616 section 8.1."""
    fields = record._fields
    connection = fields["headers"].get("connection")
    if fields["version"] == "HTTP/1.0":
        return connection is not None and connection.lower() == "keep-alive"
    return connection is None or connection.lower() != "close"
