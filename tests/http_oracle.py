"""Reference HTTP/1.1 codec: the hand-written parser the generator replaced.

This was ``src/repro/grammar/protocols/http.py`` until HTTP became two
text units of the grammar DSL.  It stays here, as ``grammar_oracle.py``
does for binary units, as the executable definition of what the
generated HTTP codec must do; ``tests/test_http_codec.py`` holds the
generated codec to it — fields, ``raw``, cumulative ``ops`` where a
record comes back, ``serialize()`` bytes and ops, and the exception
class on the same ``feed``/``poll`` call.  Nothing under ``src/``
imports it.

Two edits since it left ``src/``, both deliberate:

* ``raw`` is the bytes the message was parsed from, as in every
  generated codec, not a re-rendering of its fields (the two differ only
  for non-canonical input, which no simulated peer sends);
* ``Content-Length`` must be ``1*DIGIT`` (RFC 9110 §8.6): ``int()``
  accepted ``-5`` (and took ``buf[:-5]`` as the body), ``+3``, ``1_0``
  and non-ASCII digits.

Only the subset exercised by the evaluation is implemented: request line,
status line, headers, fixed ``Content-Length`` bodies.  A message with no
Content-Length has an empty body; chunked transfer encoding is rejected.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.errors import ParseError
from repro.grammar.engine import (
    OPS_PER_DECODED_BYTE,
    OPS_PER_FIELD,
    OPS_PER_RAW_COPY_BYTE,
)
from repro.lang.values import Record

_CRLF = b"\r\n"
_HEAD_END = b"\r\n\r\n"
_MAX_HEAD = 64 * 1024
_DIGITS = re.compile(r"[0-9]+")

REQUEST_TYPE = "http_req"
RESPONSE_TYPE = "http_resp"


class _HttpParserBase:
    """Incremental head+body parser shared by requests and responses."""

    record_type = ""

    def __init__(self):
        self._buf = bytearray()
        self._head: Optional[Tuple] = None  # parsed head awaiting body
        self._head_bytes = b""
        self._body_len = 0
        self.ops = 0.0

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)
        if len(self._buf) > _MAX_HEAD and self._head is None:
            if _HEAD_END not in self._buf:
                raise ParseError("HTTP head exceeds maximum size")

    def pending_bytes(self) -> int:
        return len(self._buf)

    def take_ops(self) -> float:
        ops, self.ops = self.ops, 0.0
        return ops

    def poll(self) -> Optional[Record]:
        if self._head is None:
            end = self._buf.find(_HEAD_END)
            if end < 0:
                return None
            head_bytes = bytes(self._buf[: end + len(_HEAD_END)])
            self._head = self._parse_head(head_bytes)
            self._head_bytes = head_bytes
            self._body_len = self._content_length(self._head[-1])
            del self._buf[: end + len(_HEAD_END)]
            self.ops += OPS_PER_FIELD * 4 + len(head_bytes) * OPS_PER_DECODED_BYTE
        if len(self._buf) < self._body_len:
            return None
        body = bytes(self._buf[: self._body_len])
        del self._buf[: self._body_len]
        self.ops += OPS_PER_FIELD + len(body) * OPS_PER_RAW_COPY_BYTE
        head, self._head = self._head, None
        record = self._make_record(head, body)
        record.raw = self._head_bytes + body
        return record

    def messages(self) -> Iterator[Record]:
        while True:
            record = self.poll()
            if record is None:
                return
            yield record

    @staticmethod
    def _content_length(headers: Dict[str, str]) -> int:
        if headers.get("transfer-encoding", "").lower() == "chunked":
            raise ParseError("chunked transfer encoding is not supported")
        value = headers.get("content-length", "0")
        if not _DIGITS.fullmatch(value):
            raise ParseError("malformed Content-Length header")
        return int(value)

    @staticmethod
    def _parse_headers(lines: List[bytes]) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        for line in lines:
            if not line:
                continue
            name, sep, value = line.partition(b":")
            if not sep:
                raise ParseError(f"malformed header line {line!r}")
            headers[name.strip().decode("latin-1").lower()] = (
                value.strip().decode("latin-1")
            )
        return headers

    # Subclass hooks -------------------------------------------------------

    def _parse_head(self, head: bytes) -> Tuple:
        raise NotImplementedError

    def _make_record(self, head: Tuple, body: bytes) -> Record:
        raise NotImplementedError


class HttpRequestParser(_HttpParserBase):
    record_type = REQUEST_TYPE

    def _parse_head(self, head: bytes) -> Tuple:
        lines = head[: -len(_HEAD_END)].split(_CRLF)
        parts = lines[0].split()
        if len(parts) != 3:
            raise ParseError(f"malformed request line {lines[0]!r}")
        method, path, version = (p.decode("latin-1") for p in parts)
        if not version.startswith("HTTP/"):
            raise ParseError(f"malformed HTTP version {version!r}")
        return method, path, version, self._parse_headers(lines[1:])

    def _make_record(self, head: Tuple, body: bytes) -> Record:
        method, path, version, headers = head
        return Record(
            REQUEST_TYPE,
            {
                "method": method,
                "path": path,
                "version": version,
                "headers": headers,
                "body": body,
            },
        )


class HttpResponseParser(_HttpParserBase):
    record_type = RESPONSE_TYPE

    def _parse_head(self, head: bytes) -> Tuple:
        lines = head[: -len(_HEAD_END)].split(_CRLF)
        parts = lines[0].split(None, 2)
        if len(parts) < 2:
            raise ParseError(f"malformed status line {lines[0]!r}")
        version = parts[0].decode("latin-1")
        try:
            status = int(parts[1])
        except ValueError:
            raise ParseError(f"malformed status code {parts[1]!r}") from None
        reason = parts[2].decode("latin-1") if len(parts) == 3 else ""
        return version, status, reason, self._parse_headers(lines[1:])

    def _make_record(self, head: Tuple, body: bytes) -> Record:
        version, status, reason, headers = head
        return Record(
            RESPONSE_TYPE,
            {
                "version": version,
                "status": status,
                "reason": reason,
                "headers": headers,
                "body": body,
            },
        )


def render_request(record: Record) -> bytes:
    head = f"{record.method} {record.path} {record.version}\r\n"
    head += "".join(f"{k}: {v}\r\n" for k, v in record.headers.items())
    return head.encode("latin-1") + _CRLF + record.body


def render_response(record: Record) -> bytes:
    head = f"{record.version} {record.status} {record.reason}\r\n"
    head += "".join(f"{k}: {v}\r\n" for k, v in record.headers.items())
    return head.encode("latin-1") + _CRLF + record.body


def serialize(record: Record) -> Tuple[bytes, float]:
    """Serialise an HTTP record; raw fast path when unmodified."""
    if record.raw is not None and not record.dirty:
        return record.raw, len(record.raw) * OPS_PER_RAW_COPY_BYTE
    if record.type_name == REQUEST_TYPE:
        data = render_request(record)
    else:
        data = render_response(record)
    return data, OPS_PER_FIELD * 4 + len(data) * OPS_PER_DECODED_BYTE
