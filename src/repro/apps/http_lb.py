"""HTTP load balancer and static web server use cases (sections 2.1, 6.1).

Both services are written in the FLICK language and compiled through the
full front end.  The load balancer hashes the connection 4-tuple to pick
a backend; because a task graph is per-connection and the hash input is
connection-stable, subsequent requests stick to the same backend, and
responses flow back unparsed (the raw fast path), matching Figure 3a.

The static web server variant answers every request with a fixed 137-byte
payload — the paper's backend-free configuration used to measure the
platform itself.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

from repro.grammar.engine import OPS_PER_RAW_COPY_BYTE
from repro.grammar.protocols import http
from repro.lang.compiler import CompiledProgram, compile_source
from repro.lang.values import Record
from repro.runtime.graph import Bindings, CodecRegistry, OutboundTarget

#: The fixed response body used by the static web experiments (137 bytes,
#: §6.3: "small HTTP payloads (137 bytes each)").
STATIC_BODY = (b"FLICK static response. " * 6)[:137]

#: The inbound endpoint name both programs expose — what a
#: ``service_classes`` spec binds a QoS tier to.
CLIENT_ENDPOINT = "client"

HTTP_LB_SOURCE = """
type http_req: record
    method : string
    path : string

type http_resp: record
    status : integer
    body : string

type conn_info: record
    src : string
    dst : string

proc HttpBalancer: (http_req/http_resp client, [http_resp/http_req] backends, info: conn_info)
    client => forward(info, backends)
    backends => client

fun forward: (info: conn_info, [-/http_req] backends, req: http_req) -> ()
    let target = hash(concat(info.src, info.dst)) mod len(backends)
    req => backends[target]
"""

STATIC_WEB_SOURCE = """
type http_req: record
    method : string
    path : string

type http_resp: record
    status : integer
    body : string

proc StaticWeb: (http_req/http_resp client)
    client => respond() => client

fun respond: (req: http_req) -> (http_resp)
    http_resp(200, "%BODY%")
"""


def compile_http_lb() -> CompiledProgram:
    """Compile the load-balancer program."""
    return compile_source(HTTP_LB_SOURCE, "<http_lb.flick>")


def compile_static_web() -> CompiledProgram:
    """Compile the static web server program (body embedded as a literal)."""
    source = STATIC_WEB_SOURCE.replace(
        "%BODY%", STATIC_BODY.decode("ascii").replace('"', "'")
    )
    return compile_source(source, "<static_web.flick>")


@functools.lru_cache(maxsize=64)
def _constant_response(status, body) -> bytes:
    if isinstance(body, str):
        body = body.encode("latin-1")
    return http.make_response(status=status, body=body).raw


def _serialize_http_resp(record: Record):
    """Serialise a response record, completing FLICK-constructed ones
    (``http_resp(status, body)``: rendered once per distinct pair)."""
    if record.raw is not None:
        return http.serialize(record)
    fields = record._fields
    raw = _constant_response(fields["status"], fields["body"])
    return raw, len(raw) * OPS_PER_RAW_COPY_BYTE


def http_codec_registry(program: Optional[CompiledProgram] = None) -> CodecRegistry:
    """Registry wiring FLICK's http_req/http_resp types to the HTTP codec.

    Given the ``program``, the parsers are projected to the fields it
    accesses (the load balancer and the static web server read none, so
    their request parser builds no header map); without one they decode
    everything.
    """

    def accessed(record_type: str):
        return None if program is None else program.accessed_fields(record_type)

    registry = CodecRegistry()
    registry.register_parser("http_req", http.request_codec(accessed("http_req")).parser)
    registry.register_parser("http_resp", http.response_codec(accessed("http_resp")).parser)
    registry.register_serializer("http_req", http.request_codec().serialize)
    registry.register_serializer("http_resp", _serialize_http_resp)
    return registry


def make_conn_info(socket) -> Dict[str, object]:
    """Per-connection value parameters: the hashable connection identity."""
    return {
        "info": Record(
            "conn_info",
            {
                "src": f"{socket.host.name}:{socket.conn_id}",
                "dst": f"{socket.peer.host.name}:80",
            },
        )
    }


def lb_bindings(backend_targets: List[OutboundTarget]) -> Bindings:
    """Bindings for the load balancer: outbound backends + conn info."""
    return Bindings(
        outbound={"backends": backend_targets},
        value_params=make_conn_info,
    )
