"""Memcached proxy / cache router use case (Listing 1, sections 4.1, 6.1).

Two variants are provided:

* ``PROXY_SOURCE`` — the condensed Listing 1: requests are hash-routed to
  the backend owning the key's shard; responses return to the client.
  This is the configuration measured in Figure 5 against Moxi.
* ``CACHE_ROUTER_SOURCE`` — the full Listing 1: GETK responses are cached
  in process-global state and future hits are answered from the cache
  without touching a backend.

The ``cmd`` wire format is the Listing 2 grammar; the parser registered
for the FLICK type is *specialised* to the fields the program accesses
(opcode and key), so request/response values are located but not decoded.
"""

from __future__ import annotations

from typing import List

from repro.grammar.protocols import memcached as mc
from repro.lang.compiler import CompiledProgram, compile_source
from repro.runtime.graph import Bindings, CodecRegistry, OutboundTarget

#: The inbound endpoint name both proxy programs expose — what a
#: ``service_classes`` spec binds a QoS tier to.
CLIENT_ENDPOINT = "client"

PROXY_SOURCE = """
type cmd: record
    opcode : integer {size=1}
    key : string

proc Memcached: (cmd/cmd client, [cmd/cmd] backends)
    | backends => client
    | client => target_backend(backends)

fun target_backend: ([-/cmd] backends, req: cmd) -> ()
    let target = hash(req.key) mod len(backends)
    req => backends[target]
"""

CACHE_ROUTER_SOURCE = """
type cmd: record
    opcode : integer {size=1}
    key : string

proc memcached:
    (cmd/cmd client, [cmd/cmd] backends)
    global cache := empty_dict
    backends => update_cache(cache) => client
    client => test_cache(client, backends, cache)

fun update_cache:
    (cache: ref dict<string*cmd>, resp: cmd)
    -> (cmd)
    if resp.opcode = 0x0c:
        cache[resp.key] := resp
    resp

fun test_cache:
    (-/cmd client, [-/cmd] backends, cache: ref dict<string*cmd>, req: cmd)
    -> ()
    if cache[req.key] = None or req.opcode <> 0x0c:
        let target = hash(req.key) mod len(backends)
        req => backends[target]
    else:
        cache[req.key] => client
"""


def compile_proxy() -> CompiledProgram:
    return compile_source(PROXY_SOURCE, "<memcached_proxy.flick>")


def compile_cache_router() -> CompiledProgram:
    return compile_source(CACHE_ROUTER_SOURCE, "<memcached_router.flick>")


def memcached_codec_registry(
    program: CompiledProgram, specialised: bool = True
) -> CodecRegistry:
    """Registry for the ``cmd`` type.

    With ``specialised=True`` the parser decodes only the fields the
    program accesses plus structural dependencies (section 4.2); the
    unspecialised variant decodes everything — the E13 row of
    ``repro.bench.figures`` compares the two.
    """
    registry = CodecRegistry()
    if specialised:
        codec = mc.specialized_codec(program.accessed_fields("cmd"))
    else:
        codec = mc.full_codec()
    serializer = mc.full_codec()
    registry.register_parser("cmd", codec.parser)
    registry.register_serializer("cmd", serializer.serialize)
    return registry


def proxy_bindings(backend_targets: List[OutboundTarget]) -> Bindings:
    return Bindings(outbound={"backends": backend_targets})
