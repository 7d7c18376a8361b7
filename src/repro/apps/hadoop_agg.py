"""Hadoop in-network data aggregator use case (Listing 3, sections 2.1, 6.1).

The FLICK program implements the combiner of a word-count job: sorted
key/value streams from the mappers are merged by a ``foldt`` tree
(Figure 3c — for 8 mappers: 8 input tasks, 7 merge tasks, 1 output task)
and combined pairs flow to the reducer.
"""

from __future__ import annotations

from repro.grammar.protocols import hadoop
from repro.lang.compiler import CompiledProgram, compile_source
from repro.lang.values import Record
from repro.net.simnet import Host
from repro.runtime.graph import Bindings, CodecRegistry, OutboundTarget

#: The inbound endpoint name (the mapper array) — what a
#: ``service_classes`` spec binds a QoS tier to.
CLIENT_ENDPOINT = "mappers"

HADOOP_SOURCE = """
type kv: record
    key : string
    value : string

proc hadoop: ([kv/-] mappers, -/kv reducer)
    if all_ready(mappers):
        let result = foldt on mappers ordering elem e1, e2 by elem.key as e_key:
            let v = combine(e1.value, e2.value)
            kv(e_key, v)
        result => reducer

fun combine: (v1: string, v2: string) -> (string)
    to_str(to_int(v1) + to_int(v2))
"""


def compile_hadoop() -> CompiledProgram:
    return compile_source(HADOOP_SOURCE, "<hadoop_agg.flick>")


def hadoop_codec_registry() -> CodecRegistry:
    registry = CodecRegistry()
    codec = hadoop.codec()
    registry.register_parser("kv", codec.parser)
    registry.register_serializer("kv", codec.serialize)
    return registry


#: Cost (abstract ops) of one native combine: the platform's hand-written
#: foldt node does an integer add and a record rebuild (§4.3: foldt "has a
#: custom implementation for performance reasons").
NATIVE_COMBINE_OPS = 2.0


def _native_key(record):
    return record._fields["key"]


def _native_combine(left, right):
    """Native equivalent of the FLICK combine body (property-tested)."""
    fields = left._fields
    key = fields["key"]
    value = str(int(fields["value"]) + int(right._fields["value"]))
    merged = Record(
        "kv",
        {
            "key_len": len(key.encode("utf-8")),
            "value_len": len(value.encode("utf-8")),
            "key": key,
            "value": value,
        },
    )
    return merged, NATIVE_COMBINE_OPS


def hadoop_bindings(
    reducer_host: Host,
    reducer_port: int,
    n_mappers: int,
    native: bool = True,
) -> Bindings:
    """Group ``n_mappers`` connections per graph; reducer is outbound.

    ``native=True`` uses the platform's custom foldt combine; ``False``
    interprets the FLICK body directly (the integration tests check
    that the two agree).
    """
    return Bindings(
        outbound={"reducer": [OutboundTarget(reducer_host, reducer_port)]},
        group_size=n_mappers,
        native_foldt=(_native_key, _native_combine) if native else None,
    )
