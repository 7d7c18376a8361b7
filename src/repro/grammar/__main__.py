"""Print the code generated for a protocol's wire grammar.

    python -m repro.grammar [memcached|hadoop|http] [--project f,g]

``--project`` names the fields the FLICK program accesses, as the
compiler would: the other payloads are located but never sliced (for
HTTP, each unit takes the names it has; a header map left out is not
built, though its framing headers are still read).
"""

from __future__ import annotations

import argparse
import sys

from repro.grammar.engine import make_codec
from repro.grammar.protocols.hadoop import HADOOP_UNIT
from repro.grammar.protocols.http import REQUEST_UNIT, RESPONSE_UNIT
from repro.grammar.protocols.memcached import MEMCACHED_UNIT

PROTOCOLS = {
    "memcached": (MEMCACHED_UNIT,),
    "hadoop": (HADOOP_UNIT,),
    "http": (REQUEST_UNIT, RESPONSE_UNIT),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.grammar")
    parser.add_argument(
        "protocol", nargs="?", default="memcached", choices=sorted(PROTOCOLS)
    )
    parser.add_argument(
        "--project", metavar="f,g", help="decode only these payload fields"
    )
    args = parser.parse_args(argv)
    units = PROTOCOLS[args.protocol]
    project = None
    if args.project is not None:
        project = set(filter(None, args.project.split(",")))
        known = {f.name for unit in units for f in unit.named_fields()}
        if project - known:
            parser.error(f"unknown fields: {', '.join(sorted(project - known))}")
    for i, unit in enumerate(units):
        names = None if project is None else project & {f.name for f in unit.named_fields()}
        sys.stdout.write("\n\n" * bool(i) + make_codec(unit, names).source)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
