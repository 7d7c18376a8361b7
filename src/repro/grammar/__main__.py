"""Print the code generated for a protocol's wire grammar.

    python -m repro.grammar [memcached|hadoop] [--project f,g]

``--project`` names the fields the FLICK program accesses, as the
compiler would: the other payloads are located but never sliced.
"""

from __future__ import annotations

import argparse
import sys

from repro.grammar.engine import make_codec
from repro.grammar.protocols.hadoop import HADOOP_UNIT
from repro.grammar.protocols.memcached import MEMCACHED_UNIT

UNITS = {"memcached": MEMCACHED_UNIT, "hadoop": HADOOP_UNIT}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.grammar")
    parser.add_argument(
        "protocol", nargs="?", default="memcached", choices=sorted(UNITS)
    )
    parser.add_argument(
        "--project", metavar="f,g", help="decode only these payload fields"
    )
    args = parser.parse_args(argv)
    project = None
    if args.project is not None:
        project = set(filter(None, args.project.split(",")))
    sys.stdout.write(make_codec(UNITS[args.protocol], project).source)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
