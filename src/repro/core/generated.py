"""Running generated source so that tools can still see it.

Both code generators (``repro.lang.codegen`` for FLICK handlers,
``repro.grammar.codegen`` for wire codecs) ``exec`` text they have just
written.  A bare ``exec`` leaves the code objects with a made-up
filename: tracebacks show no source line and profilers that bucket time
by package path file the work under "other".
"""

from __future__ import annotations

import linecache
import os
import zlib


def exec_generated(source: str, beside: str, label: str, namespace: dict) -> None:
    """``exec`` ``source`` in ``namespace``, its code objects carrying the
    filename ``<directory of beside>/<generated:label:crc>``.

    The name sits inside the generating package, so per-package profiles
    charge the generated code to the layer that wrote it, and the text is
    registered with :mod:`linecache`, so tracebacks quote the generated
    line.  The checksum keeps the texts of different units apart.
    """
    filename = os.path.join(
        os.path.dirname(os.path.abspath(beside)),
        f"<generated:{label}:{zlib.crc32(source.encode()):08x}>",
    )
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    exec(compile(source, filename, "exec"), namespace)
