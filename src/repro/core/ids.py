"""Small deterministic id generators and stable hashing.

Python's built-in ``hash`` for ``str`` is salted per process, which would
make simulated runs non-deterministic.  The runtime and the compiled FLICK
``hash`` builtin both use :func:`stable_hash` instead (FNV-1a, 64-bit),
so request routing is reproducible across runs and platforms.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

_FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = 0xFFFFFFFFFFFFFFFF


def _fnv1a(data) -> int:
    if isinstance(data, str):
        data = data.encode("utf-8")
    elif isinstance(data, int):
        try:
            data = data.to_bytes(8, "little", signed=True)
        except OverflowError:  # past signed 64 bits (a uint64 >= 2**63)
            width = (data if data >= 0 else ~data).bit_length() // 8 + 1
            data = data.to_bytes(width, "little", signed=True)
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"stable_hash does not support {type(data).__name__}")
    h = _FNV_OFFSET
    for byte in bytes(data):
        h = ((h ^ byte) * FNV_PRIME) & MASK64
    return h


# The same few keys, ids and small integers are hashed once per request;
# the byte loop is pure Python.  ``typed`` keeps ``1.0`` from being served
# the answer for ``1``; the bound keeps one-shot ids from accumulating.
# A loop that folds many parts takes :func:`hash_fold`'s step inline:
# ``(h ^ fnv1a_memo(part)) * FNV_PRIME & MASK64``.
fnv1a_memo = functools.lru_cache(maxsize=1 << 12, typed=True)(_fnv1a)


def hash_fold(h: int, part) -> int:
    """One step of a tuple's hash: fold ``part``'s hash into ``h``.

    ``hash_fold(stable_hash(t), part) == stable_hash(t + (part,))`` for
    any tuple ``t``, so a caller that hashes many tuples sharing a
    prefix hashes the prefix once and extends it.
    """
    try:
        part = fnv1a_memo(part)
    except TypeError:  # a tuple, a bytearray, or not supported
        part = stable_hash(part) if isinstance(part, tuple) else _fnv1a(part)
    return (h ^ part) * FNV_PRIME & MASK64


def stable_hash(data) -> int:
    """Return a deterministic 64-bit FNV-1a hash of ``data``.

    Accepts ``bytes``, ``str`` (UTF-8 encoded), ``int`` and tuples of those;
    this covers everything FLICK programs are allowed to hash.  An int
    hashes its 8 signed little-endian bytes, or, outside the signed
    64-bit range, its shortest signed little-endian bytes (9 or more).
    A tuple folds its parts' hashes (:func:`hash_fold`).
    """
    if isinstance(data, tuple):
        h = _FNV_OFFSET
        for part in data:  # one loop; recursion only for a nested tuple
            h = hash_fold(h, part)
        return h
    try:
        return fnv1a_memo(data)
    except TypeError:  # unhashable (bytearray), or not supported at all
        return _fnv1a(data)


class IdAllocator:
    """Monotonically increasing integer ids with a readable prefix."""

    def __init__(self, prefix: str = "id"):
        self._prefix = prefix
        self._counter: Iterator[int] = itertools.count()

    def next_id(self) -> str:
        return f"{self._prefix}-{next(self._counter)}"
