"""Seeded consistent-hash ring with virtual nodes.

The cluster tier's placement substrate: shard ids own ``vnodes`` points
each on a 64-bit ring, and a key belongs to the first point clockwise
from its own hash.  Hashing is :func:`hashlib.blake2b` keyed by the
ring's seed, so lookups are deterministic across processes and Python
versions (``hash()`` randomisation never leaks in) and two rings built
with the same seed agree point for point.  ``hashlib`` is imported when
the first ring is built: importing it loads OpenSSL (~3.4 MiB resident),
and a run without a fleet builds no ring.

Consistent hashing's contract — the reason the router uses it — is
*minimal disruption*: adding a shard only claims keys for the new shard
(everything that moves, moves onto it), and removing a shard only
re-homes the keys that lived on it (its ring segments fall to their
clockwise successors; nothing else moves).  With ``vnodes`` ≥ 64 the
per-shard key share also concentrates near 1/N.  Both properties are
locked by hypothesis tests (``tests/test_hash_ring.py``).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Iterable, List, Tuple

from repro.core.errors import ConfigError

#: Default virtual nodes per shard: enough for a max/mean key share
#: close to 1 at small fleet sizes (the balance property test's bound).
DEFAULT_VNODES = 64


class HashRing:
    """Consistent hashing over integer shard ids (seeded, deterministic).

    ``seed`` keys every hash, so distinct rings (e.g. the router's and
    a test oracle's) can be compared exactly, and re-seeding yields an
    independent placement without touching the key space.
    """

    def __init__(
        self,
        shard_ids: Iterable[int] = (),
        vnodes: int = DEFAULT_VNODES,
        seed: int = 0xF11C,
    ):
        if vnodes < 1:
            raise ConfigError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self.seed = int(seed)
        self._key = self.seed.to_bytes(8, "little", signed=False)
        from hashlib import blake2b

        self._blake2b = blake2b
        #: Sorted ``(point_hash, shard_id)`` pairs; the shard id breaks
        #: point-hash ties, so iteration order is fully deterministic.
        self._points: List[Tuple[int, int]] = []
        self._shards: set = set()
        for shard_id in shard_ids:
            self.add(shard_id)

    # -- hashing -------------------------------------------------------------

    def _hash(self, data: str) -> int:
        digest = self._blake2b(
            data.encode("utf-8"), digest_size=8, key=self._key
        ).digest()
        return int.from_bytes(digest, "big")

    # -- membership ----------------------------------------------------------

    def add(self, shard_id: int) -> None:
        """Claim ``vnodes`` ring points for ``shard_id``."""
        shard_id = int(shard_id)
        if shard_id < 0:
            raise ConfigError(f"shard ids must be >= 0, got {shard_id}")
        if shard_id in self._shards:
            raise ConfigError(f"shard {shard_id} already on the ring")
        self._shards.add(shard_id)
        for vnode in range(self.vnodes):
            # Namespaced so a vnode point can never collide with a key
            # hash by construction of the preimage.
            point = self._hash(f"s:{shard_id}:{vnode}")
            insort(self._points, (point, shard_id))

    def remove(self, shard_id: int) -> None:
        """Release ``shard_id``'s points (its segments fall clockwise)."""
        shard_id = int(shard_id)
        if shard_id not in self._shards:
            raise ConfigError(f"shard {shard_id} is not on the ring")
        self._shards.remove(shard_id)
        self._points = [p for p in self._points if p[1] != shard_id]

    def __len__(self) -> int:
        return len(self._shards)

    # -- lookup --------------------------------------------------------------

    def lookup(self, key: str) -> int:
        """The shard owning ``key`` (first ring point clockwise)."""
        if not self._points:
            raise ConfigError("lookup on an empty ring")
        point = self._hash(f"k:{key}")
        index = bisect_right(self._points, (point, -1))
        if index == len(self._points):
            index = 0  # wrap past twelve o'clock
        return self._points[index][1]

    def lookup_chain(self, key: str, count: int) -> Tuple[int, ...]:
        """The first ``count`` *distinct* shards clockwise from ``key``.

        Entry 0 is :meth:`lookup`; the rest are the successive distinct
        owners walking the ring — the candidate set for
        power-of-two-choices routing and the failover order when the
        primary is saturated or dead.
        """
        if not self._points:
            raise ConfigError("lookup on an empty ring")
        if count < 1:
            raise ConfigError(f"chain length must be >= 1, got {count}")
        point = self._hash(f"k:{key}")
        start = bisect_right(self._points, (point, -1))
        chain: List[int] = []
        for offset in range(len(self._points)):
            shard = self._points[(start + offset) % len(self._points)][1]
            if shard not in chain:
                chain.append(shard)
                if len(chain) == count:
                    break
        return tuple(chain)
