"""Property tests (hypothesis) for the cluster tier's consistent-hash
ring: the three contracts the docstring of :mod:`repro.cluster.ring`
promises — balance, seeded determinism, and minimal disruption on
membership change."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.core.errors import ConfigError

#: Fixed key population for ownership maps: big enough for share
#: statistics, small enough to keep hypothesis examples fast.
KEYS = [f"conn-{i}" for i in range(2000)]

shard_sets = st.sets(st.integers(0, 63), min_size=1, max_size=8)
seeds = st.integers(0, 2**32 - 1)


def owners(ring):
    return {key: ring.lookup(key) for key in KEYS}


class TestBalance:
    @given(
        n_shards=st.integers(2, 8),
        vnodes=st.integers(64, 192),
        seed=seeds,
    )
    @settings(max_examples=25, deadline=None)
    def test_max_share_bounded(self, n_shards, vnodes, seed):
        """With >= 64 vnodes every shard's key share stays within a
        small constant of the 1/N mean — the property that makes pure
        hash placement usable at all."""
        ring = HashRing(range(n_shards), vnodes=vnodes, seed=seed)
        counts = {shard: 0 for shard in range(n_shards)}
        for key in KEYS:
            counts[ring.lookup(key)] += 1
        mean = len(KEYS) / n_shards
        assert max(counts.values()) <= 2.0 * mean
        # No shard starves either (every member owns a real share).
        assert min(counts.values()) > 0

    def test_every_shard_owns_points(self):
        ring = HashRing(range(8))
        seen = {ring.lookup(key) for key in KEYS}
        assert seen == set(range(8))


class TestDeterminism:
    @given(shard_ids=shard_sets, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_same_seed_same_placement(self, shard_ids, seed):
        """Two rings with the same membership and seed agree on every
        key — across processes too, since nothing feeds ``hash()``."""
        a = HashRing(sorted(shard_ids), seed=seed)
        b = HashRing(sorted(shard_ids), seed=seed)
        assert owners(a) == owners(b)

    @given(shard_ids=shard_sets, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_insertion_order_irrelevant(self, shard_ids, seed):
        """Membership is a set: the order shards joined in never
        changes placement (ring points are globally sorted)."""
        forward = HashRing(sorted(shard_ids), seed=seed)
        backward = HashRing(sorted(shard_ids, reverse=True), seed=seed)
        assert owners(forward) == owners(backward)

    def test_seed_changes_placement(self):
        a = HashRing(range(4), seed=1)
        b = HashRing(range(4), seed=2)
        assert owners(a) != owners(b)

    def test_pinned_lookups(self):
        """Golden placements: a refactor that silently changes hashing
        would re-home every live deployment's keys."""
        ring = HashRing(range(4))
        assert [ring.lookup(f"conn-{i}") for i in range(8)] == [
            1, 0, 1, 0, 1, 3, 0, 3,
        ]
        assert ring.lookup_chain("conn-0", 4) == (1, 0, 3, 2)


class TestMinimalDisruption:
    @given(n_shards=st.integers(1, 7), seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_join_only_claims(self, n_shards, seed):
        """Adding a shard moves keys ONLY onto the new shard; every
        key that stays put keeps its old owner."""
        ring = HashRing(range(n_shards), seed=seed)
        before = owners(ring)
        ring.add(n_shards)
        after = owners(ring)
        moved = {k for k in KEYS if before[k] != after[k]}
        assert all(after[k] == n_shards for k in moved)
        # The newcomer takes roughly its fair share, not the world.
        assert len(moved) <= 2.0 * len(KEYS) / (n_shards + 1)

    @given(
        shard_ids=st.sets(st.integers(0, 15), min_size=2, max_size=8),
        seed=seeds,
    )
    @settings(max_examples=25, deadline=None)
    def test_leave_only_rehomes_the_dead(self, shard_ids, seed):
        """Removing a shard re-homes exactly the keys it owned —
        survivors' keys never shuffle among themselves."""
        ring = HashRing(sorted(shard_ids), seed=seed)
        victim = min(shard_ids)
        before = owners(ring)
        ring.remove(victim)
        after = owners(ring)
        for key in KEYS:
            if before[key] != victim:
                assert after[key] == before[key]
            else:
                assert after[key] != victim

    @given(n_shards=st.integers(2, 6), seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_join_then_leave_roundtrips(self, n_shards, seed):
        ring = HashRing(range(n_shards), seed=seed)
        before = owners(ring)
        ring.add(n_shards)
        ring.remove(n_shards)
        assert owners(ring) == before


class TestMembershipApi:
    def test_duplicate_add_rejected(self):
        ring = HashRing([0, 1])
        with pytest.raises(ConfigError, match="already on the ring"):
            ring.add(1)

    def test_remove_missing_rejected(self):
        ring = HashRing([0])
        with pytest.raises(ConfigError, match="not on the ring"):
            ring.remove(3)

    def test_negative_shard_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            HashRing([-1])

    def test_empty_ring_lookup_rejected(self):
        with pytest.raises(ConfigError, match="empty ring"):
            HashRing().lookup("x")
        with pytest.raises(ConfigError, match="empty ring"):
            HashRing().lookup_chain("x", 1)

    def test_bad_vnodes_rejected(self):
        with pytest.raises(ConfigError, match="vnodes"):
            HashRing(vnodes=0)

    def test_len_and_members(self):
        ring = HashRing([0, 2])
        assert len(ring) == 2
        assert sorted(ring.lookup_chain("k", 3)) == [0, 2]
        assert ring.vnodes == DEFAULT_VNODES

    def test_chain_distinct_and_capped(self):
        ring = HashRing(range(3))
        chain = ring.lookup_chain("key", 3)
        assert len(chain) == len(set(chain)) == 3
        # Asking for more shards than exist returns them all, once.
        assert sorted(ring.lookup_chain("key", 99)) == [0, 1, 2]
        with pytest.raises(ConfigError, match="chain length"):
            ring.lookup_chain("key", 0)
