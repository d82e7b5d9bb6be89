"""Property-style tests for the consistent-hash ShardRing.

The two properties that make consistent hashing the right routing layer for
the sharded namespace (docs/sharding.md):

* **balance** -- with vnode weighting every shard owns close to ``1/M`` of
  the key space, for every fleet size the federation tests use;
* **minimal movement** -- adding or removing one shard moves only the ring
  delta (about ``1/(M+1)`` of the keys on a join), and *never* reassigns a
  key between two surviving shards.

Plus the digest convention shared with :mod:`repro.system.keys` and the
membership/validation edge cases.
"""

from __future__ import annotations

import collections
import hashlib

import pytest

from repro.exceptions import PlacementError
from repro.system.sharding import DEFAULT_VNODES, ShardRing

KEYS = [f"doc-{index:05d}" for index in range(4000)]

FLEET_SIZES = [2, 4, 8, 16]


class TestBalance:
    @pytest.mark.parametrize("shard_count", FLEET_SIZES)
    def test_every_shard_owns_a_fair_share(self, shard_count):
        """Each shard's share of 4000 keys stays within 50% of ideal."""
        ring = ShardRing(range(shard_count))
        counts = collections.Counter(ring.shard_for(key) for key in KEYS)
        ideal = len(KEYS) / shard_count
        for shard_id in range(shard_count):
            share = counts.get(shard_id, 0) / ideal
            assert 0.5 <= share <= 1.5, (
                f"shard {shard_id} of {shard_count} owns {share:.2f}x ideal"
            )

    def test_more_vnodes_tighten_the_balance(self):
        """The vnode knob works: 64 vnodes beat 4 on worst-case share."""

        def worst_share(vnodes: int) -> float:
            ring = ShardRing(range(8), vnodes=vnodes)
            counts = collections.Counter(ring.shard_for(key) for key in KEYS)
            ideal = len(KEYS) / 8
            return max(
                abs(counts.get(shard, 0) / ideal - 1.0) for shard in range(8)
            )

        assert worst_share(DEFAULT_VNODES) < worst_share(4)

    def test_routing_is_deterministic_across_instances(self):
        one = ShardRing([0, 1, 2, 3])
        two = ShardRing([3, 2, 1, 0])  # order must not matter
        for key in KEYS[:500]:
            assert one.shard_for(key) == two.shard_for(key)


class TestMinimalMovement:
    @pytest.mark.parametrize("shard_count", FLEET_SIZES)
    def test_join_moves_only_the_ring_delta(self, shard_count):
        ring = ShardRing(range(shard_count))
        grown = ring.with_shard(shard_count)
        moved = 0
        for key in KEYS:
            before, after = ring.shard_for(key), grown.shard_for(key)
            if before != after:
                moved += 1
                # A key never migrates between two surviving shards.
                assert after == shard_count, (
                    f"{key} moved {before} -> {after} on a join of "
                    f"{shard_count}"
                )
        fraction = moved / len(KEYS)
        assert 0 < fraction <= 1.5 / (shard_count + 1)

    @pytest.mark.parametrize("shard_count", FLEET_SIZES)
    def test_leave_moves_only_the_departing_shards_keys(self, shard_count):
        ring = ShardRing(range(shard_count + 1))
        victim = shard_count // 2
        shrunk = ring.without_shard(victim)
        for key in KEYS:
            before, after = ring.shard_for(key), shrunk.shard_for(key)
            if before == victim:
                assert after != victim
            else:
                # Keys of surviving shards are untouched.
                assert after == before

    def test_join_then_leave_round_trips(self):
        ring = ShardRing([0, 1, 2])
        assert ring.with_shard(3).without_shard(3).assignment(KEYS[:200]) == (
            ring.assignment(KEYS[:200])
        )


class TestDigestConvention:
    def test_digest_index_is_the_keys_convention(self):
        """location_for_key is a thin shim over ShardRing.digest_index."""
        from repro.core.blocks import DataId
        from repro.system.keys import derive_key, location_for_key

        for index in range(1, 100):
            key = derive_key("alice", DataId(index))
            assert location_for_key(key, 13) == ShardRing.digest_index(
                key.digest, 13
            )
            assert ShardRing.digest_index(key.digest, 13) == (
                int(key.digest[:12], 16) % 13
            )

    def test_digest_index_requires_positive_count(self):
        with pytest.raises(PlacementError):
            ShardRing.digest_index("ff" * 32, 0)

    def test_key_point_is_a_sha256_prefix(self):
        import hashlib

        digest = hashlib.sha256(b"doc-1").hexdigest()
        assert ShardRing.key_point("doc-1") == int(digest[:16], 16)


#: 1 000 keys, a fifth of them non-ASCII, and their ring points, recorded on
#: the ring that parsed the hex digest (before ``key_point`` read the raw
#: digest): the SHA-256 of the points as 8-byte big-endian words, four of
#: them by value, and how a two-shard ring splits the keys.
GOLDEN_KEYS = [f"doc-{i}" if i % 5 else f"名前-{i}/ü" for i in range(1000)]
GOLDEN_POINTS_SHA256 = "91eb28e844065b718c6da7f9494d0a81e8eef071597639f9e9e46d25a63c2a12"
GOLDEN_POINTS = {
    0: 2893999199045453283,
    1: 13478797910862173401,
    5: 7275961492044851433,
    999: 7174637847808779441,
}


class TestKeyPointGolden:
    def test_key_points_are_as_recorded(self):
        points = [ShardRing.key_point(key) for key in GOLDEN_KEYS]
        assert {i: points[i] for i in GOLDEN_POINTS} == GOLDEN_POINTS
        words = b"".join(point.to_bytes(8, "big") for point in points)
        assert hashlib.sha256(words).hexdigest() == GOLDEN_POINTS_SHA256
        counts = collections.Counter(map(ShardRing([0, 1]).shard_for, GOLDEN_KEYS))
        assert counts == {0: 503, 1: 497}


class TestMembershipAndValidation:
    def test_introspection(self):
        ring = ShardRing([4, 1, 2], vnodes=8)
        assert ring.shard_ids == (1, 2, 4)
        assert ring.shard_count == 3
        assert ring.vnodes == 8
        assert 2 in ring and 3 not in ring

    def test_rejects_bad_construction(self):
        with pytest.raises(PlacementError):
            ShardRing([])
        with pytest.raises(PlacementError):
            ShardRing([0, 0, 1])
        with pytest.raises(PlacementError):
            ShardRing([-1, 0])
        with pytest.raises(PlacementError):
            ShardRing([0], vnodes=0)

    def test_rejects_bad_membership_changes(self):
        ring = ShardRing([0, 1])
        with pytest.raises(PlacementError):
            ring.with_shard(1)
        with pytest.raises(PlacementError):
            ring.without_shard(7)
        with pytest.raises(PlacementError):
            ShardRing([0]).without_shard(0)

    def test_membership_changes_do_not_mutate(self):
        ring = ShardRing([0, 1])
        ring.with_shard(2)
        ring.without_shard(1)
        assert ring.shard_ids == (0, 1)
