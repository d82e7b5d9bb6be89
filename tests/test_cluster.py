"""Tests for the storage cluster."""

from __future__ import annotations

import pytest

from repro.core.blocks import Block, DataId, ParityId
from repro.core.parameters import AEParameters, StrandClass
from repro.exceptions import (
    BlockUnavailableError,
    PlacementError,
    StorageFullError,
    UnknownBlockError,
)
from repro.storage.block_store import BlockStore
from repro.storage.cluster import StorageCluster
from repro.storage.placement import DictionaryPlacement, RandomPlacement


def filled_cluster(locations: int = 10, blocks: int = 40, seed: int = 1) -> StorageCluster:
    cluster = StorageCluster(locations, RandomPlacement(locations, seed=seed))
    for index in range(1, blocks + 1):
        cluster.put_block(Block(DataId(index), bytes([index % 256]) * 8))
    return cluster


class TestPlacementAndLookup:
    def test_put_records_location(self):
        cluster = filled_cluster()
        location = cluster.location_of(DataId(1))
        assert 0 <= location < cluster.location_count
        assert cluster.knows(DataId(1))
        assert cluster.is_available(DataId(1))
        assert cluster.try_get_block(DataId(1)).tolist() == [1] * 8

    def test_explicit_location_overrides_policy(self):
        cluster = StorageCluster(5, RandomPlacement(5))
        cluster.put_block(Block(DataId(1), b"x"), location_id=3)
        assert cluster.location_of(DataId(1)) == 3

    def test_unknown_block(self):
        cluster = filled_cluster()
        with pytest.raises(UnknownBlockError):
            cluster.location_of(DataId(999))
        assert cluster.try_get_block(DataId(999)) is None
        assert not cluster.is_available(DataId(999))

    def test_mismatched_placement_rejected(self):
        with pytest.raises(PlacementError):
            StorageCluster(5, RandomPlacement(6))

    def test_blocks_at_partition_the_directory(self):
        cluster = filled_cluster(locations=4, blocks=30)
        total = sum(len(cluster.blocks_at(loc)) for loc in range(4))
        assert total == 30
        assert len(cluster) == 30


class TestFailures:
    def test_failed_locations_hide_blocks(self):
        cluster = filled_cluster(locations=5, blocks=50)
        cluster.fail_locations([0, 1])
        assert set(cluster.unavailable_locations()) == {0, 1}
        unavailable = cluster.unavailable_blocks()
        assert unavailable
        for block_id in unavailable:
            assert cluster.location_of(block_id) in {0, 1}
            assert cluster.try_get_block(block_id) is None
        cluster.restore_locations()
        assert not cluster.unavailable_blocks()

    def test_wipe_destroys_content(self):
        cluster = filled_cluster(locations=5, blocks=50)
        victim_blocks = cluster.blocks_at(2)
        cluster.wipe_locations([2])
        cluster.restore_locations([2])
        for block_id in victim_blocks:
            assert cluster.try_get_block(block_id) is None

    def test_unavailable_is_the_complement_of_is_available(self):
        """One definition: a block is unavailable when a fetch would fail --
        its location is down *or* came back with an empty disk."""
        cluster = filled_cluster(locations=5, blocks=50)
        wiped, down = set(cluster.blocks_at(2)), set(cluster.blocks_at(4))
        cluster.wipe_locations([2])
        cluster.restore_locations([2])
        cluster.fail_locations([4])
        assert cluster.unavailable_locations() == [4]
        assert wiped and down
        assert cluster.unavailable_blocks() == wiped | down
        assert cluster.unavailable_blocks() == {
            block_id
            for block_id in cluster.block_ids()
            if not cluster.is_available(block_id)
        }
        assert cluster.stats().unavailable_blocks == len(wiped | down)
        # A rebuilt block returns to its assigned, now empty, location.
        block_id = min(wiped)
        assert cluster.relocate_many([(block_id, b"\x07" * 8)], avoid=(4,))[block_id] == 2
        assert cluster.unavailable_blocks() == (wiped | down) - {block_id}

    def test_stats_summary(self):
        cluster = filled_cluster(locations=5, blocks=20)
        cluster.fail_locations([4])
        stats = cluster.stats()
        assert stats.locations == 5
        assert stats.available_locations == 4
        assert stats.blocks == 20
        assert "locations up" in stats.summary()


class TestRelocation:
    def test_relocate_avoids_failed_locations(self):
        cluster = filled_cluster(locations=6, blocks=30)
        cluster.fail_locations([0, 1])
        target = cluster.relocate_many([(DataId(1), b"\x09" * 8)], avoid=(0, 1))[DataId(1)]
        assert target not in {0, 1}
        assert cluster.location_of(DataId(1)) == target
        assert cluster.try_get_block(DataId(1)).tolist() == [9] * 8

    def test_relocate_without_candidates_raises(self):
        cluster = StorageCluster(2, RandomPlacement(2))
        cluster.put_block(Block(DataId(1), b"x"))
        cluster.fail_locations([0, 1])
        with pytest.raises(PlacementError):
            cluster.relocate_many([(DataId(1), b"y")], avoid=())


class TestAddLocation:
    def test_grows_in_place_without_moving_or_forgetting_a_block(self):
        cluster = filled_cluster(locations=4, blocks=30)
        cluster.fail_locations([2])
        before = {b: cluster.location_of(b) for b in cluster.block_ids()}
        down = cluster.unavailable_blocks()
        assert down
        assert cluster.add_location(RandomPlacement(5, seed=1)) == 4
        assert cluster.location_count == 5 and cluster.topology.node_count == 5
        assert {b: cluster.location_of(b) for b in cluster.block_ids()} == before
        assert cluster.unavailable_blocks() == down
        assert cluster.blocks_at(4) == [] and cluster.location(4).available
        # The grown cluster places with the policy it was handed.
        cluster.put_block(Block(DataId(99), b"\x01" * 8), location_id=4)
        assert cluster.try_get_block(DataId(99)).tolist() == [1] * 8

    def test_new_location_is_built_like_the_others(self, tmp_path):
        cluster = StorageCluster(
            2, RandomPlacement(2), capacity_blocks=1, backend="disk", root=str(tmp_path)
        )
        cluster.add_location(RandomPlacement(3))
        store = cluster.location(2)
        assert store.capacity_blocks == 1 and store.backend.persistent
        store.put(DataId(1), b"x" * 8)
        cluster.close()
        assert (tmp_path / "loc-0002").is_dir()

    def test_wrong_size_or_a_site_layout_is_refused(self):
        cluster = filled_cluster(locations=4, blocks=8)
        for count in (4, 6):
            with pytest.raises(PlacementError):
                cluster.add_location(RandomPlacement(count))
        sites = StorageCluster(topology="sites=2,nodes=2")
        with pytest.raises(PlacementError):
            sites.add_location(RandomPlacement(5))
        assert cluster.location_count == 4 and sites.location_count == 4


class TestBulkWriteFanOut:
    """``put_many`` writes location by location, in the order the batch first
    names them.  What a refusing location leaves behind is pinned here as it
    was before the fan-out became one grouping pass (PR 19): earlier
    locations keep and record their blocks, the refusing one and every later
    one hold nothing, and nothing of theirs is recorded."""

    LOCATIONS = (2, 0, 2, 3, 0, 1, 3, 2)

    def batch(self):
        ids = [
            DataId(index) if index % 2 else ParityId(index, StrandClass.HORIZONTAL)
            for index in range(1, len(self.LOCATIONS) + 1)
        ]
        mapping = dict(zip(ids, self.LOCATIONS))
        items = [(block_id, bytes([block_id.index]) * 4) for block_id in ids]
        return mapping, items

    def cluster(self, mapping, **options):
        return StorageCluster(4, DictionaryPlacement(4, mapping), **options)

    def test_groups_per_location_in_batch_order(self):
        mapping, items = self.batch()
        cluster = self.cluster(mapping)
        assert cluster.put_many(iter(items)) == len(items)
        # The directory learns the locations in first-use order, each
        # location's blocks in batch order -- and so does every store.
        assert list(cluster.block_ids()) == [
            block_id for location in (2, 0, 3, 1) for block_id in mapping if mapping[block_id] == location
        ]
        for location in range(4):
            assert list(cluster.location(location).block_ids()) == cluster.blocks_at(location)
            assert cluster.location(location).write_count == self.LOCATIONS.count(location)
        for block_id, payload in items:
            assert cluster.try_get_block(block_id).tobytes() == payload

    def test_a_duplicate_id_keeps_its_first_position_and_last_payload(self):
        mapping, items = self.batch()
        cluster = self.cluster(mapping)
        first = items[0][0]
        assert cluster.put_many(items + [(first, b"\xee" * 4)]) == len(items)
        assert cluster.blocks_at(2)[0] == first
        assert cluster.try_get_block(first).tobytes() == b"\xee" * 4
        assert cluster.location(2).write_count == 3
        assert cluster.stats().bytes_stored == 4 * len(items)

    @pytest.mark.parametrize("refusal", ["down", "full"])
    def test_a_refusing_location_stops_the_batch_where_it_stands(self, refusal):
        mapping, items = self.batch()
        if refusal == "down":
            cluster = self.cluster(mapping)
            cluster.fail_locations([3])
            error = BlockUnavailableError
        else:
            # Location 3 is asked for two blocks and has room for one.
            cluster = self.cluster(mapping, capacity_blocks=3)
            cluster.put_block(Block(DataId(90), b"old!"), location_id=3)
            cluster.put_block(Block(DataId(91), b"old!"), location_id=3)
            error = StorageFullError
        before = set(cluster.block_ids())
        with pytest.raises(error):
            cluster.put_many(items)
        written = [block_id for block_id in mapping if mapping[block_id] in (2, 0)]
        assert set(cluster.block_ids()) - before == set(written)
        for block_id in written:
            assert cluster.location_of(block_id) == mapping[block_id]
            assert cluster.location(mapping[block_id]).contains(block_id)
        for block_id in mapping:
            if block_id not in written:
                assert not cluster.knows(block_id)
                assert not any(store.contains(block_id) for store in cluster.locations())
        assert cluster.location(1).write_count == 0
        assert cluster.stats().bytes_stored == 4 * len(written) + 4 * len(before)


class TestBulkDelete:
    """``delete_blocks`` groups the ids per location: one
    :meth:`BlockStore.delete_many` each, and a location's directory entries
    go only after its store accepted the batch, as writes are recorded."""

    @staticmethod
    def stored():
        """The fan-out tests' batch, stored: locations 2, 0, 3, 1 in that order."""
        layout = TestBulkWriteFanOut()
        mapping, items = layout.batch()
        cluster = layout.cluster(mapping)
        cluster.put_many(items)
        return mapping, cluster

    def test_one_delete_many_per_location(self, monkeypatch):
        mapping, cluster = self.stored()
        batches = []
        delete_many = BlockStore.delete_many

        def spy(store, block_ids):
            batches.append((store.location_id, list(block_ids)))
            return delete_many(store, block_ids)

        monkeypatch.setattr(BlockStore, "delete_many", spy)
        doomed = list(mapping)[:6] + [DataId(99), list(mapping)[0]]
        assert cluster.delete_blocks(iter(doomed)) == 6
        assert batches == [
            (location, [b for b in list(mapping)[:6] if mapping[b] == location])
            for location in (2, 0, 3, 1)
        ]
        assert set(cluster.block_ids()) == set(list(mapping)[6:])
        assert cluster.stats().bytes_stored == 4 * 2

    def test_a_failed_location_is_reclaimed_too(self):
        mapping, cluster = self.stored()
        cluster.fail_locations([2])
        assert cluster.delete_blocks(mapping) == len(mapping)
        assert cluster.location(2).block_count == 0 and len(cluster) == 0

    def test_a_refusing_store_keeps_its_directory_entries(self, monkeypatch):
        mapping, cluster = self.stored()
        delete_many = BlockStore.delete_many

        def refuse_location_3(store, block_ids):
            if store.location_id == 3:
                raise OSError("EIO")
            return delete_many(store, block_ids)

        monkeypatch.setattr(BlockStore, "delete_many", refuse_location_3)
        with pytest.raises(OSError):
            cluster.delete_blocks(mapping)
        # Locations 2 and 0 came first and are gone; 3 refused; 1 was never asked.
        assert set(cluster.block_ids()) == {b for b in mapping if mapping[b] in (3, 1)}
        for block_id in cluster.block_ids():
            assert cluster.location(mapping[block_id]).contains(block_id)

    def test_delete_block_is_the_same_path(self):
        mapping, cluster = self.stored()
        first = next(iter(mapping))
        assert cluster.delete_block(first) == mapping[first]
        assert not cluster.knows(first) and not cluster.location(mapping[first]).contains(first)
        with pytest.raises(UnknownBlockError):
            cluster.delete_block(first)

    def test_restore_reclaims_stale_copies_in_one_batch(self, monkeypatch):
        mapping, cluster = self.stored()
        cluster.fail_locations([2])
        stale = cluster.blocks_at(2)
        cluster.relocate_many(
            [(block_id, cluster.location(2)._backend.get(block_id)) for block_id in stale],
            avoid=[2],
        )
        batches = []
        delete_many = BlockStore.delete_many
        monkeypatch.setattr(
            BlockStore,
            "delete_many",
            lambda store, ids: (batches.append(list(ids)), delete_many(store, batches[-1]))[1],
        )
        cluster.restore_locations([2])
        assert batches == [stale]
        assert cluster.location(2).block_count == 0
