"""Tests for entangled mirror arrays and RAID-AE (Sec. IV-B)."""

from __future__ import annotations

import pytest

from repro.core.parameters import AEParameters
from repro.exceptions import InvalidParametersError, RepairFailedError
from repro.system.raid import EntangledMirrorArray, RAIDAEArray, SimpleEntanglementChain

from tests.conftest import make_payload


class TestSimpleEntanglementChain:
    def test_single_failures_always_recoverable(self):
        chain = SimpleEntanglementChain()
        for index in range(10):
            chain.append(make_payload(index, 16))
        for position in range(10):
            recovered = chain.recover_data(position, {f"d{position}"})
            assert bytes(recovered) == make_payload(position, 16)

    def test_primitive_form_is_fatal_for_open_chain(self):
        """Two adjacent data blocks plus their shared parity cannot be repaired."""
        chain = SimpleEntanglementChain()
        for index in range(10):
            chain.append(make_payload(index, 16))
        lost = {"d4", "d5", "p4"}
        assert not chain.survives(lost)

    def test_data_parity_pair_in_the_middle_is_survivable(self):
        chain = SimpleEntanglementChain()
        for index in range(10):
            chain.append(make_payload(index, 16))
        assert chain.survives({"d4", "p4"})

    def test_open_chain_extremity_is_weak_closed_chain_is_not(self):
        """Losing the last data block and its parity kills an open chain but
        not a closed one (the motivation for closed chains, Sec. IV-B1)."""
        last = 7
        open_chain = SimpleEntanglementChain(closed=False)
        closed_chain = SimpleEntanglementChain(closed=True)
        for index in range(last + 1):
            open_chain.append(make_payload(index, 16))
            closed_chain.append(make_payload(index, 16))
        lost = {f"d{last}", f"p{last}"}
        assert not open_chain.survives(lost)
        assert closed_chain.survives(lost)

    def test_mixed_block_sizes_rejected(self):
        chain = SimpleEntanglementChain()
        chain.append(b"x" * 8)
        with pytest.raises(InvalidParametersError):
            chain.append(b"y" * 16)


class TestEntangledMirrorArray:
    def test_overhead_equals_mirroring(self):
        array = EntangledMirrorArray(4)
        assert array.storage_overhead == 1.0
        assert array.drive_count == 8

    def test_single_data_drive_failure_is_survivable(self):
        array = EntangledMirrorArray(4)
        for index in range(16):
            array.write(make_payload(index, 16))
        array.fail_drives(data_drives=[2])
        assert array.data_survives()
        assert bytes(array.read(2)) == make_payload(2, 16)

    def test_matching_data_and_parity_drive_failure_loses_data(self):
        array = EntangledMirrorArray(4)
        for index in range(16):
            array.write(make_payload(index, 16))
        array.fail_drives(data_drives=[1, 2], parity_drives=[1, 2])
        assert not array.data_survives()

    def test_invalid_configuration(self):
        with pytest.raises(InvalidParametersError):
            EntangledMirrorArray(0)


class TestRAIDAE:
    def test_write_penalty_is_alpha_plus_one(self):
        raid = RAIDAEArray(AEParameters.triple(2, 2), disk_count=8, block_size=32)
        assert raid.write_penalty == 4

    def test_requires_enough_disks(self):
        with pytest.raises(InvalidParametersError):
            RAIDAEArray(AEParameters.triple(2, 2), disk_count=3)

    def test_degraded_reads_after_disk_failures(self):
        raid = RAIDAEArray(AEParameters.triple(2, 2), disk_count=8, block_size=32)
        ids = [raid.write(make_payload(index, 32)) for index in range(24)]
        raid.fail_disk(0)
        raid.fail_disk(3)
        for index, data_id in enumerate(ids):
            assert bytes(raid.read(data_id)) == make_payload(index, 32)

    def test_rebuild_after_failure(self):
        raid = RAIDAEArray(AEParameters.triple(2, 2), disk_count=8, block_size=32)
        ids = [raid.write(make_payload(index, 32)) for index in range(24)]
        raid.fail_disk(1)
        report = raid.rebuild()
        assert report.data_loss == 0
        assert not report.unrecovered

    def test_add_disk_without_reencoding(self):
        """Horizontal scaling: existing blocks stay where they are."""
        raid = RAIDAEArray(AEParameters.triple(2, 2), disk_count=6, block_size=32)
        ids = [raid.write(make_payload(index, 32)) for index in range(12)]
        before = {data_id: raid.cluster.location_of(data_id) for data_id in ids}
        new_disk = raid.add_disk()
        assert raid.disk_count == 7
        assert new_disk == 6
        for data_id, location in before.items():
            assert raid.cluster.location_of(data_id) == location
        # New writes can use the added disk.
        for index in range(12, 26):
            raid.write(make_payload(index, 32))
        assert raid.cluster.blocks_at(new_disk)

    def test_add_disk_on_a_degraded_array_keeps_the_failed_disk(self):
        """Growing must not copy "what can be read": a failed disk reads
        nothing, and its blocks would leave the directory for good."""
        raid = RAIDAEArray(AEParameters.triple(2, 5), disk_count=8, block_size=64)
        for index in range(40):
            raid.write(make_payload(index, 64))
        stored = {
            block_id: bytes(raid.cluster.try_get_block(block_id))
            for block_id in raid.cluster.block_ids()
        }
        assert len(stored) == 160
        raid.fail_disk(3)
        assert len(raid.cluster.unavailable_blocks()) == 20
        raid.add_disk()
        assert len(raid.cluster) == 160
        assert len(raid.cluster.unavailable_blocks()) == 20
        report = raid.rebuild()
        assert report.repaired_count == 20
        assert report.data_loss == 0 and not report.unrecovered
        assert not raid.cluster.location(3).available
        for block_id, payload in stored.items():
            assert bytes(raid.cluster.try_get_block(block_id)) == payload

    def test_rebuild_cost_estimate_is_two_reads_per_block(self):
        raid = RAIDAEArray(AEParameters.triple(2, 5), disk_count=8, block_size=32)
        estimate = raid.rebuild_cost_estimate(10)
        assert estimate == {"blocks_read": 20, "blocks_written": 10}
