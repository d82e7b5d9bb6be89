"""Tests for entangled mirror arrays and RAID-AE (Sec. IV-B)."""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.analysis.reliability import open_chain_survives
from repro.core.blocks import DataId
from repro.core.parameters import AEParameters
from repro.exceptions import BlockSizeMismatchError, InvalidParametersError, RepairFailedError
from repro.system.raid import EntangledMirrorArray, RAIDAEArray

from tests.conftest import make_payload


def _mirror(length: int) -> Tuple[EntangledMirrorArray, List[DataId]]:
    """An entangled mirror of four drive pairs holding ``length`` 16-byte blocks."""
    array = EntangledMirrorArray(4, block_size=16)
    return array, [array.write(make_payload(index, 16)) for index in range(length)]


class TestEntangledMirrorArray:
    """The mirror is RAID-AE over AE(1): disk ``2i`` is data drive ``i`` and
    disk ``2i + 1`` parity drive ``i``, ``d_k`` / ``p_k`` on drive
    ``(k - 1) mod pairs``."""

    def test_overhead_equals_mirroring(self):
        array, ids = _mirror(12)
        assert array.disk_count == 8 and array.params == AEParameters.single()
        assert len(array.cluster) == 2 * len(ids)  # one parity per data block
        assert [len(array.cluster.blocks_at(disk)) for disk in range(8)] == [3] * 8

    def test_full_partition_layout(self):
        array, ids = _mirror(10)
        for data_id in ids:
            data_drive = (data_id.index - 1) % 4
            assert array.cluster.location_of(data_id) == 2 * data_drive
            (parity,) = array.lattice.output_parities(data_id.index)
            assert array.cluster.location_of(parity) == 2 * data_drive + 1

    def test_single_failures_always_recoverable(self):
        for disk in range(8):
            array, ids = _mirror(10)
            array.fail_disk(disk)
            for index, data_id in enumerate(ids):
                assert bytes(array.read(data_id)) == make_payload(index, 16)
            assert array.rebuild().data_loss == 0

    def test_single_data_drive_failure_is_survivable(self):
        array, ids = _mirror(16)
        array.fail_disk(2 * 2)
        assert bytes(array.read(ids[2])) == make_payload(2, 16)
        report = array.rebuild()
        assert report.data_loss == 0 and not report.unrecovered

    def test_primitive_form_is_fatal_for_open_chain(self):
        """Two adjacent data drives plus the parity drive between them
        (``d1, p1, d2`` for a one-block-per-drive chain) cannot be repaired."""
        array, ids = _mirror(4)
        for disk in (0, 1, 2):
            array.fail_disk(disk)
        assert array.rebuild().data_loss == 2
        assert not open_chain_survives({0, 1, 2}, 4)

    def test_data_parity_pair_in_the_middle_is_survivable(self):
        array, ids = _mirror(10)
        array.fail_disk(2 * 2)
        array.fail_disk(2 * 2 + 1)
        assert array.rebuild().data_loss == 0
        for index, data_id in enumerate(ids):
            assert bytes(array.read(data_id)) == make_payload(index, 16)

    def test_open_chain_extremity_is_weak(self):
        """Losing the drives of the tail block and its parity loses the tail
        (the motivation for closed chains, Sec. IV-B1; the closed chain is
        ``closed_chain_survives``, checked in ``test_analysis_misc``)."""
        array, ids = _mirror(8)
        array.fail_disk(2 * 3)
        array.fail_disk(2 * 3 + 1)
        report = array.rebuild()
        assert report.data_loss == 1 and ids[-1] in report.unrecovered
        assert bytes(array.read(ids[3])) == make_payload(3, 16)  # d4 came back
        with pytest.raises(RepairFailedError):
            array.read(ids[-1])

    def test_matching_data_and_parity_drive_failure_loses_data(self):
        array, _ = _mirror(16)
        for disk in (2, 3, 4, 5):  # data and parity drives 1 and 2
            array.fail_disk(disk)
        assert array.rebuild().data_loss > 0

    def test_mixed_block_sizes_rejected(self):
        array, _ = _mirror(1)
        with pytest.raises(BlockSizeMismatchError):
            array.write(b"y" * 17)

    def test_invalid_configuration(self):
        with pytest.raises(InvalidParametersError):
            EntangledMirrorArray(0)


def _device_writes(raid: RAIDAEArray) -> int:
    """Blocks written to the array's disks so far, as the disks count them."""
    return sum(disk.write_count for disk in raid.cluster.locations())


class TestRAIDAE:
    @pytest.mark.parametrize(
        "params", [AEParameters.single(), AEParameters(2, 2, 5), AEParameters(3, 2, 5)],
        ids=str,
    )
    def test_each_write_costs_alpha_plus_one_device_writes(self, params):
        """The write penalty of Sec. IV-B2, measured at the disks: one data
        block and its ``alpha`` parities per logical write."""
        raid = RAIDAEArray(params, disk_count=8, block_size=32)
        for index in range(20):
            before = _device_writes(raid)
            raid.write(make_payload(index, 32))
            assert _device_writes(raid) - before == params.alpha + 1

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
            block_id: bytes(raid.cluster.try_get_many([block_id])[0])
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
            assert bytes(raid.cluster.try_get_many([block_id])[0]) == payload

    def test_a_single_disk_rebuild_reads_at_most_two_blocks_per_block(self):
        """Each lost block is one XOR of a pair (Sec. IV-B2): a rebuild
        writes the blocks it repaired and reads at most two per block."""
        raid = RAIDAEArray(AEParameters.triple(2, 5), disk_count=8, block_size=32)
        for index in range(48):
            raid.write(make_payload(index, 32))
        raid.fail_disk(2)
        before = _device_writes(raid)
        report = raid.rebuild()
        assert report.data_loss == 0 and report.repaired_count == 24
        assert _device_writes(raid) - before == report.repaired_count
        assert 0 < report.blocks_read <= 2 * report.repaired_count

    @pytest.mark.parametrize(
        "params", [AEParameters.single(), AEParameters(2, 2, 5), AEParameters(3, 2, 5)],
        ids=str,
    )
    def test_every_single_disk_rebuild_repairs_what_the_disk_held(self, params):
        """Whichever disk fails, the rebuild restores exactly the blocks it
        held, one device write each, at most two reads per block."""
        for disk in range(8):
            raid = RAIDAEArray(params, disk_count=8, block_size=32)
            for index in range(48):
                raid.write(make_payload(index, 32))
            held = len(raid.cluster.blocks_at(disk))
            raid.fail_disk(disk)
            before = _device_writes(raid)
            report = raid.rebuild()
            assert report.data_loss == 0 and not report.unrecovered
            assert report.repaired_count == held == 48 * (params.alpha + 1) // 8
            assert _device_writes(raid) - before == held
            assert held <= report.blocks_read <= 2 * held

    def test_add_disk_writes_and_moves_nothing(self):
        raid = RAIDAEArray(AEParameters.triple(2, 5), disk_count=8, block_size=32)
        for index in range(24):
            raid.write(make_payload(index, 32))
        cluster = raid.cluster
        where = {block_id: cluster.location_of(block_id) for block_id in cluster.block_ids()}
        before = _device_writes(raid)
        raid.add_disk()
        assert _device_writes(raid) == before
        assert {block_id: cluster.location_of(block_id) for block_id in where} == where
