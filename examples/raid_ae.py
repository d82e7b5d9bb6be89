#!/usr/bin/env python3
"""Use case 2 (paper, Sec. IV-B): entangled mirrors and RAID-AE disk arrays.

The script demonstrates the two array organisations:

* an **entangled mirror** -- RAID-AE over a simple entanglement, AE(1) --
  with the same storage overhead as mirroring but far better survivability,
  and the open-vs-closed chain difference at the extremities (from the
  reliability model's survival predicates);
* a **RAID-AE** array protected by AE(3,2,5): never-ending stripe, two-block
  single-failure rebuilds, degraded reads through alternative lattice paths
  and online growth (adding a disk without re-encoding).

Run with::

    python examples/raid_ae.py
"""

from __future__ import annotations

from repro.analysis.reliability import closed_chain_survives, open_chain_survives
from repro.core.parameters import AEParameters
from repro.simulation.workload import document_bytes
from repro.system.raid import EntangledMirrorArray, RAIDAEArray


def entangled_mirror_demo() -> None:
    print("== entangled mirror (RAID-AE over AE(1), same overhead as mirroring) ==")
    array = EntangledMirrorArray(drive_pairs=5, block_size=4096)
    blocks = [document_bytes(4096, seed=index) for index in range(20)]
    ids = [array.write(block) for block in blocks]
    print(f"array: {array.disk_count} disks, {len(array.cluster)} blocks for {len(ids)} written")

    # Disk 2i is data drive i, disk 2i + 1 parity drive i.
    array.fail_disk(2 * 1)
    array.fail_disk(2 * 3 + 1)
    print("failed: data drive 1 and parity drive 3")
    assert bytes(array.read(ids[1])) == blocks[1]
    print("read of d2 (on failed data drive 1) served through the chain")
    report = array.rebuild()
    assert report.data_loss == 0
    print(f"rebuild: {report.repaired_count} blocks restored, data loss = {report.data_loss}\n")

    # Open vs closed chains: the weakness at the extremity (Sec. IV-B1).
    pairs = 8
    tail_failure = {2 * (pairs - 1), 2 * (pairs - 1) + 1}
    print("losing the last data drive and its parity drive:")
    print(f"  open chain survives  : {open_chain_survives(tail_failure, pairs)}")
    print(f"  closed chain survives: {closed_chain_survives(tail_failure, pairs)}\n")


def device_writes(raid: RAIDAEArray) -> int:
    """Blocks written to the array's disks so far, as the disks count them."""
    return sum(disk.write_count for disk in raid.cluster.locations())


def raid_ae_demo() -> None:
    print("== RAID-AE (AE(3,2,5) over 8 disks) ==")
    raid = RAIDAEArray(AEParameters.triple(2, 5), disk_count=8, block_size=4096)
    payloads = [document_bytes(4096, seed=1000 + index) for index in range(48)]
    ids = [raid.write(payload) for payload in payloads]
    penalty = device_writes(raid) / len(ids)
    assert penalty == raid.params.alpha + 1
    print(f"wrote {len(ids)} blocks; write penalty = {penalty:g} device writes per block")

    raid.fail_disk(2)
    print("disk 2 failed: serving degraded reads through alternative lattice paths")
    for index in (2, 10, 26):
        assert bytes(raid.read(ids[index])) == payloads[index]
    print("degraded reads OK")

    written = device_writes(raid)
    report = raid.rebuild()
    written = device_writes(raid) - written
    assert report.data_loss == 0 and written == report.repaired_count
    assert report.blocks_read <= 2 * report.repaired_count
    print(
        f"rebuild: {report.repaired_count} blocks restored in {report.rounds} round(s), "
        f"{written} device writes, {report.blocks_read} block reads "
        f"(at most 2 per block, vs k per block for RS)"
    )

    written = device_writes(raid)
    new_disk = raid.add_disk()
    assert device_writes(raid) == written
    for index in range(48, 60):
        raid.write(document_bytes(4096, seed=1000 + index))
    print(f"grew the array online to {raid.disk_count} disks; "
          f"new disk {new_disk} now holds {len(raid.cluster.blocks_at(new_disk))} blocks "
          "(no re-encoding of existing data)")


def main() -> None:
    entangled_mirror_demo()
    raid_ae_demo()


if __name__ == "__main__":
    main()
