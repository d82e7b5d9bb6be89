#!/usr/bin/env python3
"""Use case 2 (paper, Sec. IV-B): entangled mirrors and RAID-AE disk arrays.

The script demonstrates the two array organisations:

* an **entangled mirror** (simple entanglement, AE(1)) with the same storage
  overhead as mirroring but far better survivability, including the
  open-vs-closed chain difference at the extremities;
* a **RAID-AE** array protected by AE(3,2,5): never-ending stripe, two-block
  single-failure rebuilds, degraded reads through alternative lattice paths
  and online growth (adding a disk without re-encoding).

Run with::

    python examples/raid_ae.py
"""

from __future__ import annotations

from repro.core.parameters import AEParameters
from repro.simulation.workload import document_bytes
from repro.system.raid import EntangledMirrorArray, RAIDAEArray, SimpleEntanglementChain


def entangled_mirror_demo() -> None:
    print("== entangled mirror (AE(1), same overhead as mirroring) ==")
    array = EntangledMirrorArray(drive_pairs=5)
    blocks = [document_bytes(4096, seed=index) for index in range(20)]
    for block in blocks:
        array.write(block)
    print(f"array: {array.drive_count} drives, overhead {array.storage_overhead:.0%}")

    array.fail_drives(data_drives=[1], parity_drives=[3])
    print("failed: data drive 1 and parity drive 3")
    print(f"all data still recoverable: {array.data_survives()}")
    recovered = array.read(1)
    assert bytes(recovered) == blocks[1]
    print("read of block 1 (on the failed drive) served through the chain\n")

    # Open vs closed chains: the weakness at the extremity (Sec. IV-B1).
    open_chain, closed_chain = SimpleEntanglementChain(False), SimpleEntanglementChain(True)
    for index in range(8):
        payload = document_bytes(1024, seed=100 + index)
        open_chain.append(payload)
        closed_chain.append(payload)
    tail_failure = {"d7", "p7"}
    print("losing the last data block and its parity:")
    print(f"  open chain survives  : {open_chain.survives(tail_failure)}")
    print(f"  closed chain survives: {closed_chain.survives(tail_failure)}\n")


def raid_ae_demo() -> None:
    print("== RAID-AE (AE(3,2,5) over 8 disks) ==")
    raid = RAIDAEArray(AEParameters.triple(2, 5), disk_count=8, block_size=4096)
    payloads = [document_bytes(4096, seed=1000 + index) for index in range(48)]
    ids = [raid.write(payload) for payload in payloads]
    print(f"wrote {len(ids)} blocks; write penalty = {raid.write_penalty} device writes per block")

    raid.fail_disk(2)
    print("disk 2 failed: serving degraded reads through alternative lattice paths")
    for index in (2, 10, 26):
        assert bytes(raid.read(ids[index])) == payloads[index]
    print("degraded reads OK")

    report = raid.rebuild()
    print(
        f"rebuild: {report.repaired_count} blocks restored in {report.rounds} round(s), "
        f"{report.blocks_read} block reads, data loss = {report.data_loss}"
    )
    estimate = raid.rebuild_cost_estimate(report.repaired_count)
    print(f"analytic rebuild cost: {estimate['blocks_read']} reads "
          f"(2 per block, vs k per block for RS)")

    new_disk = raid.add_disk()
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
