#!/usr/bin/env python3
"""Anti-tampering: detect and undo a silent modification of archived data.

Section III-B of the paper argues that tampering with an entangled block is
hard to hide: the block's value propagates into ``alpha`` strands, so a silent
modification leaves every entanglement equation it participates in
inconsistent.  This example demonstrates the full loop:

1. archive a document with AE(3,2,5) in an :class:`ArchiveStore`;
2. tamper with one data block directly on its storage location (bypassing the
   API, like an attacker with device access);
3. run the integrity scrubber: the equation checks attribute the tampering to
   the exact block even without consulting the checksum manifest;
4. show what the attacker *would* have had to rewrite to stay hidden (the
   strand suffixes of Sec. III-B), then repair the block from its neighbours.

Run with::

    python examples/anti_tampering.py
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import DataId
from repro.core.parameters import AEParameters
from repro.core.tamper import tamper_cost
from repro.storage.scrub import Scrubber
from repro.system.archive import ArchiveStore


def main() -> None:
    params = AEParameters.triple(s=2, p=5)
    archive = ArchiveStore(params, topology=30, block_size=256, seed=7)

    # ------------------------------------------------------------------
    # 1. Archive a document.
    # ------------------------------------------------------------------
    document = ("Minutes of the standards committee, season 12. "
                "Approved unanimously. " * 120).encode()
    entry = archive.put("minutes.txt", document)
    print(f"archived          : {entry.name} v{entry.version}, "
          f"{entry.length} bytes in {entry.block_count} blocks")
    print(f"digest            : {entry.digest[:16]}...")

    # ------------------------------------------------------------------
    # 2. Tamper with a block behind the system's back.
    # ------------------------------------------------------------------
    victim = entry.data_ids[len(entry.data_ids) // 2]
    cluster = archive.system.cluster
    store = cluster.location(cluster.location_of(victim))
    payload = np.asarray(store.try_get(victim), dtype=np.uint8).copy()
    payload[:16] ^= 0x5A  # flip bytes silently
    store.put(victim, payload)
    print(f"\ntampered block    : {victim!r} (on location {store.location_id})")

    # What would a *careful* attacker have to do to go unnoticed?  Rewrite
    # every parity from the block's position to the end of its alpha strands.
    cost = tamper_cost(archive.system.scheme.lattice, victim.index)
    print(f"to stay hidden    : rewrite {cost.total_parities} parities "
          f"across {params.alpha} strands ({cost.summary()})")

    # ------------------------------------------------------------------
    # 3. Scrub: equation checks pinpoint the tampered block.
    # ------------------------------------------------------------------
    # First without the manifest -- pure entanglement-equation forensics.
    plain_scrubber = Scrubber(
        archive.system.scheme.lattice, cluster, archive.system.block_size, manifest=None
    )
    report = plain_scrubber.scrub()
    print(f"\nscrub (no manifest): {report.summary()}")
    print(f"suspects           : {report.suspects}")
    assert victim in report.suspects

    # With the manifest the verdict is corroborated by the stored fingerprints.
    full_report = archive.scrub()
    print(f"scrub (manifest)   : {full_report.summary()}")

    # ------------------------------------------------------------------
    # 4. Repair the tampered block from consistent neighbours.
    # ------------------------------------------------------------------
    archive.scrubber().repair_suspects(full_report)
    print(f"\nafter repair       : {archive.scrub().summary()}")
    restored = archive.get_verified("minutes.txt")
    print(f"document intact    : {restored == document}")


if __name__ == "__main__":
    main()
