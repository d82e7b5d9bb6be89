#!/usr/bin/env python3
"""Anti-tampering: detect and undo a silent modification of archived data.

Section III-B of the paper argues that tampering with an entangled block is
hard to hide: the block's value propagates into ``alpha`` strands, so a silent
modification leaves every entanglement equation it participates in
inconsistent.  This example demonstrates the full loop:

1. archive a document with AE(3,2,5) in an :class:`ArchiveStore`;
2. tamper with one data block directly on its storage location (bypassing the
   API, like an attacker with device access);
3. scrub the service: the equation pass attributes the tampering to the exact
   block without any stored checksum, and the block is rewritten from its
   untouched neighbours;
4. show what the attacker *would* have had to rewrite to stay hidden (the
   strand suffixes of Sec. III-B);
5. the single-chain case: under AE(1) a tampered parity breaks two
   equations, and only the parity -- never the two data blocks it sits
   between -- is rewritten.

Run with::

    python examples/anti_tampering.py
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import ParityId
from repro.core.parameters import AEParameters, StrandClass
from repro.core.tamper import tamper_cost
from repro.system.archive import ArchiveStore
from repro.system.service import StorageConfig, StorageService


def flip(service: StorageService, block_id: object) -> None:
    """Flip the first byte of a stored block behind the service's back."""
    cluster = service.cluster
    store = cluster.location(cluster.location_of(block_id))
    payload = np.asarray(store.try_get(block_id), dtype=np.uint8).copy()
    payload[0] ^= 0xFF
    store.put(block_id, payload)


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
    flip(archive.system, victim)
    print(f"\ntampered block    : {victim!r} "
          f"(on location {archive.system.cluster.location_of(victim)})")

    # ------------------------------------------------------------------
    # 3. Scrub: the equations pinpoint the block, and it is rewritten.
    # ------------------------------------------------------------------
    report = archive.system.scrub()  # equations only, no stored checksum
    print(f"scrub             : {report.summary()}")
    print(f"violated          : {report.violated}")
    assert report.suspects == report.repaired == [victim]
    assert archive.scrub().clean  # the write-time fingerprints agree
    print(f"document intact   : {archive.get_verified('minutes.txt') == document}")

    # ------------------------------------------------------------------
    # 4. What would a *careful* attacker have to do to go unnoticed?
    # ------------------------------------------------------------------
    cost = tamper_cost(archive.system.scheme.lattice, victim.index)
    print(f"to stay hidden    : rewrite {cost.total_parities} parities "
          f"across {params.alpha} strands ({cost.summary()})")

    # ------------------------------------------------------------------
    # 5. A single chain: the tampered parity, and only it, is rewritten.
    # ------------------------------------------------------------------
    chain = StorageService.open(StorageConfig(scheme="ae-1", topology=20, block_size=64))
    data = np.random.default_rng(0).integers(0, 256, size=30 * 64, dtype=np.uint8).tobytes()
    chain.put("doc", data)
    parity = ParityId(10, StrandClass.HORIZONTAL)
    flip(chain, parity)
    report = chain.scrub()
    print(f"\nae-1, {parity!r} tampered: {report.summary()}")
    assert report.violated == [parity, ParityId(11, StrandClass.HORIZONTAL)]
    assert report.suspects == report.repaired == [parity]
    assert chain.get("doc") == data and chain.scrub().clean
    print("ae-1 chain intact : True")


if __name__ == "__main__":
    main()
