#!/usr/bin/env python3
"""Persistence walkthrough: ingest to disk, "kill" the process, reopen.

This is the runnable version of ``docs/persistence.md``:

1. open a durable service with :func:`repro.open_service`
   (``backend="segment"`` here — an append-only segment log per location) on
   a fresh ``data_dir``;
2. store a document and *close* the service (simulating process exit; the
   manifest is synced after every put, so even a hard kill keeps the
   catalogue);
3. reopen the same root from scratch: placements, documents and the AE
   encoder's strand heads are restored from storage;
4. verify the document byte-exact, run a disaster + repair over the
   reopened blocks, and keep writing — the lattice continues where the
   first process stopped.

Run with::

    python examples/persistence.py
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile

from repro import StorageConfig, open_service


def main() -> None:
    data_dir = tempfile.mkdtemp(prefix="repro-archive-")
    config = StorageConfig(
        scheme="ae-3-2-5",
        backend="segment",
        data_dir=data_dir,
        topology=30,
        block_size=1024,
    )
    payload = random.Random(7).randbytes(200_000)

    # ------------------------------------------------------------------
    # 1-2. First "process": ingest, then die.
    # ------------------------------------------------------------------
    service = open_service(config)
    document = service.put("backup", payload)
    status = service.status()
    print(f"data dir        : {data_dir}")
    print(f"scheme          : {service.scheme.scheme_id} ({service.capabilities.name})")
    print(f"stored          : {document.length} bytes in {document.block_count} data blocks")
    print(f"cluster         : {status.blocks} blocks / {status.locations} locations")
    service.close()
    print("closed          : counters + manifest persisted; process 'exits'\n")

    # ------------------------------------------------------------------
    # 3. Second "process": reopen the same root.
    # ------------------------------------------------------------------
    service = open_service(config)
    print(f"reopened        : {len(service.documents)} document(s), "
          f"{service.status().blocks} blocks re-indexed from the backends")
    assert service.get("backup") == payload
    print("verify          : byte-exact round trip after reopen")

    # ------------------------------------------------------------------
    # 4. The reopened archive is fully operational: disaster, repair, write.
    # ------------------------------------------------------------------
    service.fail_locations(range(5))
    report = service.repair()
    print(f"disaster repair : {report.summary()}")
    assert service.get("backup") == payload
    service.restore_locations()

    more = random.Random(11).randbytes(50_000)
    service.put("more", more)          # AE strands continue where they stopped
    assert service.get("more") == more
    hits, misses = service.status().cache_hits, service.status().cache_misses
    print(f"kept writing    : new document entangled into the reopened lattice")
    print(f"read cache      : {hits} hits / {misses} misses")
    service.close()

    shutil.rmtree(data_dir)
    print("\ndurable archive survived a process exit: OK")


if __name__ == "__main__":
    main()
