#!/usr/bin/env python3
"""Archive maintenance: versioning, disasters, scrubbing and analytic reliability.

A long-term archive is not a single write -- it is years of maintenance.
This example runs one maintenance cycle end to end on an
:class:`~repro.system.archive.ArchiveStore`:

1. archive several versions of a growing dataset;
2. lose a fifth of the storage locations and repair the lattice;
3. scrub: every entanglement equation and write-time fingerprint holds;
4. compare the repair traffic this cycle would cost under AE(3,2,5) versus
   RS codes of the same overhead;
5. close with the analytic (Markov) view: how rare data loss becomes when
   this maintenance loop runs on schedule.

Run with::

    python examples/archive_maintenance.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.markov import HOURS_PER_YEAR, five_year_loss_table, kofn_chain, mttdl
from repro.analysis.repair_cost import disaster_traffic_table
from repro.core.parameters import AEParameters
from repro.simulation.metrics import format_table
from repro.storage.maintenance import MaintenancePolicy
from repro.system.archive import ArchiveStore


def dataset(version: int) -> bytes:
    rng = np.random.default_rng(1000 + version)
    return rng.integers(0, 256, size=20_000 + 5_000 * version, dtype=np.uint8).tobytes()


def main() -> None:
    params = AEParameters.triple(s=2, p=5)
    archive = ArchiveStore(params, topology=50, block_size=1024, seed=11)

    # ------------------------------------------------------------------
    # 1. Three snapshots of the same dataset: the lattice only ever grows.
    # ------------------------------------------------------------------
    for version in range(1, 4):
        entry = archive.put("measurements.bin", dataset(version))
        print(f"archived v{entry.version}: {entry.length} bytes "
              f"({entry.block_count} blocks, digest {entry.digest[:12]}...)")
    print(f"\n{archive.status_summary()}")

    # ------------------------------------------------------------------
    # 2. Disaster: 10 of the 50 locations fail; repair relocates the blocks.
    # ------------------------------------------------------------------
    failed = archive.system.cluster.available_locations()[:10]
    archive.fail_locations(failed)
    report = archive.repair(policy=MaintenancePolicy.FULL)
    print(f"\ndisaster repair    : {report.summary()}")
    print(f"all versions intact: {all(archive.verify('measurements.bin', v) for v in (1, 2, 3))}")

    # ------------------------------------------------------------------
    # 3. Integrity scrub.
    # ------------------------------------------------------------------
    scrub = archive.scrub()
    print(f"integrity scrub    : {scrub.summary()}")
    assert scrub.clean

    # ------------------------------------------------------------------
    # 4. What did this repair cycle cost, and what would RS have cost?
    # ------------------------------------------------------------------
    missing = report.repaired_count
    rows = disaster_traffic_table(
        [params, "rs-4-12", "rs-10-4"], missing_blocks=missing, block_size=1024
    )
    print("\nrepair traffic for this cycle")
    print(format_table(rows))

    # ------------------------------------------------------------------
    # 5. The analytic long view.
    # ------------------------------------------------------------------
    print("\nanalytic reliability (Markov models, 50k-hour MTTF, 1-week MTTR)")
    print(format_table(five_year_loss_table(50_000.0, 168.0, 10)))
    rs = kofn_chain(4, 12, 50_000.0, 168.0)
    print(f"for reference, a single RS(4,12) stripe has an MTTDL of "
          f"{mttdl(rs) / HOURS_PER_YEAR:.1e} years")


if __name__ == "__main__":
    main()
