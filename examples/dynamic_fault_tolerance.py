#!/usr/bin/env python3
"""Dynamic fault tolerance: raising alpha without re-encoding the archive.

One of the distinguishing properties of entanglement codes (paper, Sec. I and
III-B) is that reliability requirements can change after the fact: an archive
encoded with AE(2,2,5) can later be upgraded to AE(3,2,5) by computing only
the new left-handed parities -- no stored block is rewritten.  This script
also shows the anti-tampering property: how many blocks an attacker would
need to rewrite to modify one block silently.

Run with::

    python examples/dynamic_fault_tolerance.py
"""

from __future__ import annotations

from repro import open_service
from repro.core.parameters import AEParameters
from repro.core.tamper import detection_probability, tamper_cost
from repro.simulation.workload import document_bytes


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Archive data with a double entanglement (200% overhead).
    # ------------------------------------------------------------------
    old_params = AEParameters.double(2, 5)
    service = open_service(scheme="ae-2-2-5", topology=50, block_size=1024, seed=4)
    payload = document_bytes(200_000, seed=7)
    service.put("archive-2019", payload)
    lattice = service.scheme.lattice
    print(f"archive encoded with {old_params.spec()}: "
          f"{lattice.size} data blocks, {lattice.parity_count} parities")

    # ------------------------------------------------------------------
    # 2. Years later the archive must tolerate harsher failure scenarios:
    #    raise alpha to 3 on the live service.
    # ------------------------------------------------------------------
    raised = service.transition_to("ae-3-2-5")
    assert raised.data_blocks_rewritten == 0
    assert raised.parities_written == lattice.size  # one new strand class
    print(f"\n{raised.summary()}")
    print(f"computed {raised.parities_written} new parities; existing blocks untouched")

    # ------------------------------------------------------------------
    # 3. The upgraded archive still reads back correctly after a disaster.
    # ------------------------------------------------------------------
    service.fail_locations(range(0, 15))  # 30% of the locations
    assert service.get("archive-2019") == payload
    report = service.repair()
    print(f"after a 30% disaster: data loss = {report.data_loss}, "
          f"{report.repaired_count} blocks repaired in {report.rounds} rounds")

    # ------------------------------------------------------------------
    # 4. Anti-tampering: the price of an undetected modification.
    # ------------------------------------------------------------------
    new_params = service.scheme.params
    lattice = service.scheme.lattice  # the widened lattice, alpha = 3
    victim = lattice.size // 2
    cost = tamper_cost(lattice, victim)
    print(f"\nanti-tampering: {cost.summary()}")
    for audited in (0.05, 0.20, 0.50):
        print(f"  auditing {audited:.0%} of parities detects a naive tamper with "
              f"probability {detection_probability(new_params, audited):.2f}")


if __name__ == "__main__":
    main()
