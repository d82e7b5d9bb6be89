#!/usr/bin/env python3
"""Use case 1 (paper, Sec. IV-A): a geo-replicated cooperative backup network.

A small community of twelve nodes shares storage: every user keeps their own
files locally and uploads entanglement parities to the other nodes.  The
script walks through the paper's failure-mode narrative (Fig. 5, Table III):

* three storage nodes become unavailable at once;
* one user additionally loses their local disk;
* the user restores every file from the surviving remote parities;
* the lattices damaged by the outage are regenerated, parity by parity,
  following the five steps of Table III.

It then rebuilds the community as an explicit *geo topology* (three sites of
four nodes, ``Topology.parse("sites=3,racks=2,nodes=2")``) and stores a
backup under the ``spread-domains`` placement policy, so that an entire site
going dark -- the correlated failure the anonymous-locations model cannot
even express -- is survived and repaired with every rebuilt block re-placed
outside the dead site (see ``docs/topology.md``).

Run with::

    python examples/geo_backup.py
"""

from __future__ import annotations

from repro.core.parameters import AEParameters
from repro.simulation.workload import document_bytes, mixed_file_sizes
from repro.system.backup import CooperativeBackupNetwork
from repro.system.service import StorageConfig, StorageService


def main() -> None:
    params = AEParameters.triple(5, 5)  # the AE(3,5,5) lattice of Fig. 4
    network = CooperativeBackupNetwork(node_count=12, params=params, block_size=1024)
    print(f"cooperative backup network: 12 nodes, per-user lattices, {params.spec()}\n")

    # ------------------------------------------------------------------
    # 1. Two users back up a handful of files each.
    # ------------------------------------------------------------------
    files = {}
    for user_node, user_seed in ((0, 10), (1, 20)):
        for file_index, size in enumerate(mixed_file_sizes(4, median_kib=16, seed=user_seed)):
            name = f"user{user_node}-file{file_index}"
            payload = document_bytes(size, seed=user_seed + file_index)
            network.backup(user_node, name, payload)
            files[(user_node, name)] = payload
    for node_id in (0, 1):
        lattice = network.lattice_of(node_id)
        print(f"node {node_id}: {lattice.describe()}")

    # ------------------------------------------------------------------
    # 2. Disaster: three remote nodes leave, and node 0 loses its disk.
    # ------------------------------------------------------------------
    network.fail_nodes([4, 5, 6])
    network.node(0).lose_local_data()
    print("\nfailure mode: nodes 4, 5, 6 unavailable; node 0 lost its local data")
    degraded = network.redundancy_report(0)
    print(
        f"node 0 lattice degradation: {degraded.complete} blocks fully protected, "
        f"{degraded.missing_one_tuple} missing one pp-tuple, "
        f"{degraded.missing_two_tuples} missing two, "
        f"{degraded.missing_three_tuples} missing three"
    )

    # ------------------------------------------------------------------
    # 3. The user restores every file from the surviving parities.
    # ------------------------------------------------------------------
    for (node_id, name), payload in files.items():
        if node_id != 0:
            continue
        recovered = network.restore_file(node_id, name)
        assert recovered == payload
        print(f"restored {name}: {len(recovered)} bytes, intact")

    # ------------------------------------------------------------------
    # 4. Repair the lattice parities hosted on the failed nodes (Table III).
    # ------------------------------------------------------------------
    traces = network.repair_lattice(0)
    repaired = [trace for trace in traces if trace.succeeded]
    print(f"\nregenerated {len(repaired)}/{len(traces)} parities hosted on failed nodes")
    if repaired:
        print("Table III walkthrough for the first regenerated parity:")
        for step in repaired[0].steps:
            print(f"  {step}")

    healthy_again = network.redundancy_report(0)
    print(
        f"\nafter repairs: {healthy_again.complete} blocks fully protected, "
        f"{healthy_again.degraded_blocks()} still degraded"
    )

    # ------------------------------------------------------------------
    # 5. The same community as an explicit geo topology: three sites of
    #    two racks, spread-domains placement, and a full-site disaster.
    # ------------------------------------------------------------------
    service = StorageService.open(
        StorageConfig(
            scheme="ae-3-2-5",
            topology="sites=3,racks=2,nodes=2",
            placement="spread-domains",
            block_size=1024,
        )
    )
    print(f"\ngeo topology: {service.topology.describe()}")
    archive = document_bytes(48 * 1024, seed=99)
    service.put("community-archive", archive)
    print(f"stored archive: {service.cluster.stats().summary()}")

    failed_site = service.topology.locations_for_target("site:0")
    service.fail_locations(failed_site)
    report = service.repair()
    print(f"site-0 disaster ({len(failed_site)} nodes): {report.summary()}")
    assert service.get("community-archive") == archive
    relocated_sites = {
        service.topology.site_of(service.cluster.location_of(block_id))
        for block_id in report.repaired
    }
    print(
        "archive intact after losing an entire site; rebuilt blocks live on "
        + ", ".join(sorted(relocated_sites))
    )


if __name__ == "__main__":
    main()
