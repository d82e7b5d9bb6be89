"""Section V-C "Block Placements": placement skew of random placement, plus
balance gates for the topology-aware ``weighted`` and ``spread-domains``
policies of the placement registry."""

from __future__ import annotations

import numpy as np

from repro.core.blocks import DataId, ParityId
from repro.core.parameters import AEParameters
from repro.simulation.experiments import placement_balance_report
from repro.simulation.metrics import format_table
from repro.storage import placement as placement_registry
from repro.storage.placement import domain_balance, placement_balance
from repro.storage.topology import Topology, TopologyBuilder


def test_placement_balance(benchmark, experiment_config, print_tables):
    rows = benchmark.pedantic(
        placement_balance_report, args=(experiment_config,), rounds=1, iterations=1
    )
    rs_row = rows[0]
    # With n = 100 locations only a minority of RS(10,4) stripes spread their
    # 14 blocks over 14 distinct locations (the paper reports 38,429/100,000).
    spread_fraction = rs_row["stripes fully spread"] / rs_row["stripes"]
    assert 0.30 < spread_fraction < 0.48
    if print_tables:
        print("\nPlacement balance (random placement, n = 100)\n" + format_table(rows))


def _ae_blocks(count: int, params: AEParameters):
    blocks = []
    for index in range(1, count + 1):
        blocks.append(DataId(index))
        blocks.extend(ParityId(index, cls) for cls in params.strand_classes)
    return blocks


def test_weighted_placement_balance(benchmark, print_tables):
    """Blocks land proportionally to per-node capacity weights."""
    topology = (
        TopologyBuilder()
        .site("a").rack("r").nodes(4, capacity=1.0)
        .site("b").rack("r").nodes(4, capacity=2.0)
        .site("c").rack("r").nodes(2, capacity=4.0)
        .build()
    )
    params = AEParameters.triple(2, 5)
    policy = placement_registry.get("weighted", topology, params=params, seed=11)
    blocks = _ae_blocks(5_000, params)
    counts = benchmark.pedantic(
        placement_balance, args=(policy, blocks), rounds=1, iterations=1
    )
    capacities = topology.capacities()
    expected = capacities / capacities.sum() * len(blocks)
    # Every node stays within 15% of its capacity-proportional share.
    relative_error = np.abs(counts - expected) / expected
    assert counts.sum() == len(blocks)
    assert float(relative_error.max()) < 0.15, relative_error
    if print_tables:
        rows = [
            {
                "node": node.name,
                "capacity": node.capacity,
                "expected": round(float(expected[node.node_id]), 1),
                "placed": int(counts[node.node_id]),
            }
            for node in topology.nodes
        ]
        print("\nWeighted placement balance\n" + format_table(rows))


def test_spread_domains_placement_balance(benchmark, print_tables):
    """Domains fill evenly and no repair group collapses into one domain."""
    topology = Topology.parse("sites=5,racks=2,nodes=2")
    params = AEParameters.triple(2, 5)
    policy = placement_registry.get("spread-domains", topology, params=params)
    blocks = _ae_blocks(5_000, params)
    per_site = benchmark.pedantic(
        domain_balance, args=(policy, blocks), kwargs={"level": "site"},
        rounds=1, iterations=1,
    )
    # alpha+1 = 4 lanes rotate over 5 sites: per-site shares stay within 5%
    # of uniform for a large population.
    expected = len(blocks) / topology.site_count
    assert per_site.sum() == len(blocks)
    assert float(np.abs(per_site - expected).max()) / expected < 0.05
    # The spread invariant: a data block never shares a site with any of its
    # alpha parities.
    for index in range(1, 500):
        data_location, *parity_locations = policy.locations_for(
            [DataId(index)] + [ParityId(index, cls) for cls in params.strand_classes]
        )
        data_site = topology.domain_of(data_location, "site")
        for location in parity_locations:
            assert topology.domain_of(location, "site") != data_site
    if print_tables:
        rows = [
            {"site": label, "blocks": int(count)}
            for label, count in zip(topology.domain_labels("site"), per_site)
        ]
        print("\nSpread-domains per-site balance\n" + format_table(rows))
