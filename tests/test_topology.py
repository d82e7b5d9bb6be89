"""Tests for the topology model, topology-aware placement and domain-aware repair."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocks import Block, DataId, ParityId
from repro.core.parameters import AEParameters
from repro.exceptions import InvalidParametersError, PlacementError
from repro.schemes.stripe import StripeBlockId
from repro.storage import placement
from repro.storage.cluster import StorageCluster
from repro.storage.failures import disaster_for_target
from repro.storage.placement import (
    RandomPlacement,
    SpreadDomainsPlacement,
    WeightedPlacement,
)
from repro.storage.topology import Topology, TopologyBuilder, TopologyNode
from repro.system.service import StorageConfig, StorageService


class TestTopologyConstruction:
    def test_spec_grammar_builds_a_grid(self):
        topology = Topology.parse("sites=3,racks=2,nodes=4")
        assert topology.node_count == 24
        assert topology.site_count == 3
        assert topology.rack_count == 6
        assert topology.sites == ("site-0", "site-1", "site-2")
        assert topology.site_locations("site-1") == tuple(range(8, 16))
        assert topology.rack_locations(0, 1) == (4, 5, 6, 7)

    def test_spec_defaults_and_bare_int(self):
        assert Topology.parse("sites=3,nodes=4").node_count == 12
        flat = Topology.parse("12")
        assert flat.node_count == 12
        assert flat.is_flat()

    @pytest.mark.parametrize(
        "spec",
        ["", "sites=", "sites=3,bogus=2", "sites=x", "sites=3,sites=4"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(InvalidParametersError):
            Topology.parse(spec)

    def test_builder_assigns_stable_insertion_order_ids(self):
        topology = (
            TopologyBuilder()
            .site("eu").rack("r0").nodes(2)
            .site("us").rack("r0").nodes(2, capacity=2.0)
            .build()
        )
        assert topology.node_count == 4
        assert topology.sites == ("eu", "us")
        assert [node.node_id for node in topology.nodes] == [0, 1, 2, 3]
        assert topology.capacities().tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_node_ids_must_be_consecutive(self):
        with pytest.raises(InvalidParametersError):
            Topology([TopologyNode(1, "s", "r", "n")])

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(InvalidParametersError):
            Topology([TopologyNode(0, "s", "r", "n", capacity=0.0)])


class TestTopologyRoundTrip:
    def test_json_round_trip_is_exact(self):
        topology = (
            TopologyBuilder()
            .site("eu").rack("a").nodes(3).rack("b").nodes(2, capacity=0.5)
            .site("us").rack("a").nodes(4, capacity=2.5)
            .build()
        )
        rebuilt = Topology.from_json(topology.to_json())
        assert rebuilt == topology
        assert rebuilt.capacities().tolist() == topology.capacities().tolist()
        assert rebuilt.domains("rack") == topology.domains("rack")

    def test_save_load_round_trip(self, tmp_path):
        topology = Topology.parse("sites=2,racks=2,nodes=3")
        path = str(tmp_path / "topology.json")
        topology.save(path)
        assert Topology.load(path) == topology
        # Topology.resolve treats .json paths as files, other strings as specs.
        assert Topology.resolve(path) == topology

    def test_malformed_json_rejected(self):
        with pytest.raises(InvalidParametersError):
            Topology.from_json("not json")
        with pytest.raises(InvalidParametersError):
            Topology.from_json('{"nodes": [{"id": "x"}]}')


class TestDomainsAndTargets:
    def test_domain_views_and_labels(self):
        topology = Topology.parse("sites=2,racks=2,nodes=2")
        assert topology.domains("site") == ((0, 1, 2, 3), (4, 5, 6, 7))
        assert len(topology.domains("rack")) == 4
        assert topology.domain_of(5, "site") == 1
        assert topology.domain_labels("rack")[0] == "site-0/rack-0"
        assert topology.default_level() == "site"

    def test_targets_resolve_to_location_sets(self):
        topology = Topology.parse("sites=2,racks=2,nodes=2")
        assert topology.locations_for_target("site:0") == (0, 1, 2, 3)
        assert topology.locations_for_target("site:site-1") == (4, 5, 6, 7)
        assert topology.locations_for_target("rack:1/0") == (4, 5)
        assert topology.locations_for_target("node:7") == (7,)
        for bad in ("site", "site:", "rack:1", "node:x", "zone:0", "site:9"):
            with pytest.raises(InvalidParametersError):
                topology.locations_for_target(bad)

    def test_disaster_for_target(self):
        topology = Topology.parse("sites=3,nodes=4")
        disaster = disaster_for_target(topology, "site:2")
        assert disaster.failed_locations == (8, 9, 10, 11)
        assert disaster.label == "site:2"
        union = disaster_for_target(topology, ["site:0", "node:5"])
        assert union.failed_locations == (0, 1, 2, 3, 5)
        # Whole failure domains at once: the targets name them.
        assert disaster_for_target(topology, ["site:0", "site:2"]).failed_locations == (
            topology.domains("site")[0] + topology.domains("site")[2]
        )


class TestPlacementRegistry:
    def test_registry_resolves_every_policy(self):
        topology = Topology.parse("sites=3,racks=2,nodes=4")
        params = AEParameters.triple(2, 5)
        for name in placement.available():
            policy = placement.get(name, topology, params=params, seed=3)
            assert policy.location_count == 24
            assert policy.topology is topology
            location = policy.location_for(DataId(7))
            assert 0 <= location < 24

    def test_unknown_policy_and_missing_params_raise(self):
        topology = Topology.parse("sites=2,nodes=2")
        with pytest.raises(PlacementError):
            placement.get("nope", topology)
        with pytest.raises(PlacementError):
            placement.get("strand-aware", topology)

    def test_legacy_int_builds_flat_topology(self):
        policy = RandomPlacement(10, seed=1)
        assert policy.topology.is_flat()
        assert policy.location_count == 10


class TestSpreadDomainsPlacement:
    def test_ae_block_never_shares_a_domain_with_its_parities(self):
        topology = Topology.parse("sites=4,racks=2,nodes=3")
        params = AEParameters.triple(2, 5)
        policy = SpreadDomainsPlacement(topology, params=params)
        for index in range(1, 200):
            data_domain = topology.domain_of(policy.location_for(DataId(index)), "site")
            parity_domains = {
                topology.domain_of(
                    policy.location_for(ParityId(index, cls)), "site"
                )
                for cls in params.strand_classes
            }
            assert data_domain not in parity_domains
            assert len(parity_domains) == params.alpha

    def test_stripe_blocks_spread_over_all_domains(self):
        topology = Topology.parse("sites=5,nodes=4")
        policy = SpreadDomainsPlacement(topology)
        for stripe in range(40):
            domains = [
                topology.domain_of(
                    policy.location_for(StripeBlockId(stripe, position)), "site"
                )
                for position in range(5)
            ]
            assert sorted(domains) == [0, 1, 2, 3, 4]

    def test_fewer_domains_than_width_spreads_evenly(self):
        topology = Topology.parse("sites=4,nodes=5")
        policy = SpreadDomainsPlacement(topology)
        # RS(10,4)-shaped stripes: 14 positions over 4 sites -> at most 4
        # blocks per site, so one full-site disaster stays decodable.
        for stripe in range(20):
            per_site = [0, 0, 0, 0]
            for position in range(14):
                location = policy.location_for(StripeBlockId(stripe, position))
                per_site[topology.domain_of(location, "site")] += 1
            assert max(per_site) <= 4

    def test_single_site_topology_spreads_over_racks(self):
        topology = Topology.parse("sites=1,racks=4,nodes=2")
        policy = SpreadDomainsPlacement(topology)
        assert policy.level == "rack"


class TestWeightedPlacement:
    def test_blocks_follow_capacity_weights(self):
        topology = (
            TopologyBuilder()
            .site("a").rack("r").node(capacity=1.0).node(capacity=1.0)
            .site("b").rack("r").node(capacity=4.0)
            .build()
        )
        policy = WeightedPlacement(topology, seed=5)
        counts = [0, 0, 0]
        for index in range(1, 3001):
            counts[policy.location_for(DataId(index))] += 1
        # Node 2 carries 4/6 of the capacity; expect roughly 2000 blocks.
        assert counts[2] > counts[0] + counts[1]
        assert 0.55 < counts[2] / 3000 < 0.78


class TestClusterTopology:
    def test_cluster_adopts_placement_topology(self):
        topology = Topology.parse("sites=2,racks=1,nodes=3")
        cluster = StorageCluster(placement=SpreadDomainsPlacement(topology))
        assert cluster.topology is topology
        assert cluster.location_count == 6

    def test_a_placement_over_another_count_is_rejected(self):
        with pytest.raises(PlacementError):
            StorageCluster("sites=2,nodes=4", RandomPlacement(5))

    def test_a_bare_count_is_the_flat_topology_everywhere(self):
        """``Topology.resolve`` is the one place an int becomes a layout."""
        flat = Topology.flat(6)
        assert Topology.resolve(6) == Topology.resolve(np.int64(6)) == flat
        assert StorageCluster(6).topology == flat
        assert StorageCluster(topology=6).topology == flat
        assert RandomPlacement(6).topology == placement.get("random", 6).topology == flat
        assert RandomPlacement("sites=2,nodes=3").topology.site_count == 2

    def test_stats_surface_per_domain_block_counts(self):
        topology = Topology.parse("sites=2,nodes=3")
        cluster = StorageCluster(placement=SpreadDomainsPlacement(topology))
        for index in range(1, 21):
            cluster.put_block(Block(DataId(index), b"x" * 8))
        stats = cluster.stats()
        assert set(stats.domain_blocks) == {"site-0", "site-1"}
        assert sum(stats.domain_blocks.values()) == 20
        assert "domains:" in stats.summary()
        # Flat clusters keep the historical summary (nothing to break down).
        flat = StorageCluster(4, RandomPlacement(4))
        assert flat.stats().domain_blocks == {}
        assert "domains:" not in flat.stats().summary()


class TestRelocateAvoidList:
    def test_avoid_honoured_even_when_only_avoided_has_capacity(self):
        """The avoid-list is a hard constraint: a location the repair must
        avoid is never used, even when it alone has free capacity."""
        cluster = StorageCluster(3, RandomPlacement(3), capacity_blocks=1)
        cluster.put_block(Block(DataId(1), b"a"), location_id=0)
        cluster.put_block(Block(DataId(2), b"b"), location_id=1)
        # Location 2 is the only one with free capacity -- and it is avoided.
        with pytest.raises(PlacementError):
            cluster.relocate_many([(DataId(3), b"c")], avoid=(2,))

    def test_full_locations_are_skipped(self):
        cluster = StorageCluster(3, RandomPlacement(3), capacity_blocks=1)
        cluster.put_block(Block(DataId(1), b"a"), location_id=0)
        cluster.put_block(Block(DataId(2), b"b"), location_id=1)
        target = cluster.relocate_many([(DataId(3), b"c")], avoid=())[DataId(3)]
        assert target == 2

    def test_relocate_avoids_the_failed_domain(self):
        topology = Topology.parse("sites=3,nodes=4")
        cluster = StorageCluster(placement=SpreadDomainsPlacement(topology))
        cluster.put_block(Block(DataId(1), b"x" * 8), location_id=0)
        failed_site = topology.locations_for_target("site:0")
        cluster.fail_locations(failed_site)
        target = cluster.relocate_many([(DataId(1), b"y" * 8)], avoid=tuple(failed_site))[DataId(1)]
        assert topology.domain_of(target, "site") != 0

    def test_relocate_avoids_down_site_even_with_partial_avoid(self):
        """A single failed node pins its whole domain: the rebuilt copy lands
        outside the failed block's site whenever another site has room."""
        topology = Topology.parse("sites=3,nodes=4")
        cluster = StorageCluster(placement=SpreadDomainsPlacement(topology))
        cluster.put_block(Block(DataId(1), b"x" * 8), location_id=0)
        cluster.fail_locations([0])
        target = cluster.relocate_many([(DataId(1), b"y" * 8)], avoid=(0,))[DataId(1)]
        assert topology.domain_of(target, "site") != 0


class TestGeoScenario:
    """Paper Sec. V-C (correlated failures): a full-site disaster is
    survivable under spread-domains but loses data under round-robin."""

    PAYLOAD = bytes(range(256)) * 256  # 64 KiB -> 16 data blocks at 4 KiB

    def _service(self, policy_name: str) -> StorageService:
        return StorageService.open(
            StorageConfig(
                scheme="ae-1",
                topology="sites=2,nodes=6",
                placement=policy_name,
            )
        )

    def test_spread_domains_survives_a_full_site_disaster(self):
        service = self._service("spread-domains")
        service.put("archive", self.PAYLOAD)
        failed = service.topology.locations_for_target("site:0")
        service.fail_locations(failed)
        report = service.repair()
        assert report.data_loss == 0
        assert not report.unrecovered
        assert service.get("archive") == self.PAYLOAD
        # Repaired blocks were re-placed outside the failed site.
        for block_id in report.repaired:
            location = service.cluster.location_of(block_id)
            assert service.topology.domain_of(location, "site") == 1

    def test_round_robin_loses_data_in_a_full_site_disaster(self):
        service = self._service("round-robin")
        service.put("archive", self.PAYLOAD)
        service.fail_locations(service.topology.locations_for_target("site:0"))
        report = service.repair()
        assert report.data_loss > 0

    def test_spread_invariant_holds_after_relocation(self):
        """Repair re-placement must not collapse a repair group into one
        domain: with a spare site available, a rebuilt block is steered away
        from the sites its group already occupies, so after the dead site is
        restored, a *second* full-site disaster (either remaining site) is
        still survivable."""
        for second_target in ("site:1", "site:2"):
            service = StorageService.open(
                StorageConfig(
                    scheme="ae-1",
                    topology="sites=3,nodes=4",
                    placement="spread-domains",
                )
            )
            service.put("archive", self.PAYLOAD)
            site0 = service.topology.locations_for_target("site:0")
            service.fail_locations(site0)
            first = service.repair()
            assert first.data_loss == 0
            service.restore_locations(site0)
            service.fail_locations(
                service.topology.locations_for_target(second_target)
            )
            second = service.repair()
            assert second.data_loss == 0, second_target
            assert service.get("archive") == self.PAYLOAD

    def test_relocation_prefers_a_spare_domain(self):
        """With more domains than the repair-group width, relocate steers a
        rebuilt AE block into a domain none of its group's lanes map to."""
        from repro.core.blocks import DataId

        topology = Topology.parse("sites=3,nodes=4")
        params = AEParameters.single()  # alpha = 1 -> group width 2
        policy = placement.get("spread-domains", topology, params=params)
        cluster = StorageCluster(placement=policy)
        block_id = DataId(4)  # group 3: lanes map to sites 0 and 1
        assigned = policy.location_for(block_id)
        assert topology.domain_of(assigned, "site") == 0
        cluster.put_block(Block(block_id, b"x" * 8))
        failed = topology.locations_for_target("site:0")
        cluster.fail_locations(failed)
        target = cluster.relocate_many([(block_id, b"y" * 8)], avoid=tuple(failed))[block_id]
        # Site 1 holds the block's parity lane; site 2 is the spare.
        assert topology.domain_of(target, "site") == 2


class TestServiceTopologyPersistence:
    def test_manifest_round_trips_topology_and_placement(self, tmp_path):
        data_dir = str(tmp_path / "svc")
        payload = b"geo-durable payload " * 512
        config = StorageConfig(
            scheme="rs-4-2",
            topology="sites=3,racks=2,nodes=2",
            placement="spread-domains",
            backend="disk",
            data_dir=data_dir,
            block_size=512,
        )
        with StorageService.open(config) as service:
            service.put("doc", payload)
            topology = service.topology
        # Reopen without repeating the topology or the placement: both come
        # back from the manifest.
        with StorageService.open(
            StorageConfig(
                scheme="rs-4-2", backend="disk", data_dir=data_dir, block_size=512
            )
        ) as reopened:
            assert reopened.topology == topology
            assert isinstance(reopened.cluster.placement, SpreadDomainsPlacement)
            assert reopened.get("doc") == payload

    def test_conflicting_topology_on_reopen_rejected(self, tmp_path):
        data_dir = str(tmp_path / "svc")
        with StorageService.open(
            StorageConfig(
                scheme="rs-4-2",
                topology="sites=2,nodes=3",
                backend="disk",
                data_dir=data_dir,
                block_size=512,
            )
        ) as service:
            service.put("doc", b"x" * 2048)
        with pytest.raises(InvalidParametersError):
            StorageService.open(
                StorageConfig(
                    scheme="rs-4-2",
                    topology="sites=3,nodes=2",
                    backend="disk",
                    data_dir=data_dir,
                    block_size=512,
                )
            )
