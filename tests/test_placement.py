"""Tests for placement policies."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blocks import DataId, ParityId
from repro.core.parameters import AEParameters, STRAND_CLASS_ORDER, StrandClass
from repro.exceptions import PlacementError
from repro.schemes.stripe import StripeBlockId
from repro.storage import placement
from repro.storage.cluster import StorageCluster
from repro.storage.placement import (
    DictionaryPlacement,
    RandomPlacement,
    RoundRobinPlacement,
    StrandAwarePlacement,
    placement_balance,
)
from repro.storage.topology import Topology


def all_blocks(count: int, params: AEParameters):
    blocks = []
    for index in range(1, count + 1):
        blocks.append(DataId(index))
        blocks.extend(ParityId(index, cls) for cls in params.strand_classes)
    return blocks


class TestRandomPlacement:
    def test_deterministic_given_seed(self):
        one = RandomPlacement(50, seed=7)
        two = RandomPlacement(50, seed=7)
        other = RandomPlacement(50, seed=8)
        ids = all_blocks(100, AEParameters.triple(2, 5))
        assert [one.location_for(b) for b in ids] == [two.location_for(b) for b in ids]
        assert [one.location_for(b) for b in ids] != [other.location_for(b) for b in ids]

    def test_locations_in_range_and_roughly_balanced(self):
        policy = RandomPlacement(20, seed=3)
        ids = all_blocks(500, AEParameters.triple(2, 5))
        counts = placement_balance(policy, ids)
        assert counts.sum() == len(ids)
        assert counts.min() > 0
        # Uniform expectation is 100 blocks per location; allow generous slack.
        assert counts.max() < 200

    def test_requires_at_least_one_location(self):
        with pytest.raises(PlacementError):
            RandomPlacement(0)


class TestRoundRobinPlacement:
    def test_consecutive_blocks_use_different_locations(self):
        params = AEParameters.triple(2, 5)
        policy = RoundRobinPlacement(40, params)
        seen = {
            policy.location_for(DataId(1)),
            policy.location_for(ParityId(1, StrandClass.HORIZONTAL)),
            policy.location_for(ParityId(1, StrandClass.RIGHT_HANDED)),
            policy.location_for(ParityId(1, StrandClass.LEFT_HANDED)),
            policy.location_for(DataId(2)),
        }
        assert len(seen) == 5


class TestStrandAwarePlacement:
    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_block_never_collides_with_its_repair_tuple(self, index):
        """A data block and the parities of each of its pp-tuples are spread
        over distinct locations, so one location failure never removes a block
        and its cheapest repair path."""
        params = AEParameters.triple(2, 5)
        policy = StrandAwarePlacement(24, params)
        data_location = policy.location_for(DataId(index))
        for cls in params.strand_classes:
            assert policy.location_for(ParityId(index, cls)) != data_location

    def test_small_cluster_falls_back_to_hashing(self):
        params = AEParameters.triple(2, 5)
        policy = StrandAwarePlacement(3, params)
        locations = {policy.location_for(DataId(i)) for i in range(1, 30)}
        assert locations <= {0, 1, 2}


@dataclass(frozen=True)
class OpaqueId:
    """An id type no policy knows: only its ``repr`` can place it."""

    name: str


_indices = st.integers(min_value=1, max_value=10**6)
_any_id = st.one_of(
    st.builds(DataId, _indices),
    st.builds(ParityId, _indices, st.sampled_from(STRAND_CLASS_ORDER)),
    st.builds(StripeBlockId, st.integers(0, 10**5), st.integers(0, 13)),
    st.builds(OpaqueId, st.text(max_size=8)),
)


class TestBulkPlacement:
    """``locations_for`` is ``location_for``, element by element, for every
    registered policy -- the cluster places with one and re-places with the
    other."""

    @pytest.mark.parametrize("name", placement.available())
    @given(
        sites=st.integers(1, 5),
        racks=st.integers(1, 3),
        nodes=st.integers(1, 4),
        seed=st.integers(0, 2**64 - 1),
        alpha=st.integers(1, 3),
        ids=st.lists(_any_id, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_bulk_is_elementwise_per_block(self, name, sites, racks, nodes, seed, alpha, ids):
        params = AEParameters.single() if alpha == 1 else AEParameters(alpha, 2, 5)
        topology = Topology.parse(f"sites={sites},racks={racks},nodes={nodes}")
        policy = placement.get(name, topology, params=params, seed=seed)
        if name == "strand-aware":
            # The AE-only policy: it has lanes for the lattice's blocks alone.
            ids = [
                block_id
                for block_id in ids
                if isinstance(block_id, DataId)
                or (
                    isinstance(block_id, ParityId)
                    and block_id.strand_class in params.strand_classes
                )
            ]
        bulk = policy.locations_for(ids)
        assert bulk == [policy.location_for(block_id) for block_id in ids]
        assert all(0 <= location < policy.location_count for location in bulk)
        assert policy.locations_for([]) == []


def spread_rank(block_id, domain, alpha, domain_count):
    """The per-(block, domain) rule ``SpreadDomainsPlacement`` ranks by: the
    ``alpha + 1`` domains an AE group spans from ``index - 1`` rank worse."""
    width = alpha + 1
    if not isinstance(block_id, (DataId, ParityId)) or width >= domain_count:
        return 0
    return 1 if (domain - block_id.index + 1) % domain_count < width else 0


def owner_home_rank(block_id, domain, home):
    """``OwnerHomePlacement``'s rule: data ranks home best, parities worst."""
    return int((domain == home) != isinstance(block_id, DataId))


_levels = st.sampled_from([None, "site", "rack", "node"])


class TestBulkRelocationContract:
    """The bulk methods ``StorageCluster`` re-places through:
    ``relocation_ranks`` is the per-domain rule row by row, with one shared
    row per repair-group class, and ``domains_for`` is the domain of
    ``locations_for``."""

    @given(
        sites=st.integers(1, 6),
        racks=st.integers(1, 3),
        nodes=st.integers(1, 3),
        level=_levels,
        alpha=st.integers(1, 3),
        ids=st.lists(_any_id, max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_spread_rows_are_the_per_domain_rule(self, sites, racks, nodes, level, alpha, ids):
        params = AEParameters.single() if alpha == 1 else AEParameters(alpha, 2, 5)
        topology = Topology.parse(f"sites={sites},racks={racks},nodes={nodes}")
        policy = placement.get("spread-domains", topology, params=params, level=level)
        domain_count = len(topology.domains(policy.spread_level()))
        rows = policy.relocation_ranks(ids)
        expected = [
            tuple(spread_rank(block_id, domain, alpha, domain_count) for domain in range(domain_count))
            for block_id in ids
        ]
        if rows is None:  # no spare domain: every rank is the same
            assert all(not any(row) for row in expected)
        else:
            assert rows == expected
            # One row object per group class: D lattice rows and the zero row.
            assert len({id(row) for row in rows}) <= domain_count + 1

    @given(
        node_count=st.integers(2, 12),
        home=st.integers(0, 11),
        ids=st.lists(_any_id.filter(lambda b: isinstance(b, (DataId, ParityId))), max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_owner_home_rows_are_the_per_domain_rule(self, node_count, home, ids):
        from repro.system.backup import OwnerHomePlacement

        home %= node_count
        policy = OwnerHomePlacement(f"node-{home}", home, node_count)
        rows = policy.relocation_ranks(ids)
        assert rows == [
            tuple(owner_home_rank(block_id, node, home) for node in range(node_count))
            for block_id in ids
        ]
        assert len({id(row) for row in rows}) <= 2

    def test_the_base_policy_ranks_nothing_and_reports_no_domains(self):
        policy = RandomPlacement(Topology.parse("sites=3,nodes=2"))
        ids = [DataId(1), ParityId(1, StrandClass.HORIZONTAL)]
        assert policy.relocation_ranks(ids) is None
        assert policy.domains_for(ids) is None

    @pytest.mark.parametrize("name", placement.available())
    @given(
        sites=st.integers(1, 5),
        racks=st.integers(1, 3),
        nodes=st.integers(1, 3),
        level=_levels,
        seed=st.integers(0, 2**64 - 1),
        ids=st.lists(_any_id, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_reported_domains_are_those_of_the_drawn_locations(
        self, name, sites, racks, nodes, level, seed, ids
    ):
        params = AEParameters(3, 2, 5)
        topology = Topology.parse(f"sites={sites},racks={racks},nodes={nodes}")
        policy = placement.get(name, topology, params=params, seed=seed, level=level)
        if name == "strand-aware":
            ids = [block_id for block_id in ids if isinstance(block_id, (DataId, ParityId))]
        domains = policy.domains_for(ids)
        if name == "spread-domains":
            assert domains is not None
        if domains is not None:
            level_of = policy.spread_level()
            assert domains == [
                topology.domain_of(location, level_of) for location in policy.locations_for(ids)
            ]

    def test_the_cluster_draws_no_block_of_a_failed_domain(self):
        params = AEParameters(2, 2, 5)
        policy = placement.get("spread-domains", "sites=7,nodes=2", params=params, seed=3)
        cluster = StorageCluster(placement=policy)
        ids = all_blocks(70, params)
        cluster.put_many((block_id, b"x") for block_id in ids)
        failed = cluster.topology.locations_for_target("site:0")
        lost = [block_id for block_id in ids if cluster.location_of(block_id) in failed]
        cluster.fail_locations(failed)
        drawn = []
        original = policy.locations_for

        def recording(block_ids):
            drawn.extend(block_ids)
            return original(block_ids)

        policy.locations_for = recording
        moved = cluster.relocate_many(((block_id, b"x") for block_id in lost), avoid=failed)
        assert lost and drawn == []
        assert not set(moved.values()) & set(failed)


class TestDictionaryPlacement:
    def test_explicit_mapping(self):
        policy = DictionaryPlacement(4, {DataId(1): 2})
        assert policy.location_for(DataId(1)) == 2
        policy.record(DataId(2), 3)
        assert policy.location_for(DataId(2)) == 3
        with pytest.raises(PlacementError):
            policy.location_for(DataId(9))
        with pytest.raises(PlacementError):
            policy.record(DataId(3), 9)

    def test_describe(self):
        assert "4" in RandomPlacement(4).describe()
