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
