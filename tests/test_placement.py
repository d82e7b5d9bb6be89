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
    _lattice_lane,
    placement_balance,
)
from repro.storage.topology import Topology

from tests.test_placement_golden import uneven_topology


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
        assert one.locations_for(ids) == two.locations_for(ids)
        assert one.locations_for(ids) != other.locations_for(ids)

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
        seen = set(
            policy.locations_for(
                [
                    DataId(1),
                    ParityId(1, StrandClass.HORIZONTAL),
                    ParityId(1, StrandClass.RIGHT_HANDED),
                    ParityId(1, StrandClass.LEFT_HANDED),
                    DataId(2),
                ]
            )
        )
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
        data_location, *parity_locations = policy.locations_for(
            [DataId(index)] + [ParityId(index, cls) for cls in params.strand_classes]
        )
        assert data_location not in parity_locations

    def test_small_cluster_falls_back_to_hashing(self):
        params = AEParameters.triple(2, 5)
        policy = StrandAwarePlacement(3, params)
        locations = set(policy.locations_for([DataId(i) for i in range(1, 30)]))
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
    """``locations_for`` places a block where it places it alone, for every
    registered policy: the cluster places a whole batch, and relocation
    re-places a part of one against the locations that batch was given."""

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
    def test_a_batch_places_each_block_as_a_batch_of_one(
        self, name, sites, racks, nodes, seed, alpha, ids
    ):
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
        assert bulk == [policy.locations_for([block_id])[0] for block_id in ids]
        assert all(0 <= location < policy.location_count for location in bulk)
        assert policy.locations_for([]) == []


_levels = st.sampled_from([None, "site", "rack", "node"])


MASK64 = (1 << 64) - 1


def mix64(z):
    """SplitMix64's finaliser, written out over Python ints."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


def spread_reference(topology, level, alpha, seed, block_id):
    """Where ``spread-domains`` puts one block, id by id and domain by
    domain: the spot ``group + lane`` picks the domain, and the SplitMix64
    draw of the seeded ``spot << 20 | code`` key, compared in 32-bit fixed
    point against the domain's cumulative capacity shares, picks the node."""
    domains = topology.domains(level)
    count = len(domains)
    if isinstance(block_id, DataId):
        spot, code = block_id.index - 1, 0
    elif isinstance(block_id, ParityId):
        lane = STRAND_CLASS_ORDER.index(block_id.strand_class)
        spot, code = block_id.index - 1 + 1 + lane % alpha, 1 + lane
    elif isinstance(block_id, StripeBlockId):
        spot, code = block_id.stripe + block_id.position, (1 << 19) + block_id.position
    else:
        group, lane = _lattice_lane(block_id, alpha)
        spot, code = group + lane, len(STRAND_CLASS_ORDER) + 1
    if not -(1 << 63) <= spot << 20 < 1 << 63:  # folded: same domain
        spot %= count << 20
    key = (spot << 20 | code) & MASK64
    draw = mix64(key ^ mix64((seed + 0x9E3779B97F4A7C15) & MASK64)) >> 32
    members = domains[spot % count]
    capacities = [float(topology.capacities()[node]) for node in members]
    total, running = sum(capacities), 0.0
    for node, capacity in zip(members, capacities):
        running += capacity
        if draw < int(running / total * 2.0**32):
            return node
    return members[-1]


_spread_topologies = st.one_of(
    st.builds(
        lambda sites, racks, nodes: Topology.parse(f"sites={sites},racks={racks},nodes={nodes}"),
        st.integers(1, 5),
        st.integers(1, 3),
        st.integers(1, 3),
    ),
    st.just(uneven_topology()),
)
_huge = st.integers(min_value=2**43 - 2, max_value=2**70)
_spread_ids = st.lists(
    st.one_of(_any_id, st.builds(DataId, _huge), st.builds(StripeBlockId, _huge, st.integers(0, 13))),
    max_size=40,
)


class TestSpreadDraw:
    """``spread-domains`` places a batch in one numpy pass: each location is
    the per-id reference, whatever batch the id arrives in."""

    @given(
        topology=_spread_topologies,
        level=_levels,
        alpha=st.integers(1, 3),
        seed=st.integers(0, 2**64 - 1),
        ids=_spread_ids,
    )
    @settings(max_examples=80, deadline=None)
    def test_the_draw_is_the_per_id_reference(self, topology, level, alpha, seed, ids):
        params = AEParameters.single() if alpha == 1 else AEParameters(alpha, 2, 5)
        policy = placement.get("spread-domains", topology, params=params, seed=seed, level=level)
        assert policy.locations_for(ids) == [
            spread_reference(topology, policy.spread_level(), alpha, seed, block_id)
            for block_id in ids
        ]

    @given(
        topology=_spread_topologies,
        level=_levels,
        seed=st.integers(0, 2**64 - 1),
        ids=_spread_ids,
        cuts=st.lists(st.integers(0, 40), max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_a_batch_is_the_concatenation_of_any_split(self, topology, level, seed, ids, cuts):
        policy = placement.get(
            "spread-domains", topology, params=AEParameters(3, 2, 5), seed=seed, level=level
        )
        whole = policy.locations_for(ids)
        bounds = [0] + sorted(min(cut, len(ids)) for cut in cuts) + [len(ids)]
        parts = [policy.locations_for(ids[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        assert whole == [location for part in parts for location in part]
        assert whole == [policy.locations_for([block_id])[0] for block_id in ids]
        # A function of each id alone: reversed and repeated, the same places.
        assert policy.locations_for(ids[::-1] + ids) == whole[::-1] + whole
        assert policy.locations_for([]) == [] == policy.domains_for([])
        domain_of = topology.location_domains(policy.spread_level())
        assert policy.domains_for(ids) == [domain_of[location] for location in whole]


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
        assert policy.locations_for([DataId(1)]) == [2]
        policy.record(DataId(2), 3)
        assert policy.locations_for([DataId(2), DataId(1)]) == [3, 2]
        with pytest.raises(PlacementError):
            policy.locations_for([DataId(1), DataId(9)])
        with pytest.raises(PlacementError):
            policy.record(DataId(3), 9)

    def test_describe(self):
        assert "4" in RandomPlacement(4).describe()
