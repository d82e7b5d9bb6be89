"""Placement policies: mapping blocks to storage locations over a topology.

The paper evaluates random placement explicitly ("blocks are distributed in n
locations using random placements") and discusses a round-robin policy from
earlier work that guarantees neighbouring lattice elements land in different
failure domains (Sec. V-C, "Block Placements").  This module provides both,
plus three topology-aware policies, behind a string-keyed registry::

    from repro.storage import placement
    from repro.storage.topology import Topology

    topology = Topology.parse("sites=3,racks=2,nodes=4")
    policy = placement.get("spread-domains", topology)

Every policy takes a :class:`~repro.storage.topology.Topology`, or anything
:meth:`Topology.resolve <repro.storage.topology.Topology.resolve>` makes one
from (a bare count ``N`` is ``Topology.flat(N)``):

* ``random`` -- uniform hash placement, the paper's simulation setup;
* ``round-robin`` -- consecutive lattice elements on consecutive locations;
* ``strand-aware`` -- an AE block never shares a location with the parities
  of its pp-tuples;
* ``spread-domains`` -- never co-locate a stripe's blocks, or an AE block
  and its alpha parities, in one *failure domain* (site when the topology
  has several sites, else rack), so a whole-domain disaster removes at most
  ``ceil(width / domains)`` blocks of any repair group;
* ``weighted`` -- random placement proportional to per-node capacity
  weights (heterogeneous nodes).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from itertools import repeat
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.blocks import BlockId, DataId, ParityId
from repro.core.parameters import AEParameters, STRAND_CLASS_ORDER, StrandClass
from repro.exceptions import InvalidParametersError, PlacementError
from repro.storage.backends import stripe_block_id_type
from repro.storage.topology import Topology

TopologyLike = Union[Topology, int, str]


def _as_topology(topology: TopologyLike) -> Topology:
    """The topology a policy places over, through :meth:`Topology.resolve`."""
    try:
        resolved = Topology.resolve(topology)
    except InvalidParametersError as exc:
        raise PlacementError(str(exc)) from exc
    if resolved is None:
        raise PlacementError("a placement policy needs a topology")
    return resolved


#: ``draw / _DRAW_SPAN`` turns a :func:`_block_draws` value into [0, 1).
_DRAW_SPAN = float(1 << 64)


#: ``",<class>]"`` -- the tail of a parity id's ``repr`` -- per strand class.
_PARITY_TAIL: Dict[StrandClass, bytes] = {
    strand_class: f",{strand_class.value}]".encode("ascii")
    for strand_class in StrandClass
}


def _block_draws(
    block_ids: Iterable[BlockId], seed: int, salt: bytes = b""
) -> List[int]:
    """One deterministic 64-bit draw per block, derived from its identity.

    The draw is ``blake2b(salt + repr(block_id), key=seed)``; the keyed and
    salted state is built once and copied per block, which is what makes the
    hashing policies batch functions.  The three id kinds of the store spell
    their ``repr`` out of their fields as bytes (``d7``, ``p[7,rh]``,
    ``s[3,11]``) instead of going through ``repr`` -> ``label()`` -> enum
    lookup -> ``encode`` per block; anything else takes ``repr``.
    """
    keyed = hashlib.blake2b(
        salt, key=seed.to_bytes(8, "little", signed=False), digest_size=8
    )
    copy = keyed.copy
    parity_tail = _PARITY_TAIL
    stripe_kind = stripe_block_id_type()
    digests = []
    for block_id in block_ids:
        kind = type(block_id)
        if kind is ParityId:
            identity = b"p[%d" % block_id[0] + parity_tail[block_id[1]]
        elif kind is DataId:
            identity = b"d%d" % block_id
        elif kind is stripe_kind:
            identity = b"s[%d,%d]" % block_id
        else:
            identity = repr(block_id).encode("utf-8")
        state = copy()
        state.update(identity)
        digests.append(state.digest())
    # All digests to integers in one pass: little-endian unsigned 64-bit.
    return np.frombuffer(b"".join(digests), dtype="<u8").tolist()


class PlacementPolicy(ABC):
    """Chooses the storage location of every block.

    Policies are constructed over a :class:`Topology` (or a count, spec
    string or JSON path that resolves to one).
    """

    def __init__(self, topology: TopologyLike) -> None:
        self._topology = _as_topology(topology)
        self._location_count = self._topology.node_count

    @property
    def location_count(self) -> int:
        return self._location_count

    @property
    def topology(self) -> Topology:
        """The topology this policy places over."""
        return self._topology

    @abstractmethod
    def location_for(self, block_id: BlockId) -> int:
        """Location index (0-based) assigned to ``block_id``."""

    def locations_for(self, block_ids: Sequence[BlockId]) -> List[int]:
        """Bulk variant of :meth:`location_for`, one entry per block.

        The default delegates per block.  The hashing policies work the
        other way round: the batch is their unit of work and
        :meth:`location_for` is the one-element batch, so the two cannot
        disagree.  A policy that overrides both must keep them element-wise
        identical -- ``StorageCluster`` places with one and re-places with
        the other.
        """
        location_for = self.location_for
        return [location_for(block_id) for block_id in block_ids]

    def spread_level(self) -> Optional[str]:
        """Failure-domain level this policy actively spreads over, if any.

        Domain-aware repair (``StorageCluster.relocate``) avoids the failed
        block's domain at this level; ``None`` means the policy has no
        domain-spreading contract.
        """
        return None

    def domains_for(self, block_ids: Sequence[BlockId]) -> Optional[List[int]]:
        """``topology.domain_of(location, spread_level())`` of each block's
        :meth:`locations_for` without the draw, for a policy that picks the
        domain first (``None`` otherwise): ``StorageCluster`` then draws only
        the blocks whose domain did not fail.
        """
        return None

    def relocation_ranks(self, block_ids: Sequence[BlockId]) -> Optional[List[Tuple[int, ...]]]:
        """Per block, its preference row (lower is better) over the
        :meth:`spread_level` domains for re-placing it when repair cannot use
        its assigned location; ``None`` ranks every domain the same.

        Policies with a spreading contract rank domains that hold other
        members of the block's repair group *worse*, so a rebuilt block does
        not silently collapse the group into one failure domain.  A row
        belongs to the block's repair-group *class*: blocks of one class share
        one row object, and ``StorageCluster`` filters a pool once per row.
        """
        return None

    def describe(self) -> str:
        return f"{type(self).__name__}(n={self._location_count})"


class RandomPlacement(PlacementPolicy):
    """Uniform random placement, deterministic given the seed.

    This is the policy used for the paper's disaster-recovery simulations;
    the randomness is derived from the block identity so that every component
    (and every rerun) agrees on the mapping.
    """

    def __init__(self, topology: TopologyLike, seed: int = 0) -> None:
        super().__init__(topology)
        self._seed = seed

    def location_for(self, block_id: BlockId) -> int:
        return self.locations_for((block_id,))[0]

    def locations_for(self, block_ids: Sequence[BlockId]) -> List[int]:
        count = self._location_count
        return [draw % count for draw in _block_draws(block_ids, self._seed)]


class RoundRobinPlacement(PlacementPolicy):
    """Round-robin placement by lattice position.

    Data block ``d_i`` goes to location ``i mod n``; the parities created by
    ``d_i`` follow on the next locations.  With ``n`` larger than a lattice
    neighbourhood this guarantees that adjacent lattice elements live in
    different failure domains (the assumption of the paper's earlier
    evaluations) -- but note the guarantee is about *locations*, not sites:
    under a multi-site topology a whole repair neighbourhood can land inside
    one site (see ``spread-domains`` for the domain-level guarantee).
    """

    def __init__(
        self, topology: TopologyLike, params: Optional[AEParameters] = None
    ) -> None:
        super().__init__(topology)
        self._params = params

    def location_for(self, block_id: BlockId) -> int:
        alpha = self._params.alpha if self._params is not None else 3
        stride = alpha + 1
        index, lane = _lattice_lane(block_id, alpha)
        return (index * stride + lane) % self._location_count


class StrandAwarePlacement(PlacementPolicy):
    """Places the blocks a repair needs on distinct locations whenever possible.

    A data block and the two parities of each of its pp-tuples are spread over
    different locations, so a single location failure never removes a block
    *and* its cheapest repair path.  Falls back to hashing when the cluster is
    too small.
    """

    def __init__(
        self, topology: TopologyLike, params: AEParameters, seed: int = 0
    ) -> None:
        super().__init__(topology)
        self._group = params.alpha + 1
        self._strand_classes = params.strand_classes
        self._small_cluster_fallback = (
            RandomPlacement(self.topology, seed)
            if self._location_count < 2 * self._group
            else None
        )

    def location_for(self, block_id: BlockId) -> int:
        if self._small_cluster_fallback is not None:
            return self._small_cluster_fallback.location_for(block_id)
        index = block_id.index
        if isinstance(block_id, DataId):
            lane = 0
        else:
            lane = 1 + self._strand_classes.index(block_id.strand_class)
        # Interleave lanes across the cluster; consecutive lattice positions
        # rotate through location groups so neighbours do not collide.
        group_index = index % (self._location_count // self._group)
        return (group_index * self._group + lane) % self._location_count


#: Lane of a parity within its node's repair group, before the ``% alpha``.
_CLASS_LANE: Dict[StrandClass, int] = {
    strand_class: lane for lane, strand_class in enumerate(STRAND_CLASS_ORDER)
}


def _lattice_lane(block_id: BlockId, alpha: int) -> Tuple[int, int]:
    """(group index, lane) of an AE or stripe block within its repair group.

    AE blocks group by lattice position (data lane 0, one lane per strand
    class); stripe blocks group by stripe (one lane per position).  Anything
    else hashes into a single lane.
    """
    kind = type(block_id)
    if kind is ParityId:
        return block_id[0] - 1, 1 + _CLASS_LANE[block_id[1]] % alpha
    if kind is DataId:
        return block_id[0] - 1, 0
    stripe = getattr(block_id, "stripe", None)
    if stripe is not None:
        return int(stripe), int(block_id.position)
    digest = hashlib.blake2b(repr(block_id).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little"), 0


class SpreadDomainsPlacement(PlacementPolicy):
    """Never co-locate a repair group inside one failure domain.

    The repair group of an AE data block is the block plus its ``alpha``
    parities; the repair group of a stripe code is the whole stripe.  Lanes
    of one group rotate through the topology's failure domains (site level
    when the topology has several sites, else rack level), so:

    * with at least ``group width`` domains, no two blocks of a group share
      a domain -- a full-domain disaster removes at most one of them;
    * with fewer domains, blocks spread as evenly as possible -- a
      full-domain disaster removes at most ``ceil(width / domains)`` group
      members (e.g. RS(10,4) over 4 sites loses at most 4 blocks per stripe
      and stays decodable).

    Inside the chosen domain the concrete node is a deterministic
    capacity-weighted hash of the block identity, so heterogeneous domains
    fill proportionally.
    """

    def __init__(
        self,
        topology: TopologyLike,
        seed: int = 0,
        level: Optional[str] = None,
        params: Optional[AEParameters] = None,
    ) -> None:
        super().__init__(topology)
        self._seed = seed
        self._alpha = params.alpha if params is not None else 3
        self._level = level or self.topology.default_level()
        self._domains = self.topology.domains(self._level)
        capacities = self.topology.capacities()
        # Per domain, what the intra-domain weighted pick needs: the member
        # locations, their cumulative capacity, its total and the last slot.
        self._picks: List[Tuple[Tuple[int, ...], List[float], float, int]] = []
        for members in self._domains:
            cumulative = np.cumsum(capacities[list(members)]).tolist()
            self._picks.append((members, cumulative, cumulative[-1], len(members) - 1))
        self._hashes = any(len(members) > 1 for members in self._domains)
        # Row ``r`` ranks the ``alpha + 1`` domains an AE group at group index
        # ``r`` spans worse; there are no rows while groups span every domain.
        count, width = len(self._domains), self._alpha + 1
        self._rank_rows = (
            [tuple(int((d - r) % count < width) for d in range(count)) for r in range(count)]
            if width < count
            else None
        )

    @property
    def level(self) -> str:
        """The failure-domain granularity the policy spreads over."""
        return self._level

    def spread_level(self) -> Optional[str]:
        return self._level

    def domains_for(self, block_ids: Sequence[BlockId]) -> List[int]:
        alpha = self._alpha
        domain_count = len(self._domains)
        return [
            (group + lane) % domain_count
            for group, lane in [_lattice_lane(block_id, alpha) for block_id in block_ids]
        ]

    def relocation_ranks(self, block_ids: Sequence[BlockId]) -> Optional[List[Tuple[int, ...]]]:
        """Prefer fallback domains no member of the block's group maps to.

        An AE repair group is ``alpha + 1`` lanes wide and occupies that many
        consecutive domains from its group index ``index - 1``
        (:func:`_lattice_lane`); when the topology has spare domains beyond
        that, a rebuilt block is steered into one, so a later disaster of any
        *single* domain still finds the group spread.  Stripe ids get the
        zero row, and with no spare domain there is nothing to prefer.
        """
        rows = self._rank_rows
        if rows is None:
            return None
        count, zero = len(rows), (0,) * len(rows)
        return [
            rows[(block_id.index - 1) % count] if isinstance(block_id, (DataId, ParityId)) else zero
            for block_id in block_ids
        ]

    def location_for(self, block_id: BlockId) -> int:
        return self.locations_for((block_id,))[0]

    def locations_for(self, block_ids: Sequence[BlockId]) -> List[int]:
        picks = self._picks
        draws: Iterable[int] = (
            _block_draws(block_ids, self._seed, salt=b"spread")
            if self._hashes
            else repeat(0)
        )
        locations: List[int] = []
        append = locations.append
        for domain, draw in zip(self.domains_for(block_ids), draws):
            members, cumulative, total, last = picks[domain]
            if last:
                index = bisect_right(cumulative, draw / _DRAW_SPAN * total)
                append(members[index if index < last else last])
            else:
                append(members[0])
        return locations

    def describe(self) -> str:
        return (
            f"SpreadDomainsPlacement(n={self._location_count}, "
            f"level={self._level}, domains={len(self._domains)})"
        )


class WeightedPlacement(PlacementPolicy):
    """Random placement proportional to per-node capacity weights.

    A node with capacity 2.0 receives (in expectation) twice the blocks of a
    capacity-1.0 node; with uniform capacities this degenerates to
    :class:`RandomPlacement` statistics.  Deterministic given the seed.
    """

    def __init__(self, topology: TopologyLike, seed: int = 0) -> None:
        super().__init__(topology)
        self._seed = seed
        self._cumulative = np.cumsum(self.topology.capacities()).tolist()

    def location_for(self, block_id: BlockId) -> int:
        return self.locations_for((block_id,))[0]

    def locations_for(self, block_ids: Sequence[BlockId]) -> List[int]:
        cumulative = self._cumulative
        total = cumulative[-1]
        last = self._location_count - 1
        return [
            min(bisect_right(cumulative, draw / _DRAW_SPAN * total), last)
            for draw in _block_draws(block_ids, self._seed, salt=b"weighted")
        ]


class DictionaryPlacement(PlacementPolicy):
    """Explicit placement recorded in a dictionary (used by tests and RAID layouts)."""

    def __init__(self, topology: TopologyLike, mapping: dict) -> None:
        super().__init__(topology)
        self._mapping = dict(mapping)

    def location_for(self, block_id: BlockId) -> int:
        if block_id not in self._mapping:
            raise PlacementError(f"no explicit placement recorded for {block_id!r}")
        return self._mapping[block_id]

    def record(self, block_id: BlockId, location: int) -> None:
        if not 0 <= location < self._location_count:
            raise PlacementError(
                f"location {location} outside 0..{self._location_count - 1}"
            )
        self._mapping[block_id] = location


# ----------------------------------------------------------------------
# The policy registry
# ----------------------------------------------------------------------
#: A factory builds a policy from a topology plus optional context
#: (``params`` -- the AE setting of the scheme being placed, ``seed``,
#: ``level`` -- a domain level override for spread-domains).
PolicyFactory = Callable[..., PlacementPolicy]

_POLICIES: Dict[str, PolicyFactory] = {}


def register(name: str, factory: PolicyFactory) -> None:
    """Register a placement policy under a string key."""
    _POLICIES[name.lower()] = factory


def available() -> List[str]:
    """Registered policy names, sorted."""
    return sorted(_POLICIES)


def get(
    name: str,
    topology: TopologyLike,
    params: Optional[AEParameters] = None,
    seed: int = 0,
    level: Optional[str] = None,
) -> PlacementPolicy:
    """Resolve a policy name to a fresh policy instance over ``topology``.

    ``params`` carries the AE(alpha, s, p) setting when the scheme being
    placed is an entanglement code (policies that do not need it ignore it);
    ``level`` optionally pins the failure-domain granularity of
    ``spread-domains``.
    """
    cleaned = name.strip().lower()
    if cleaned not in _POLICIES:
        raise PlacementError(
            f"unknown placement policy {name!r}; available: "
            + ", ".join(available())
        )
    return _POLICIES[cleaned](
        _as_topology(topology), params=params, seed=seed, level=level
    )


def _random_factory(
    topology: Topology,
    params: Optional[AEParameters] = None,
    seed: int = 0,
    level: Optional[str] = None,
) -> PlacementPolicy:
    return RandomPlacement(topology, seed=seed)


def _round_robin_factory(
    topology: Topology,
    params: Optional[AEParameters] = None,
    seed: int = 0,
    level: Optional[str] = None,
) -> PlacementPolicy:
    return RoundRobinPlacement(topology, params=params)


def _strand_aware_factory(
    topology: Topology,
    params: Optional[AEParameters] = None,
    seed: int = 0,
    level: Optional[str] = None,
) -> PlacementPolicy:
    if params is None:
        raise PlacementError(
            "the 'strand-aware' policy needs the AE(alpha, s, p) parameters "
            "of an entanglement scheme; use 'spread-domains' for stripe codes"
        )
    return StrandAwarePlacement(topology, params, seed=seed)


def _spread_domains_factory(
    topology: Topology,
    params: Optional[AEParameters] = None,
    seed: int = 0,
    level: Optional[str] = None,
) -> PlacementPolicy:
    return SpreadDomainsPlacement(topology, seed=seed, level=level, params=params)


def _weighted_factory(
    topology: Topology,
    params: Optional[AEParameters] = None,
    seed: int = 0,
    level: Optional[str] = None,
) -> PlacementPolicy:
    return WeightedPlacement(topology, seed=seed)


register("random", _random_factory)
register("round-robin", _round_robin_factory)
register("strand-aware", _strand_aware_factory)
register("spread-domains", _spread_domains_factory)
register("weighted", _weighted_factory)


def placement_balance(policy: PlacementPolicy, block_ids: Iterable[BlockId]) -> np.ndarray:
    """Histogram of blocks per location, used to study placement skew.

    The paper reports the mean and standard deviation of blocks per site for
    RS(10,4) with one million data blocks; this helper reproduces those
    statistics for any policy.
    """
    locations = policy.locations_for(list(block_ids))
    return np.bincount(
        np.asarray(locations, dtype=np.int64), minlength=policy.location_count
    )


def domain_balance(
    policy: PlacementPolicy, block_ids: Iterable[BlockId], level: str = "site"
) -> np.ndarray:
    """Histogram of blocks per failure domain at the given level."""
    topology = policy.topology
    domain_of = np.asarray(topology.location_domains(level), dtype=np.int64)
    locations = policy.locations_for(list(block_ids))
    return np.bincount(
        domain_of[np.asarray(locations, dtype=np.int64)],
        minlength=len(topology.domains(level)),
    )
