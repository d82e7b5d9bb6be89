"""A cluster of storage locations with a placement policy.

The cluster is the physical layer beneath the helical lattice: it stores the
encoded blocks, knows which location holds each block, and is the
:class:`~repro.schemes.base.BlockSource` every scheme reads and repairs
through (:meth:`StorageCluster.try_get_many`,
:meth:`StorageCluster.is_available`).

Every location's payloads live on a pluggable backend
(:mod:`repro.storage.backends`): ``backend="memory"`` keeps the historical
in-process behaviour, while ``backend="disk"`` / ``"segment"`` with a
``root`` directory give each location its own durable sub-root
(``<root>/loc-NNNN``).  Opening a cluster over a root that already holds
data rebuilds the block -> location directory by listing each backend, so a
cluster can be closed and reopened with all placements intact.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.blocks import BlockId
from repro.core.xor import Payload
from repro.exceptions import PlacementError, ReproError, UnknownBlockError
from repro.storage import backends as _backends
from repro.storage.block_store import BlockStore
from repro.storage.placement import PlacementPolicy, RandomPlacement
from repro.storage.topology import Topology


#: The id of a ``(block_id, payload)`` pair, picked out in C.
_BLOCK_ID_OF = itemgetter(0)


@dataclass
class ClusterStats:
    """Aggregate statistics of a cluster.

    ``domain_blocks`` maps failure-domain labels (sites, or racks for a
    single-site topology) to the number of blocks they hold; it stays empty
    for flat single-domain clusters.
    """

    locations: int
    available_locations: int
    blocks: int
    unavailable_blocks: int
    bytes_stored: int
    cache_hits: int = 0
    cache_misses: int = 0
    domain_blocks: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        text = (
            f"{self.available_locations}/{self.locations} locations up, "
            f"{self.blocks} blocks ({self.unavailable_blocks} currently unavailable), "
            f"{self.bytes_stored} bytes"
        )
        if self.domain_blocks:
            per_domain = " ".join(
                f"{label}={count}" for label, count in self.domain_blocks.items()
            )
            text = f"{text}; domains: {per_domain}"
        return text


class StorageCluster:
    """``n`` storage locations plus the block -> location mapping.

    The spatial layout of those locations is an explicit
    :class:`~repro.storage.topology.Topology` (site -> rack -> node):
    ``topology`` is a ``Topology``, a compact spec string like
    ``"sites=3,racks=2,nodes=4"``, a JSON file path or a bare count ``N``
    (``Topology.flat(N)``).  More than one failure domain makes the cluster
    domain-aware: per-domain statistics and repair re-placement that avoids
    the failed block's failure domain.
    """

    def __init__(
        self,
        topology: Optional[Union[Topology, int, str]] = None,
        placement: Optional[PlacementPolicy] = None,
        capacity_blocks: Optional[int] = None,
        backend: str = "memory",
        root: Optional[str] = None,
        cache_blocks: Optional[int] = None,
        **backend_options: object,
    ) -> None:
        resolved = Topology.resolve(topology)
        if resolved is None:
            if placement is None:
                raise PlacementError("a cluster needs a topology or a placement")
            # Adopt the placement's topology so a policy built over sites and
            # racks makes the cluster domain-aware without repeating the spec.
            resolved = placement.topology
        self._topology = resolved
        location_count = resolved.node_count
        self._backend_spec = backend
        self._root = root
        # What every location's store is built from (add_location grows the
        # cluster on the same terms).
        self._store_options = (capacity_blocks, cache_blocks, backend_options)
        self._stores: List[BlockStore] = [
            self._new_store(location_id) for location_id in range(location_count)
        ]
        self._placement = placement or RandomPlacement(resolved)
        if self._placement.location_count != location_count:
            raise PlacementError(
                "placement policy location count does not match the cluster size"
            )
        # Pre-existing blocks on persistent backends re-seed the directory,
        # so a reopened cluster serves its old placements immediately.  A
        # block found at several locations (a relocation whose delete of the
        # old copy never ran) keeps the first copy; the duplicates are
        # physically deleted so they cannot leak storage or inflate the byte
        # accounting across reopen cycles.  A duplicate of another length
        # waits for the open pass (:meth:`unhold_other_sizes`), which keeps
        # the copy of the block size.
        self._directory: Dict[BlockId, int] = {}
        self._doubles: List[Tuple[BlockId, int]] = []
        for store in self._stores:
            duplicates = []
            for block_id, size in store._sizes.items():
                first = self._directory.get(block_id)
                if first is None:
                    self._directory[block_id] = store.location_id
                elif self._stores[first]._sizes[block_id] == size:
                    duplicates.append(block_id)
                else:
                    self._doubles.append((block_id, store.location_id))
            if duplicates:
                store.delete_many(duplicates)

    def _new_store(self, location_id: int) -> BlockStore:
        capacity_blocks, cache_blocks, backend_options = self._store_options
        return BlockStore(
            location_id,
            capacity_blocks,
            backend=_backends.get(
                self._backend_spec,
                root=(
                    os.path.join(self._root, f"loc-{location_id:04d}")
                    if self._root is not None
                    else None
                ),
                **backend_options,
            ),
            cache_blocks=cache_blocks,
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def location_count(self) -> int:
        return len(self._stores)

    def add_location(self, placement: PlacementPolicy) -> int:
        """Grow a flat cluster by one empty location; returns its id.

        ``placement`` is the policy of the grown cluster (it must count the
        new location) and brings its topology with it.  The directory and
        the existing stores are untouched -- no block moves and a failed
        location stays failed with its blocks still on the books (paper,
        Sec. IV-B2: disks are added without re-encoding).  A site / rack
        layout does not grow this way: where the node goes is a topology
        decision.
        """
        location_id = len(self._stores)
        if not (self._topology.is_flat() and placement.topology.is_flat()):
            raise PlacementError("only a flat single-site cluster grows by one location")
        if placement.location_count != location_id + 1:
            raise PlacementError(
                f"the grown cluster has {location_id + 1} locations, the "
                f"placement policy counts {placement.location_count}"
            )
        self._stores.append(self._new_store(location_id))
        self._topology = placement.topology
        self._placement = placement
        return location_id

    @property
    def topology(self) -> Topology:
        """The site -> rack -> node layout of the locations."""
        return self._topology

    @property
    def placement(self) -> PlacementPolicy:
        return self._placement

    def location(self, location_id: int) -> BlockStore:
        return self._stores[location_id]

    def locations(self) -> Iterator[BlockStore]:
        return iter(self._stores)

    def available_locations(self) -> List[int]:
        return [store.location_id for store in self._stores if store.available]

    def unavailable_locations(self) -> List[int]:
        return [store.location_id for store in self._stores if not store.available]

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail_locations(self, location_ids: Iterable[int]) -> None:
        for location_id in location_ids:
            self._stores[location_id].fail()

    def wipe_locations(self, location_ids: Iterable[int]) -> None:
        for location_id in location_ids:
            self._stores[location_id].wipe()

    def restore_locations(self, location_ids: Optional[Iterable[int]] = None) -> None:
        """Bring locations back online, dropping stale block copies.

        While a location was down, repair may have rebuilt its blocks onto
        healthy locations (the directory now points elsewhere).  Those stale
        physical copies are reclaimed here so a restore can neither
        resurrect them nor leak their bytes on durable backends.
        """
        targets = (
            list(location_ids)
            if location_ids is not None
            else [store.location_id for store in self._stores]
        )
        for location_id in targets:
            store = self._stores[location_id]
            store.restore()
            store.delete_many(
                [
                    block_id
                    for block_id in store.block_ids()
                    if self._directory.get(block_id) != location_id
                ]
            )

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def put_many(self, items: Iterable[Tuple[BlockId, Payload]]) -> int:
        """Bulk write: place and store ``(block_id, payload)`` pairs.

        Placement decisions are computed up front through the policy's bulk
        :meth:`PlacementPolicy.locations_for`, then the batch fans out
        (:meth:`_fan_out`): one :meth:`BlockStore.put_many` call per
        destination, so per-block Python overhead is amortised over the
        batch.  Returns the number of blocks stored.
        """
        pairs = list(items)
        return self._fan_out(
            pairs, self._placement.locations_for(list(map(_BLOCK_ID_OF, pairs)))
        )

    def _fan_out(
        self, pairs: Sequence[Tuple[BlockId, Payload]], locations: Sequence[int]
    ) -> int:
        """Write ``pairs[k]`` to ``locations[k]``, one bulk call per location.

        One pass groups the batch per destination; locations are then written
        in the order the batch first names them, each receiving its blocks in
        batch order, and the directory learns a location's blocks right after
        that location accepted them.  A location that refuses (down, full)
        raises out of the loop: what earlier locations took stays stored and
        recorded, later locations are never asked.
        """
        placed: Dict[int, List[Tuple[BlockId, Payload]]] = defaultdict(list)
        for location_id, pair in zip(locations, pairs):
            placed[location_id].append(pair)
        stores = self._stores
        directory = self._directory
        stored = 0
        for location_id, group in placed.items():
            stored += stores[location_id].put_many(group)
            directory.update(zip(map(_BLOCK_ID_OF, group), repeat(location_id)))
        return stored

    def try_get_many(self, block_ids: Iterable[BlockId]) -> List[Optional[Payload]]:
        """Bulk read: payloads in request order, ``None`` for blocks that are
        unknown or whose location is down.

        Requests are grouped per location so each store sees one
        :meth:`BlockStore.try_get_many` call -- the read path of batched
        repair and degraded document reads.
        """
        wanted = block_ids if isinstance(block_ids, list) else list(block_ids)
        payloads: List[Optional[Payload]] = [None] * len(wanted)
        # One pass: each location's request positions and ids, in request order.
        grouped: Dict[int, Tuple[List[int], List[BlockId]]] = {}
        for position, (block_id, location_id) in enumerate(
            zip(wanted, map(self._directory.get, wanted))
        ):
            if location_id is not None:
                group = grouped.get(location_id)
                if group is None:
                    group = grouped[location_id] = ([], [])
                group[0].append(position)
                group[1].append(block_id)
        stores = self._stores
        for location_id, (positions, ids) in grouped.items():
            for position, payload in zip(positions, stores[location_id].try_get_many(ids)):
                payloads[position] = payload
        return payloads

    def delete_blocks(self, block_ids: Iterable[BlockId]) -> int:
        """Remove blocks from the cluster; unknown blocks are skipped.  Returns
        the number of directory entries removed.

        Both the placement index (directory) entry and the physical payload
        are removed -- even when the location is currently marked
        unavailable: the availability flag models *request serving* during a
        simulated outage, while delete is a management-plane reclamation, and
        leaving the payload behind would resurrect it when a durable cluster
        re-seeds its directory from the backends on reopen.  The ids are
        grouped per location: one :meth:`BlockStore.delete_many` each, and a
        location's directory entries go only after its store accepted the
        batch, as :meth:`_fan_out` does for writes.  A refusing location does
        not stop the others: every location is tried, then the first error
        is raised, so only the refusing ones keep their blocks.
        """
        directory = self._directory
        grouped: Dict[int, List[BlockId]] = defaultdict(list)
        for block_id in dict.fromkeys(block_ids):
            location_id = directory.get(block_id)
            if location_id is not None:
                grouped[location_id].append(block_id)
        deleted = 0
        refused: Optional[Exception] = None
        for location_id, group in grouped.items():
            try:
                self._stores[location_id].delete_many(group)
            except (OSError, ReproError) as exc:
                refused = refused or exc
                continue
            for block_id in group:
                del directory[block_id]
            deleted += len(group)
        if refused is not None:
            raise refused
        return deleted

    def location_of(self, block_id: BlockId) -> int:
        if block_id not in self._directory:
            raise UnknownBlockError(f"block {block_id!r} is not stored in the cluster")
        return self._directory[block_id]

    def knows(self, block_id: BlockId) -> bool:
        return block_id in self._directory

    def is_available(self, block_id: BlockId) -> bool:
        """Whether a fetch would succeed, without performing it.

        The round planner's oracle, probed thousands of times per repair
        round: answered here from the directory and the holding store's own
        state (:meth:`BlockStore.holds`, spelled out) in one frame.
        """
        location_id = self._directory.get(block_id)
        if location_id is None:
            return False
        store = self._stores[location_id]
        return store._available and block_id in store._sizes

    def unhold_other_sizes(self, size: int) -> int:
        """The open pass: a block found at two locations at different
        lengths keeps the copy of ``size`` bytes (the other record is
        deleted), then :meth:`BlockStore.unhold_other_sizes` at every
        location that holds blocks."""
        sizes = [store._sizes for store in self._stores]
        for block_id, location in self._doubles:
            home = self._directory[block_id]
            if sizes[home].get(block_id) != size and sizes[location].get(block_id) == size:
                self._directory[block_id], location = location, home
            self._stores[location].delete_many([block_id])
        self._doubles.clear()
        return sum(store.unhold_other_sizes(size) for store in self._stores if store._sizes)

    def unheld_blocks(self) -> Set[BlockId]:
        """The blocks a store un-held where the directory places them."""
        directory = self._directory
        return {b for s in self._stores for b in s._unheld if directory.get(b) == s.location_id}

    def relocate_many(
        self,
        items: Iterable[Tuple[BlockId, Payload]],
        avoid: Sequence[int] = (),
    ) -> Dict[BlockId, int]:
        """Store repaired blocks on available locations (not in ``avoid``).

        The avoid-list is a hard constraint: locations in ``avoid`` are never
        chosen, even when they alone have free capacity -- a
        :class:`~repro.exceptions.PlacementError` is raised instead of
        silently co-locating a repaired block with the failure it was
        repaired *from*.  When the cluster topology has more than one
        failure domain the choice is domain-aware as well
        (:meth:`_pick_relocation_targets`), so a rack or site coming back
        from the dead cannot take the rebuilt copy down with it again.  The
        physical writes go through the same per-location fan-out as
        :meth:`put_many` -- the write path of batched repair.  A moved block
        is deleted where it was, unless that location is down and holds it
        (:meth:`restore_locations` reclaims those).  Returns
        ``{block_id: target location}``.
        """
        pairs = list(items)
        if not pairs:
            return {}
        block_ids = [block_id for block_id, _ in pairs]
        targets = self._pick_relocation_targets(block_ids, set(avoid))
        previous = list(map(self._directory.get, block_ids))
        self._fan_out(pairs, targets)
        for block_id, before, target in zip(block_ids, previous, targets):
            if before not in (None, target):
                store = self._stores[before]
                if store._available or block_id not in store._sizes:
                    store.delete_many([block_id])
        return dict(zip(block_ids, targets))

    def _pick_relocation_targets(
        self, block_ids: Sequence[BlockId], avoided: Set[int]
    ) -> List[int]:
        """Where each rebuilt block goes, in request order; nothing is written.

        Per block: its assigned location when that is usable and outside the
        failed domains; otherwise the candidates outside the failed domains
        (all candidates when the disaster spans every domain), narrowed to
        the domains the placement policy ranks best, picked over by the block
        index.  The policy is asked in bulk, and the work is per repair group,
        not per block x domain: a policy that reports its domains
        (:meth:`PlacementPolicy.domains_for`) draws only the blocks whose
        domain did not fail (a location in a failed domain is never usable),
        and since blocks of one repair-group class share one
        :meth:`PlacementPolicy.relocation_ranks` row, a pool is filtered once
        per distinct (candidates, failed domains, row) -- a handful per round.
        The memos live for this call only: availability changes between
        rounds.
        """
        stores = self._stores
        placement = self._placement
        level = placement.spread_level() or self._topology.default_level()
        domain_of = self._topology.location_domains(level)
        multi_domain = len(set(domain_of)) > 1
        failed_domains = (
            frozenset(
                domain_of[location]
                for location in avoided
                if 0 <= location < len(stores)
            )
            if multi_domain
            else frozenset()
        )
        rows = placement.relocation_ranks(block_ids)
        # A policy over another layout numbers its domains its own way.
        assigned = (
            placement.domains_for(block_ids)
            if failed_domains and placement.topology.location_domains(level) == domain_of
            else None
        )
        if assigned is None:
            preferred_of = placement.locations_for(block_ids)
        else:
            drawn = [k for k, domain in enumerate(assigned) if domain not in failed_domains]
            preferred_of = [-1] * len(block_ids)  # -1: no location, never usable
            for k, location in zip(drawn, placement.locations_for([block_ids[k] for k in drawn])):
                preferred_of[k] = location
        # Without capacity limits every block sees the same candidates.
        unlimited = all(store.capacity_blocks is None for store in stores)
        shared_candidates = (
            tuple(
                store.location_id
                for store in stores
                if store.available and store.location_id not in avoided
            )
            if unlimited
            else ()
        )
        # Blocks staged for a target count against its capacity before the
        # grouped write happens, so a batch cannot overfill a location that a
        # per-block relocate loop would have rejected.
        staged_counts: Dict[int, int] = {}
        # For the candidates last seen (they only change as locations fill):
        # failed domains -> the candidates outside them, as a set and as the
        # pool to pick over, the domains that pool spans, and its
        # rank-filtered subsets by rank row.
        pooled: Tuple[int, ...] = ()
        pools: Dict[
            FrozenSet[int],
            Tuple[FrozenSet[int], List[int], List[int], Dict[Tuple[int, ...], List[int]]],
        ] = {}
        targets: List[int] = []
        for position, (block_id, preferred) in enumerate(zip(block_ids, preferred_of)):
            candidates = shared_candidates or tuple(
                self._relocation_candidates(block_id, avoided, staged_counts)
            )
            if candidates != pooled:
                pools.clear()
                pooled = candidates
            avoid_domains = failed_domains
            if multi_domain:
                previous = self._directory.get(block_id)
                if (
                    previous is not None
                    and not stores[previous].available
                    and domain_of[previous] not in failed_domains
                ):
                    avoid_domains = failed_domains | {domain_of[previous]}
            entry = pools.get(avoid_domains)
            if entry is None:
                outside = [
                    location
                    for location in candidates
                    if domain_of[location] not in avoid_domains
                ]
                # Fall back to any candidate when the disaster spans every
                # domain.
                pool = outside or list(candidates)
                entry = pools[avoid_domains] = (
                    frozenset(outside),
                    pool,
                    sorted({domain_of[location] for location in pool}),
                    {},
                )
            usable, pool, pool_domains, by_row = entry
            if preferred in usable:
                target = preferred
            else:
                if rows is not None and len(pool_domains) > 1:
                    # Prefer the domains the policy ranks best: a spreading
                    # policy keeps the rebuilt block away from the rest of
                    # its repair group when a spare domain exists.
                    row = rows[position]
                    ranked = by_row.get(row)
                    if ranked is None:
                        # A policy over another layout ranks domain d as d mod D.
                        ranks = [row[domain % len(row)] for domain in pool_domains]
                        best_rank = min(ranks)
                        best = {
                            domain
                            for domain, value in zip(pool_domains, ranks)
                            if value == best_rank
                        }
                        ranked = by_row[row] = [
                            location for location in pool if domain_of[location] in best
                        ]
                    pool = ranked
                # Deterministic spread: the block id picks over the pool.
                target = pool[block_id.index % len(pool)]
            if not unlimited and not stores[target].contains(block_id):
                staged_counts[target] = staged_counts.get(target, 0) + 1
            targets.append(target)
        return targets

    def _relocation_candidates(
        self,
        block_id: BlockId,
        avoided: Set[int],
        staged_counts: Dict[int, int],
    ) -> List[int]:
        """Available locations (outside the avoid list) with room for the block."""
        candidates = [
            store.location_id
            for store in self._stores
            if store.available
            and store.location_id not in avoided
            and (
                store.capacity_blocks is None
                or store.contains(block_id)
                or store.block_count + staged_counts.get(store.location_id, 0)
                < store.capacity_blocks
            )
        ]
        if not candidates:
            raise PlacementError(
                f"no available location outside the avoid list can hold the "
                f"repaired block {block_id!r} (avoided: {sorted(avoided)}); "
                "avoided locations are never used, even when only they have "
                "free capacity"
            )
        return candidates

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def block_ids(self) -> Iterator[BlockId]:
        return iter(list(self._directory.keys()))

    def blocks_at(self, location_id: int) -> List[BlockId]:
        return [
            block_id
            for block_id, location in self._directory.items()
            if location == location_id
        ]

    def unavailable_blocks(self) -> Set[BlockId]:
        """The repair work list: every block :meth:`is_available` denies.

        The same test over the whole directory -- the location is down, or
        it is up and does not hold the block (a wiped disk that came back
        empty) -- so ``status()`` and ``repair()`` cannot disagree with the
        round planner about what is lost.
        """
        held = [store._sizes if store._available else () for store in self._stores]
        return {
            block_id
            for block_id, location in self._directory.items()
            if block_id not in held[location]
        }

    def domain_block_counts(self, level: Optional[str] = None) -> Dict[str, int]:
        """Blocks per failure domain (label -> count) at the given level.

        Defaults to the coarsest meaningful level of the topology; a flat
        single-domain cluster returns an empty dict (nothing to break down).
        """
        if level is None:
            if self._topology.is_flat():
                return {}
            level = self._topology.default_level()
        domains = self._topology.domains(level)
        if len(domains) <= 1:
            return {}
        labels = self._topology.domain_labels(level)
        counts = {label: 0 for label in labels}
        for location in self._directory.values():
            counts[labels[self._topology.domain_of(location, level)]] += 1
        return counts

    def stats(self) -> ClusterStats:
        return ClusterStats(
            locations=self.location_count,
            available_locations=len(self.available_locations()),
            blocks=len(self._directory),
            unavailable_blocks=len(self.unavailable_blocks()),
            bytes_stored=sum(store.bytes_stored for store in self._stores),
            cache_hits=sum(store.cache_hits for store in self._stores),
            cache_misses=sum(store.cache_misses for store in self._stores),
            domain_blocks=self.domain_block_counts(),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def backend_spec(self) -> str:
        """The backend name the cluster's locations were built with."""
        return self._backend_spec

    @property
    def root(self) -> Optional[str]:
        """The durable root directory, ``None`` for volatile backends."""
        return self._root

    def flush(self) -> None:
        """Push every location's buffered writes to its medium."""
        for store in self._stores:
            store.flush()

    def close(self) -> None:
        """Close every location (persisting counters on durable backends)."""
        for store in self._stores:
            store.close()

    def __len__(self) -> int:
        return len(self._directory)
