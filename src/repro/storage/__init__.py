"""Storage substrate: backends, topology, clusters, placement and maintenance.

This subpackage models the physical layer beneath the entanglement lattice --
storage locations that can fail, a cluster that maps blocks to locations and
re-places rebuilt ones, and the maintenance vocabulary
(:class:`MaintenancePolicy`, :class:`MaintenanceBudget`).  It holds no repair
driver: a cluster is repaired by
:meth:`StorageService.repair(policy) <repro.system.service.StorageService.repair>`,
which hands each generation's work list to its scheme.

The spatial model is an explicit :class:`~repro.storage.topology.Topology`
(site -> rack -> node with per-node capacity weights; a bare count ``n`` is
``Topology.flat(n)``), and a block is *available* when its location is up
and holds it -- ``unavailable_blocks()`` is the complement of
``is_available``.  Placement policies are
resolved from the string-keyed registry in :mod:`repro.storage.placement`
(``placement.get("spread-domains", topology)``), and disasters can target
whole failure domains (``disaster_for_target(topology, "site:0")``).  See
``docs/topology.md`` for the spec grammar and the policy catalogue.

Payload bytes live on pluggable, durable backends
(:mod:`repro.storage.backends`): ``"memory"`` for simulations, ``"disk"``
(one file per block) and ``"segment"`` (append-only segment log with
compaction) for restartable archives.  ``repro.storage.backends.get(name,
root=...)`` resolves a backend; :class:`BlockStore` and
:class:`StorageCluster` accept the same specs.  Service *metadata* commits
go through the group-committed write-ahead log of :mod:`repro.storage.wal`
(:class:`MetadataWAL`).  See ``docs/persistence.md`` for the on-disk layout
and crash-recovery semantics.
"""

from repro.storage import backends
from repro.storage import placement
from repro.storage import topology
from repro.storage.backends import (
    DiskBackend,
    MemoryBackend,
    SegmentLogBackend,
    StorageBackend,
    decode_block_id,
    encode_block_id,
)
from repro.storage.block_store import BlockStore
from repro.storage.cluster import ClusterStats, StorageCluster
from repro.storage.failures import (
    ChurnEvent,
    ChurnTrace,
    Disaster,
    PAPER_DISASTER_SIZES,
    disaster_for_fraction,
    disaster_for_target,
    disaster_series,
)
from repro.storage.maintenance import MaintenanceBudget, MaintenancePolicy
from repro.storage.placement import (
    DictionaryPlacement,
    PlacementPolicy,
    RandomPlacement,
    RoundRobinPlacement,
    SpreadDomainsPlacement,
    StrandAwarePlacement,
    WeightedPlacement,
    domain_balance,
    placement_balance,
)
from repro.storage.topology import (
    DOMAIN_LEVELS,
    Topology,
    TopologyBuilder,
    TopologyNode,
)
from repro.storage.wal import (
    MetadataWAL,
    WalFrame,
    WalGroup,
    iter_frames,
    scan_wal,
)

__all__ = [
    "BlockStore",
    "ChurnEvent",
    "ChurnTrace",
    "ClusterStats",
    "DOMAIN_LEVELS",
    "DictionaryPlacement",
    "Disaster",
    "DiskBackend",
    "MaintenanceBudget",
    "MaintenancePolicy",
    "MemoryBackend",
    "MetadataWAL",
    "PAPER_DISASTER_SIZES",
    "PlacementPolicy",
    "RandomPlacement",
    "RoundRobinPlacement",
    "SegmentLogBackend",
    "SpreadDomainsPlacement",
    "StorageBackend",
    "StorageCluster",
    "StrandAwarePlacement",
    "Topology",
    "TopologyBuilder",
    "TopologyNode",
    "WalFrame",
    "WalGroup",
    "WeightedPlacement",
    "backends",
    "decode_block_id",
    "disaster_for_fraction",
    "disaster_for_target",
    "disaster_series",
    "domain_balance",
    "encode_block_id",
    "iter_frames",
    "placement",
    "placement_balance",
    "scan_wal",
    "topology",
]
