"""Storage system layer: the scheme-agnostic service and its use cases.

* :mod:`repro.system.protocol` -- :class:`DocumentService`, the one
  document-service surface the three layers below conform to, and the one
  implementation of it the front-end and the federation share;
* :mod:`repro.system.opening` -- :func:`open_service`, the one way to open
  whichever layer a config describes;
* :mod:`repro.system.service` -- :class:`StorageService`, the
  put/get/delete/repair front-end over any redundancy scheme; a durable one
  is exactly ``manifest.json`` (the checkpoint) plus ``wal.log``.  Its
  ``repair(policy)`` is the one verb that repairs a cluster, at every layer
  and for the archive, RAID-AE and backup use cases below (each a topology
  plus a placement policy over this service, none with an AE stack of its own);
* :mod:`repro.system.frontend` -- :class:`ConcurrentStorageService`, the
  multi-client request path with striped locks and backpressure;
* :mod:`repro.system.loadgen` -- the closed-loop multi-client load generator
  behind ``repro-experiments load`` and the service benchmark;
* :mod:`repro.system.compare` -- the same workload and failure trace run
  across schemes, measured next to the analytic Table IV costs;
* :mod:`repro.system.backup` -- the geo-replicated cooperative backup network,
  one service per owner under :class:`OwnerHomePlacement`;
* :mod:`repro.system.raid` -- RAID-AE as a :class:`StorageService` over its
  disks, and the entangled mirror as RAID-AE over AE(1);
* :mod:`repro.system.keys` -- deterministic block keys and the key -> node
  mapping the backup placement applies;
* :mod:`repro.system.sharding` -- :class:`ShardedStorageService`, the
  consistent-hash federation of many services with scatter-gather reads and
  cross-shard rebalancing;
* :mod:`repro.system.transitions` -- :class:`TransitionEngine` and the
  :class:`TransitionPlan` it keeps in the manifest checkpoint: live,
  crash-resumable migrations between redundancy schemes (alpha raises,
  puncturing changes, cross-family re-encodes).
"""

from repro.system.archive import ArchiveEntry, ArchiveStore
from repro.system.compare import (
    DEFAULT_COMPARE_SCHEMES,
    SchemeComparison,
    compare_schemes,
    single_failure_reads_measured,
)
from repro.system.frontend import (
    ConcurrentStorageService,
    ReadWriteLock,
    derive_stripe_count,
)
from repro.system.loadgen import LoadReport, run_load
from repro.system.opening import open_service
from repro.system.protocol import DocumentService
from repro.system.service import (
    DEFAULT_BATCH_BLOCKS,
    ServiceRepairReport,
    ServiceScrubReport,
    ServiceStatus,
    StorageConfig,
    StorageService,
    StoredDocument,
)
from repro.system.sharding import (
    FederationRepairReport,
    FederationStatus,
    FederationTransitionReport,
    RebalanceReport,
    ShardRing,
    ShardedStorageService,
)
from repro.system.transitions import (
    TransitionEngine,
    TransitionPlan,
    TransitionReport,
    classify,
)
from repro.system.backup import (
    BackupNode,
    CooperativeBackupNetwork,
    OwnerHomePlacement,
    ParityRepairTrace,
    RedundancyDegradation,
    RepairStep,
)
from repro.system.keys import BlockKey, derive_key, location_for_block, location_for_key
from repro.system.raid import EntangledMirrorArray, RAIDAEArray

__all__ = [
    "ArchiveEntry",
    "ArchiveStore",
    "ConcurrentStorageService",
    "DEFAULT_BATCH_BLOCKS",
    "DEFAULT_COMPARE_SCHEMES",
    "DocumentService",
    "FederationRepairReport",
    "FederationStatus",
    "FederationTransitionReport",
    "LoadReport",
    "ReadWriteLock",
    "RebalanceReport",
    "SchemeComparison",
    "ServiceRepairReport",
    "ServiceScrubReport",
    "ServiceStatus",
    "ShardRing",
    "ShardedStorageService",
    "StorageConfig",
    "StorageService",
    "TransitionEngine",
    "TransitionPlan",
    "TransitionReport",
    "classify",
    "compare_schemes",
    "derive_stripe_count",
    "open_service",
    "run_load",
    "single_failure_reads_measured",
    "BackupNode",
    "BlockKey",
    "CooperativeBackupNetwork",
    "EntangledMirrorArray",
    "OwnerHomePlacement",
    "ParityRepairTrace",
    "RAIDAEArray",
    "RedundancyDegradation",
    "RepairStep",
    "StoredDocument",
    "derive_key",
    "location_for_block",
    "location_for_key",
]
