"""The scheme-agnostic storage front-end.

:class:`StorageService` is the public face of the repository: one
put/get/delete/fail/repair API over a :class:`~repro.storage.cluster.StorageCluster`
and *any* redundancy scheme implementing the
:class:`~repro.schemes.base.RedundancyScheme` protocol -- alpha entanglement
or any of the paper's stripe-code baselines.  Services are opened from a
:class:`StorageConfig`::

    from repro import StorageConfig, StorageService

    service = StorageService.open(StorageConfig(scheme="rs-10-4"))
    service.put("report", payload)
    service.fail_locations(range(3))
    report = service.repair()
    assert service.get("report") == payload
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from typing import (
    AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar, Union,
)

import repro.schemes as schemes
from repro.core.blocks import BlockId, join_blocks
from repro.core.dynamic import EpochHistory, ParameterEpoch
from repro.core.encoder import DEFAULT_BLOCK_SIZE
from repro.core.parameters import AEParameters
from repro.core.xor import Payload, payload_to_bytes
from repro.exceptions import InvalidParametersError, RepairFailedError, UnknownBlockError
from repro.schemes.base import BlockSource, RedundancyScheme, SchemeCapabilities
from repro.storage import placement as placement_registry
from repro.storage.backends import decode_block_id, encode_block_id, read_json, write_json
from repro.storage.cluster import StorageCluster
from repro.storage.maintenance import MaintenancePolicy
from repro.storage.placement import PlacementPolicy
from repro.storage.topology import Topology
from repro.storage.wal import WAL_NAME, MetadataWAL, WalGroup
from repro.system.transitions import DocumentGuard, TransitionEngine, TransitionPlan, TransitionReport

#: Number of blocks encoded per batch by :meth:`StorageService.put_stream`.
DEFAULT_BATCH_BLOCKS = 256

#: Locations in a cluster when neither the config nor a manifest names one.
DEFAULT_LOCATION_COUNT = 100

#: Name of the service manifest inside a durable ``data_dir``.
MANIFEST_NAME = "manifest.json"

#: Manifest format version (bumped on incompatible layout changes).
MANIFEST_FORMAT = 1

#: WAL size (bytes) past which a mutation triggers a checkpoint that
#: collapses the log back into ``manifest.json``.
WAL_CHECKPOINT_BYTES = 1 << 20


def _settings_of(manifest: Dict[str, object]) -> Dict[str, object]:
    """A manifest minus its catalogue, scheme state and transition plan."""
    return {
        key: value
        for key, value in manifest.items()
        if key not in ("scheme_state", "documents", "transition")
    }


def _encode_id_runs(data_ids: List[object]) -> List[object]:
    """Run-length encode a document's block ids for the manifest.

    Data ids are consecutive within a document (``d-5, d-6, ...`` for AE;
    ``s[3,0], s[3,1], ...`` within a stripe), so the catalogue stores
    ``["d-5", 120]`` (120 ids starting at ``d-5``) instead of 120 strings --
    the manifest stays O(documents + stripes), not O(blocks).
    """
    from repro.schemes.stripe import StripeBlockId
    from repro.core.blocks import DataId

    def successor(prev: object, current: object) -> bool:
        if isinstance(prev, DataId) and isinstance(current, DataId):
            return current.index == prev.index + 1
        if isinstance(prev, StripeBlockId) and isinstance(current, StripeBlockId):
            return (
                current.stripe == prev.stripe
                and current.position == prev.position + 1
            )
        return False

    entries: List[object] = []
    run_start: Optional[object] = None
    run_length = 0
    previous: Optional[object] = None
    for block_id in data_ids:
        if previous is not None and successor(previous, block_id):
            run_length += 1
        else:
            if run_start is not None:
                key = encode_block_id(run_start)
                entries.append(key if run_length == 1 else [key, run_length])
            run_start, run_length = block_id, 1
        previous = block_id
    if run_start is not None:
        key = encode_block_id(run_start)
        entries.append(key if run_length == 1 else [key, run_length])
    return entries


@dataclass
class StoredDocument:
    """Metadata of one document stored in the system."""

    name: str
    data_ids: List[object]
    length: int

    @property
    def block_count(self) -> int:
        return len(self.data_ids)


def _read_document(name: str, entry: object, block_size: int, path: str) -> StoredDocument:
    """One catalogue entry of ``path`` (the manifest or the WAL), checked: a
    run is a key or a ``[key, count >= 1]`` pair, and ``length`` an integer
    >= 0 whose ``ceil(length / block_size)`` blocks the runs list exactly.
    A rotten entry would reopen serving the wrong bytes, so it is refused."""
    from repro.schemes.stripe import StripeBlockId
    from repro.core.blocks import DataId

    def corrupt(problem: str) -> InvalidParametersError:
        return InvalidParametersError(
            f"corrupt catalogue entry {name!r} in {path!r}: {problem}; the data "
            "it describes is still on disk -- restore the file from a backup"
        )

    fields = entry if isinstance(entry, dict) else {}
    runs, length = fields.get("data_ids"), fields.get("length")
    if not isinstance(runs, list):
        raise corrupt(f"data_ids {runs!r} is not a list")
    if type(length) is not int or length < 0:
        raise corrupt(f"length {length!r} is not an integer >= 0")
    data_ids: List[object] = []
    for run in runs:
        if isinstance(run, str):
            key, count = run, None
        elif (isinstance(run, list) and len(run) == 2 and isinstance(run[0], str)
              and type(run[1]) is int and run[1] >= 1):
            key, count = run
        else:
            raise corrupt(f"id run {run!r} is neither a key nor a [key, count >= 1] pair")
        try:
            start = decode_block_id(key)
        except InvalidParametersError as exc:
            raise corrupt(str(exc)) from None
        if count is None:
            data_ids.append(start)
        elif isinstance(start, DataId):
            data_ids.extend(DataId(start.index + i) for i in range(count))
        elif isinstance(start, StripeBlockId):
            data_ids.extend(StripeBlockId(start.stripe, start.position + i) for i in range(count))
        else:
            raise corrupt(f"an id run may not start at {key!r}")
    if len(data_ids) != -(-length // block_size):
        raise corrupt(f"{len(data_ids)} block ids for {length} bytes of {block_size}-byte blocks")
    return StoredDocument(name=name, data_ids=data_ids, length=length)


@dataclass(frozen=True)
class StorageConfig:
    """Configuration of a :class:`StorageService`.

    ``scheme`` is either a registry identifier (``"ae-3-2-5"``, ``"rs-10-4"``,
    ``"lrc-azure"``, ...) or an already-built scheme instance.

    ``topology`` describes the cluster's spatial layout: a
    :class:`~repro.storage.topology.Topology`, a compact spec string
    (``"sites=3,racks=2,nodes=4"``), a topology JSON file path or a bare
    location count (``topology=N`` is ``Topology.flat(N)``).  ``None`` means
    :data:`DEFAULT_LOCATION_COUNT` flat locations -- or, on a durable reopen,
    whatever the manifest says; an explicit topology that contradicts the
    manifest is rejected.  ``placement`` is either a policy name from the
    :mod:`repro.storage.placement` registry (``"spread-domains"``,
    ``"weighted"``, ...) -- resolved over the topology with the scheme's
    parameters, and persisted in the manifest so a durable reopen restores
    it automatically -- or an already-built :class:`PlacementPolicy`
    instance (which a reopen must supply again).

    ``backend`` names a storage backend from :mod:`repro.storage.backends`
    (``"memory"``, ``"disk"``, ``"segment"``); the persistent backends need
    ``data_dir``, the root directory that holds one sub-root per location
    plus the service manifest.  Opening a config whose ``data_dir`` already
    contains a manifest *reopens* the stored service: placements, documents,
    the topology and the scheme's write position are restored (see
    ``docs/persistence.md`` and ``docs/topology.md``).

    ``shards`` requests a *sharded* namespace: pass the config to
    :func:`repro.system.opening.open_service` (or straight to
    :meth:`repro.system.sharding.ShardedStorageService.open`) and the
    federation routes documents across that many independent services (each
    with its own cluster, WAL and concurrent front-end).  A plain
    :class:`StorageService` accepts only ``shards=None`` / ``shards=1`` --
    it *is* one shard.

    A durable service persists metadata mutations as group-committed
    records in ``wal.log`` and checkpoints them into ``manifest.json`` once
    the log passes :data:`WAL_CHECKPOINT_BYTES`; the two files are its whole
    durable truth and it survives a crash at any point, see
    ``docs/persistence.md``.
    """

    scheme: Union[str, RedundancyScheme] = schemes.DEFAULT_SCHEME
    block_size: int = DEFAULT_BLOCK_SIZE
    placement: Optional[Union[str, PlacementPolicy]] = None
    cluster: Optional[StorageCluster] = None
    seed: int = 0
    batch_blocks: int = DEFAULT_BATCH_BLOCKS
    backend: str = "memory"
    data_dir: Optional[str] = None
    fsync: bool = False
    cache_blocks: Optional[int] = None
    topology: Optional[Union[str, int, Topology]] = None
    #: Shard count for :class:`~repro.system.sharding.ShardedStorageService`;
    #: ``None`` (or 1) means an unsharded service.
    shards: Optional[int] = None

    def resolve_scheme(self) -> RedundancyScheme:
        if isinstance(self.scheme, RedundancyScheme):
            return self.scheme
        return schemes.get(self.scheme, block_size=self.block_size)

    def resolve_topology(self) -> Optional[Topology]:
        """The explicit topology of this config, ``None`` when unspecified."""
        if self.topology is not None:
            return Topology.resolve(self.topology)
        if self.cluster is not None:
            return self.cluster.topology
        if isinstance(self.placement, PlacementPolicy):
            return self.placement.topology
        return None


@dataclass
class ServiceStatus:
    """Snapshot of the health of a storage service."""

    scheme: str
    blocks: int
    unavailable_blocks: int
    unavailable_data_blocks: int
    locations: int
    unavailable_locations: int
    documents: int
    bytes_stored: int
    cache_hits: int = 0
    cache_misses: int = 0

    def summary(self) -> str:
        return (
            f"[{self.scheme}] {self.blocks} blocks on {self.locations} locations "
            f"({self.unavailable_locations} down); {self.unavailable_blocks} blocks "
            f"unreachable ({self.unavailable_data_blocks} data); "
            f"{self.documents} documents, {self.bytes_stored} bytes"
        )


@dataclass
class ServiceRepairReport:
    """Outcome of a scheme-agnostic repair run.

    ``skipped`` lists the unreachable blocks the maintenance policy left
    alone (redundancy under ``MINIMAL``, everything under ``NONE``).
    """

    scheme: str
    repaired: List[object] = field(default_factory=list)
    unrecovered: List[object] = field(default_factory=list)
    skipped: List[object] = field(default_factory=list)
    blocks_read: int = 0
    rounds: int = 0
    data_loss: int = 0

    @property
    def repaired_count(self) -> int:
        return len(self.repaired)

    @property
    def skipped_count(self) -> int:
        return len(self.skipped)

    def summary(self) -> str:
        return (
            f"[{self.scheme}] repaired {self.repaired_count} blocks in "
            f"{self.rounds} rounds ({self.blocks_read} reads); "
            f"data loss {self.data_loss}, {len(self.unrecovered)} blocks unrecovered"
        )


@dataclass
class ServiceScrubReport:
    """Outcome of a scrub: every scheme generation checked its blocks
    against each other, and the suspects were rebuilt where they are.

    ``checked`` / ``unchecked`` count entanglement equations under AE and
    stripes under a stripe code; ``violated`` names the failed checks.
    ``suspects`` lists every block the failed checks implicate: each is in
    ``repaired`` (rewritten) or ``unrecovered`` (left as stored, ambiguous
    or without a path that avoids every suspect).
    """

    scheme: str
    checked: int = 0
    unchecked: int = 0
    violated: List[object] = field(default_factory=list)
    suspects: List[object] = field(default_factory=list)
    repaired: List[object] = field(default_factory=list)
    unrecovered: List[object] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violated and not self.suspects

    def summary(self) -> str:
        return (
            f"[{self.scheme}] {self.checked} checks ({self.unchecked} unchecked); "
            f"{len(self.violated)} violated, {len(self.suspects)} suspects: "
            f"{len(self.repaired)} rewritten, {len(self.unrecovered)} left as stored"
        )


class _Hiding:
    """A block source that reports ``hidden`` unavailable: the source of a
    suspect's rebuild, so no suspect is an input of another's."""

    def __init__(self, source: BlockSource, hidden: AbstractSet[object]) -> None:
        self._source = source
        self._hidden = hidden

    def try_get_many(self, block_ids: Iterable[object]) -> List[Optional[Payload]]:
        wanted = list(block_ids)
        fetched = self._source.try_get_many(wanted)
        return [None if b in self._hidden else p for b, p in zip(wanted, fetched)]

    def is_available(self, block_id: object) -> bool:
        return block_id not in self._hidden and self._source.is_available(block_id)


H = TypeVar("H", bound="ServiceHandle")


class ServiceHandle:
    """What a handle of every service layer shares: the closed check (naming
    the layer's own class), ``with`` and :meth:`verify_document`."""

    _closed = False

    def _ensure_open(self) -> None:
        if self._closed:
            layer = type(self).__name__
            raise InvalidParametersError(
                f"this {layer} has been closed; reopen it with {layer}.open "
                "on the same data_dir"
            )

    def verify_document(self, name: str, expected: bytes) -> bool:
        """Read the document back and compare."""
        return self.get(name) == expected  # type: ignore[attr-defined]

    def __enter__(self: H) -> H:
        return self

    def __exit__(self, exc_type: object, exc_value: object, traceback: object) -> None:
        self.close()  # type: ignore[attr-defined]


class StorageService(ServiceHandle):
    """High-level put/get/delete/repair interface over any redundancy scheme."""

    def __init__(
        self,
        scheme: RedundancyScheme,
        cluster: StorageCluster,
        batch_blocks: int = DEFAULT_BATCH_BLOCKS,
        data_dir: Optional[str] = None,
        fsync: bool = False,
        seed: int = 0,
        custom_placement: bool = False,
        placement_spec: Optional[str] = None,
    ) -> None:
        if batch_blocks < 1:
            raise ValueError("batch_blocks must be at least 1")
        if data_dir is not None and not all(
            store.backend.persistent for store in cluster.locations()
        ):
            raise InvalidParametersError(
                "data_dir requires a persistent backend ('disk' or 'segment'); "
                "a volatile backend would leave a manifest no reopen can honour"
            )
        self._scheme = scheme
        self._cluster = cluster
        self._batch_blocks = batch_blocks
        self._documents: Dict[str, StoredDocument] = {}
        self._data_dir = data_dir
        self._fsync = fsync
        self._seed = seed
        self._custom_placement = custom_placement
        self._placement_spec = placement_spec
        self._closed = False
        # Scheme/catalogue mutations are serialised by one lock: entanglement
        # is a single helical lattice with a monotonic write position, so
        # encodes cannot proceed in parallel anyway -- concurrency lives in
        # the block writes and the group-committed WAL, both outside it.
        self._state_lock = threading.RLock()
        self._checkpoint_lock = threading.Lock()
        self._mutation_seq = 0
        # A durable service always has a WAL; a volatile one never does.
        self._wal: Optional[MetadataWAL] = (
            MetadataWAL(os.path.join(data_dir, WAL_NAME), fsync=fsync)
            if data_dir is not None
            else None
        )
        # Live-transition state: while a cross-family migration is in
        # flight, ``_transition.pending`` names the documents still encoded
        # under ``_fallback`` (the retained source scheme); reads of those
        # route through the fallback, everything else through ``_scheme``.
        self._transition: Optional[TransitionPlan] = None
        self._fallback: Optional[RedundancyScheme] = None
        # AE services carry the parameter-epoch ledger of Sec. III-B: every
        # live alpha raise appends an epoch, so tooling can answer "which
        # parameters protect block i" across the scheme's whole history.
        params = getattr(scheme, "params", None)
        self._epochs: Optional[EpochHistory] = (
            EpochHistory.starting_with(params)
            if isinstance(params, AEParameters)
            else None
        )

    @classmethod
    def open(
        cls, config: Optional[StorageConfig] = None, **overrides: object
    ) -> "StorageService":
        """Open a service from a config (plus keyword overrides).

        With a persistent ``backend`` and a ``data_dir`` that already holds a
        manifest, this *reopens* the stored service: the cluster directory is
        rebuilt from the backends, the document catalogue and the scheme's
        write position are restored from the manifest, and the returned
        service serves byte-exact reads (and repair, and further writes) of
        the pre-existing data.
        """
        config = replace(config or StorageConfig(), **overrides)
        if config.shards not in (None, 1):
            raise InvalidParametersError(
                f"shards={config.shards} needs the sharded front-end; open "
                "the config with repro.system.open_service (or "
                "ShardedStorageService.open) instead"
            )
        scheme = config.resolve_scheme()
        manifest = cls._load_manifest(config.data_dir)
        plan: Optional[TransitionPlan] = None
        if manifest is not None:
            if "transition" in manifest:
                plan = TransitionPlan.from_dict(manifest["transition"])  # type: ignore[arg-type]
            stored_scheme = manifest.get("scheme")
            if stored_scheme != scheme.scheme_id:
                if plan is None or scheme.scheme_id not in (plan.source, plan.target):
                    raise InvalidParametersError(
                        f"data_dir {config.data_dir!r} holds a {stored_scheme!r} "
                        f"service, not {scheme.scheme_id!r}"
                    )
                # A crash mid-transition, reopened under the other endpoint:
                # the manifest names the scheme that owns the catalogue right
                # now; open under it, then resume the interrupted switch below.
                scheme = schemes.get(str(stored_scheme), block_size=scheme.block_size)
            # Compare against the resolved scheme's block size: a config may
            # carry a scheme *instance* whose block size differs from the
            # config field (which the instance path never reads).
            if int(manifest.get("block_size", scheme.block_size)) != scheme.block_size:
                raise InvalidParametersError(
                    f"data_dir {config.data_dir!r} was written with block size "
                    f"{manifest.get('block_size')}, not {scheme.block_size}"
                )
            opening_backend = (
                config.cluster.backend_spec
                if config.cluster is not None
                else config.backend
            )
            stored_backend = manifest.get("backend", opening_backend)
            if stored_backend != opening_backend:
                raise InvalidParametersError(
                    f"data_dir {config.data_dir!r} was written with the "
                    f"{stored_backend!r} backend, not {opening_backend!r}"
                )
        seed = config.seed
        custom_placement = (
            isinstance(config.placement, PlacementPolicy)
            or config.cluster is not None
        )
        placement_spec = (
            config.placement if isinstance(config.placement, str) else None
        )
        topology = config.resolve_topology()
        if manifest is not None:
            seed = int(manifest.get("seed", seed))
            # Placement only steers *new* writes (reads follow the block
            # directory), but silently switching policies on reopen would
            # scatter a curated layout -- demand the original policy back.
            # Registry-named policies are stored in the manifest and restored
            # automatically; policy *instances* must be supplied again.
            if bool(manifest.get("custom_placement", False)) and not custom_placement:
                raise InvalidParametersError(
                    f"data_dir {config.data_dir!r} was written with a custom "
                    "placement policy; reopen it with the same placement "
                    "(StorageConfig(placement=...))"
                )
            if placement_spec is None and not custom_placement:
                stored_spec = manifest.get("placement_spec")
                placement_spec = str(stored_spec) if stored_spec else None
            # A site / rack layout is stored whole and must be matched whole;
            # a flat one is stored as its ``location_count`` alone and pins
            # nothing but that count.
            stored = manifest.get("topology")
            stored_topology = (
                Topology.from_dict(stored)
                if stored is not None
                else Topology.flat(
                    int(manifest.get("location_count", DEFAULT_LOCATION_COUNT))
                )
            )
            if topology is None:
                topology = stored_topology
            elif topology.node_count != stored_topology.node_count or (
                stored is not None and topology != stored_topology
            ):
                raise InvalidParametersError(
                    f"data_dir {config.data_dir!r} was written with a "
                    f"different topology ({stored_topology.describe()}); "
                    "reopen it with the stored topology or none at all"
                )
        cluster = config.cluster
        if cluster is None:
            if topology is None:
                topology = Topology.flat(DEFAULT_LOCATION_COUNT)
            if isinstance(config.placement, PlacementPolicy):
                placement = config.placement
            elif placement_spec is not None:
                placement = placement_registry.get(
                    placement_spec,
                    topology,
                    params=getattr(scheme, "params", None),
                    seed=seed,
                )
            else:
                placement = scheme.default_placement(topology, seed=seed)
            cluster = StorageCluster(
                topology,
                placement,
                backend=config.backend,
                root=config.data_dir,
                cache_blocks=config.cache_blocks,
                fsync=config.fsync,
            )
        service = cls(
            scheme,
            cluster,
            batch_blocks=config.batch_blocks,
            data_dir=config.data_dir,
            fsync=config.fsync,
            seed=seed,
            custom_placement=custom_placement,
            placement_spec=placement_spec,
        )
        wal_groups: List[WalGroup] = (
            service._wal.recovered_groups() if service._wal is not None else []
        )
        service._transition = plan
        scheme_state: Optional[Dict[str, object]] = None
        if manifest is not None:
            manifest_path = os.path.join(str(config.data_dir), MANIFEST_NAME)
            for name, entry in manifest.get("documents", {}).items():
                service._documents[name] = _read_document(
                    name, entry, scheme.block_size, manifest_path
                )
            scheme_state = manifest.get("scheme_state", {})
            stored_epochs = manifest.get("epochs")
            if stored_epochs is not None and service._epochs is not None:
                service._epochs = EpochHistory(
                    [
                        ParameterEpoch(int(first), AEParameters(int(a), int(s), int(p)))
                        for first, a, s, p in stored_epochs
                    ]
                )
        if wal_groups:
            # Reopen = last checkpoint + committed WAL tail (a crash may have
            # happened any time after the last checkpoint; the log holds the
            # mutations the manifest has not absorbed yet).
            scheme_state = service._replay_wal(wal_groups, scheme_state)
        if scheme_state is not None:
            scheme.restore_state(scheme_state, cluster)
        if config.data_dir is not None and (
            manifest is None
            or wal_groups
            or service._manifest_settings() != _settings_of(manifest)
        ):
            # Collapse a replayed tail into a fresh checkpoint so the next
            # crash window -- and a resumed transition's first record --
            # starts from an empty log, bound to the scheme that owns it.
            # With an empty log, a manifest whose settings this open kept
            # already says everything: a clean reopen rewrites nothing.
            service._checkpoint()
        if plan is not None:
            # Finish what the crash interrupted before serving anything: the
            # plan plus the replayed WAL name exactly the remaining work.
            service.transition_to(plan.target)
        return service

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @property
    def data_dir(self) -> Optional[str]:
        """Root directory of a durable service, ``None`` when volatile."""
        return self._data_dir

    @staticmethod
    def _load_manifest(data_dir: Optional[str]) -> Optional[Dict[str, object]]:
        if data_dir is None:
            return None
        legacy_plan = os.path.join(data_dir, "transition.json")
        if os.path.exists(legacy_plan):
            raise InvalidParametersError(
                f"{legacy_plan!r} is the transition plan of an older version "
                "(plans now live in the manifest); finish the transition with "
                "the version that started it before reopening"
            )
        return read_json(
            os.path.join(data_dir, MANIFEST_NAME), "service manifest", MANIFEST_FORMAT
        )

    def _sync_manifest(self) -> None:
        """Atomically persist the service catalogue next to the block data.

        The checkpoint half of the metadata story: mutations since the last
        call live in the WAL, so a process crash loses at most the in-flight
        document, never the catalogue of completed ones.  With ``fsync``
        enabled the manifest is forced to stable storage, extending the
        guarantee to power loss.
        """
        if self._data_dir is None:
            return
        os.makedirs(self._data_dir, exist_ok=True)
        manifest = self._manifest_settings()
        manifest["scheme_state"] = self._scheme.state()
        manifest["documents"] = {
            name: {
                "data_ids": _encode_id_runs(document.data_ids),
                "length": document.length,
            }
            for name, document in self._documents.items()
        }
        if self._transition is not None:
            manifest["transition"] = self._transition.to_dict()
        write_json(
            os.path.join(self._data_dir, MANIFEST_NAME), manifest, fsync=self._fsync
        )

    def _manifest_settings(self) -> Dict[str, object]:
        """The manifest's fields that say how the service is built: all but
        the catalogue, the scheme state and a transition plan."""
        settings: Dict[str, object] = {
            "format": MANIFEST_FORMAT,
            "scheme": self._scheme.scheme_id,
            "block_size": self._scheme.block_size,
            "location_count": self._cluster.location_count,
            "backend": self._cluster.backend_spec,
            "seed": self._seed,
            "custom_placement": self._custom_placement,
        }
        if not self._cluster.topology.is_flat():
            settings["topology"] = self._cluster.topology.to_dict()
        if self._placement_spec is not None:
            settings["placement_spec"] = self._placement_spec
        if self._epochs is not None:
            settings["epochs"] = [
                [epoch.first_index, epoch.params.alpha, epoch.params.s, epoch.params.p]
                for epoch in self._epochs
            ]
        return settings

    def _replay_wal(
        self,
        groups: List[WalGroup],
        scheme_state: Optional[Dict[str, object]],
    ) -> Optional[Dict[str, object]]:
        """Apply the committed WAL tail on top of the manifest checkpoint.

        Replay is idempotent (``put_doc`` overwrites, ``delete_doc`` pops if
        present, the newest ``scheme_state`` wins), which is what makes the
        crash window between "manifest written" and "WAL reset" safe: the
        tail is simply applied again over the checkpoint that already
        contains it.  Returns the scheme state to restore.
        """
        state = scheme_state
        state_seq = -1
        plan = self._transition
        pending = plan.pending if plan is not None else set()
        # Whether the current WAL epoch was written under ``_scheme``.
        # Normally always; the tail a transition's own checkpoint has not
        # reset yet is bound to the other side of the switch: its documents
        # still owe their migration and its scheme-state snapshots must not
        # be restored into the primary scheme.
        ours = True
        for group in groups:
            for op in group.ops:
                kind = op.get("op")
                if kind == "put_doc":
                    name = str(op["name"])
                    self._documents[name] = _read_document(
                        name, op, self.block_size, self._wal.path  # type: ignore[union-attr]
                    )
                    if ours:
                        pending.discard(name)
                elif kind == "delete_doc":
                    self._documents.pop(str(op["name"]), None)
                    if ours:
                        pending.discard(str(op["name"]))
                elif kind == "scheme_state":
                    seq = int(op.get("seq", 0))  # type: ignore[arg-type]
                    if ours and seq >= state_seq:
                        state = op.get("state", {})  # type: ignore[assignment]
                        state_seq = seq
                elif kind == "placement":
                    self._check_wal_binding(op)
                    if "scheme" in op:
                        ours = op["scheme"] == self._scheme.scheme_id
                else:
                    raise InvalidParametersError(
                        f"unknown WAL record type {kind!r} in "
                        f"{self._data_dir!r}; the log was written by an "
                        "incompatible version or corrupted"
                    )
        return state

    def _check_wal_binding(self, op: Dict[str, object]) -> None:
        """Reject a WAL tail that was written by a different service."""
        if "scheme" not in op:
            return  # informational placement record (e.g. repair relocations)
        stored_scheme = op.get("scheme")
        stored_block_size = int(op.get("block_size", self._scheme.block_size))  # type: ignore[arg-type]
        stored_backend = op.get("backend", self._cluster.backend_spec)
        allowed_schemes = {self._scheme.scheme_id}
        if self._transition is not None:
            # Mid-transition, the log tail may straddle the scheme switch:
            # epochs bound to either side of the recorded plan are ours.
            allowed_schemes.update(
                (self._transition.source, self._transition.target)
            )
        if (
            stored_scheme not in allowed_schemes
            or stored_block_size != self._scheme.block_size
            or stored_backend != self._cluster.backend_spec
        ):
            raise InvalidParametersError(
                f"WAL in {self._data_dir!r} was written by a "
                f"{stored_scheme!r} service (block size {stored_block_size}, "
                f"backend {stored_backend!r}); it does not belong to this "
                f"{self._scheme.scheme_id!r} service"
            )

    def _binding_record(self) -> Dict[str, object]:
        """The header record opening every fresh WAL epoch."""
        return {
            "op": "placement",
            "scheme": self._scheme.scheme_id,
            "block_size": self._scheme.block_size,
            "backend": self._cluster.backend_spec,
            "location_count": self._cluster.location_count,
            "seed": self._seed,
            "custom_placement": self._custom_placement,
        }

    def _next_mutation(self) -> int:
        """Monotonic mutation sequence (call with the state lock held)."""
        self._mutation_seq += 1
        return self._mutation_seq

    def _document_ops(self, documents: Sequence[StoredDocument]) -> List[Dict[str, object]]:
        """WAL records of one landing: a ``put_doc`` per document and one
        scheme-state snapshot (call with the state lock held).

        The scheme state is snapshotted in the same critical section as the
        catalogue update, after every encode of the landing, so replaying
        the newest surviving snapshot always covers every catalogued
        document's blocks.  A volatile service has no log to write them to.
        """
        if self._wal is None:
            return []
        seq = self._next_mutation()
        ops: List[Dict[str, object]] = [
            {
                "op": "put_doc",
                "name": document.name,
                "data_ids": _encode_id_runs(document.data_ids),
                "length": document.length,
            }
            for document in documents
        ]
        ops.append({"op": "scheme_state", "state": self._scheme.state(), "seq": seq})
        return ops

    def _commit_meta(self, ops: List[Dict[str, object]]) -> None:
        """Durably record one mutation's metadata.

        Appends one group-committed batch of records to the WAL (concurrent
        mutators share a single fsync) and checkpoints once the log is long
        enough.  Volatile services have no WAL and skip both.
        """
        wal = self._wal
        if wal is None:
            return
        if wal.size_bytes == 0:
            # Open the fresh epoch with the binding header; a duplicate from
            # a racing mutator is harmless (replay just validates it twice).
            ops = [self._binding_record()] + ops
        wal.commit(ops)
        if wal.size_bytes >= WAL_CHECKPOINT_BYTES:
            self._checkpoint()

    def _checkpoint(self) -> None:
        """Collapse the WAL into ``manifest.json`` and reset the log.

        Runs under the state lock: every mutation that updated the catalogue
        before the snapshot is inside the manifest, and none can slip in
        between the snapshot and the reset.  A mutator that has already left
        the critical section but not yet committed its records re-appends
        them *after* the reset -- replay is idempotent, so re-applying them
        over a checkpoint that already contains them is safe.
        """
        if self._data_dir is None:
            return
        with self._checkpoint_lock:
            with self._state_lock:
                self._sync_manifest()
                if self._wal is not None:
                    self._wal.reset()

    def flush(self) -> None:
        """Push buffered writes to the medium and checkpoint the metadata.

        After ``flush`` the manifest alone describes the full catalogue
        (the WAL is empty), so external tooling may read it directly.
        """
        # A closed handle's catalogue is stale: checkpointing it would
        # overwrite whatever a later open of the same root has committed.
        self._ensure_open()
        self._cluster.flush()
        self._checkpoint()

    def close(self) -> None:
        """Checkpoint the metadata and close every location's backend.

        After ``close`` the service must not be used; reopen it with
        ``StorageService.open(StorageConfig(scheme=..., backend=...,
        data_dir=...))`` on the same root.  Idempotent.
        """
        if self._closed:
            return
        self._checkpoint()
        if self._wal is not None:
            self._wal.close()
        self._cluster.close()
        self._closed = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def scheme(self) -> RedundancyScheme:
        return self._scheme

    @property
    def capabilities(self) -> SchemeCapabilities:
        return self._scheme.capabilities()

    @property
    def cluster(self) -> StorageCluster:
        return self._cluster

    @property
    def topology(self) -> Topology:
        """The cluster's site -> rack -> node layout."""
        return self._cluster.topology

    @property
    def block_size(self) -> int:
        return self._scheme.block_size

    @property
    def batch_blocks(self) -> int:
        return self._batch_blocks

    @property
    def documents(self) -> Dict[str, StoredDocument]:
        with self._state_lock:
            return dict(self._documents)

    @property
    def transition(self) -> Optional[TransitionPlan]:
        """The in-flight transition plan, ``None`` when settled."""
        return self._transition

    @property
    def epoch_history(self) -> Optional[EpochHistory]:
        """Parameter epochs of an AE service (``None`` for stripe codes).

        Every live alpha raise appends an epoch at the lattice head:
        ``params_at(i)`` answers which setting position ``i`` was
        *entangled* under.  (The raise also back-fills the new strand
        classes over earlier epochs, so the newest epoch's parameters
        protect the whole lattice.)
        """
        return self._epochs

    def _generations(
        self, block_ids: Set[BlockId]
    ) -> List[Tuple[RedundancyScheme, Set[BlockId]]]:
        """``block_ids`` split by the scheme that owns them: while a re-encode
        is in flight, the retained source's blocks and the target's rest."""
        fallback = self._fallback
        if fallback is None:
            return [(self._scheme, block_ids)]
        old = {block_id for block_id in block_ids if fallback.owns(block_id)}
        return [(fallback, old), (self._scheme, block_ids - old)]

    def status(self) -> ServiceStatus:
        stats = self._cluster.stats()
        unavailable = self._cluster.unavailable_blocks()
        return ServiceStatus(
            scheme=self._scheme.scheme_id,
            blocks=stats.blocks,
            unavailable_blocks=len(unavailable),
            unavailable_data_blocks=sum(
                sum(map(scheme.is_data_block, owned))
                for scheme, owned in self._generations(unavailable)
            ),
            locations=stats.locations,
            unavailable_locations=stats.locations - stats.available_locations,
            documents=len(self._documents),
            bytes_stored=stats.bytes_stored,
            cache_hits=stats.cache_hits,
            cache_misses=stats.cache_misses,
        )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, name: str, data: bytes) -> StoredDocument:
        """Encode and store a document, returning its handle.

        Re-using a name replaces the document: for erasable schemes the
        blocks of the previous version are deleted once the new version is
        fully stored.
        """
        self._ensure_open()
        if not memoryview(data).readonly:
            # Blocks are stored as zero-copy views of the buffer they were
            # cut from: a buffer the caller can still write to would change
            # a stored data block under its parities.  ``bytes`` stays
            # zero-copy.
            data = bytes(data)
        return self._land([(name, (data,))])[0][0]

    def put_stream(self, name: str, chunks: Iterable[bytes]) -> StoredDocument:
        """Encode and store a document from an iterable of byte chunks.

        Chunks of arbitrary sizes are re-blocked into batches of up to
        ``batch_blocks`` blocks, cut at whole stripes (:meth:`_chunk_blocks`);
        each batch is encoded in one scheme pass and persisted through the
        cluster's bulk write path, so at most one batch is buffered in memory
        besides the one being cut.  Empty documents and payloads that are not
        a multiple of the block size round-trip byte-exact (the final block is
        zero-padded for encoding; padding is stripped on read).

        If ``chunks`` raises mid-stream the exception propagates and no
        document is recorded; see :meth:`_land` for what becomes of the
        batches already stored.
        """
        self._ensure_open()
        batch_bytes = self._chunk_blocks() * self.block_size

        def batches() -> Iterator[bytearray]:
            buffer = bytearray()
            for chunk in chunks:
                buffer += chunk
                while len(buffer) >= batch_bytes:
                    yield buffer[:batch_bytes]
                    del buffer[:batch_bytes]
            if buffer:
                yield buffer

        return self._land([(name, batches())])[0][0]

    def _chunk_blocks(self) -> int:
        """Blocks per chunk of a streamed write (``put_stream``, a long
        document's move): ``batch_blocks`` cut down to whole stripes of the
        scheme, and never less than one stripe.  A chunk that ended inside a
        stripe would store a zero-padded stripe that one put never does."""
        width = self._scheme.stripe_data_blocks
        return max(width, self._batch_blocks - self._batch_blocks % width)

    def _land(
        self, documents: Sequence[Tuple[str, Iterable[Union[bytes, bytearray]]]]
    ) -> Tuple[List[StoredDocument], int, int]:
        """Land new versions of ``documents`` (``(name, chunks)`` pairs): the
        one way a document is written.

        ``put`` and ``put_stream`` land one document; :meth:`_move_in` (a
        re-encode or a shard move) lands one batch.  Each document is encoded
        on its own, one ``scheme.encode`` per chunk, so its ids and stripes
        are what a put of it alone would lay down.  Encoded blocks go to the
        cluster in one ``put_many`` whenever the buffered input reaches
        ``batch_blocks``, and once at the end: a batch of short documents is
        one bulk write, a long document streams.  Once every document is
        stored, the versions are catalogued and committed to the WAL as one
        group, and only then are the versions they replaced reclaimed in one
        delete -- each under the scheme that encoded it, mid-transition the
        fallback.  A crash between commit and reclaim leaks the old versions'
        blocks as orphans (a whole batch of them for a re-encode), but never
        loses a committed document.  Returns the documents with the counts of
        blocks written and reclaimed.

        If anything raises before the versions are catalogued (a chunk
        source, a location that is down or full), an erasable scheme deletes
        the blocks stored so far, so a failed write strands nothing.
        Entanglement stays append-only by design: its blocks, once in the
        lattice, protect their neighbourhood whether or not a document names
        them.
        """
        ids: List[List[object]] = [[] for _ in documents]
        lengths = [0] * len(documents)
        pending: List[Tuple[int, Union[bytes, bytearray]]] = []
        written = buffered = 0
        block_size = self.block_size

        def store() -> int:
            with self._state_lock:
                # Encode *and* block write share the critical section: the
                # lattice has one monotonic write position, and any
                # scheme-state snapshot (WAL record or checkpoint) taken
                # under this lock must only ever cover encodes whose blocks
                # are already on the medium -- restore refetches the strand
                # heads from storage.
                blocks: List[Tuple[object, Payload]] = []
                for slot, chunk in pending:
                    part = self._scheme.encode(chunk)
                    ids[slot].extend(part.data_ids)
                    blocks.extend(part.blocks)
                pending.clear()
                return self._cluster.put_many(blocks)

        stored = False
        try:
            for slot, (_, chunks) in enumerate(documents):
                for chunk in chunks:
                    pending.append((slot, chunk))
                    lengths[slot] += len(chunk)
                    buffered += -(-len(chunk) // block_size)
                    if buffered >= self._batch_blocks:
                        written += store()
                        buffered = 0
            if pending:
                written += store()
            stored = True
        finally:
            if not stored:
                self._reclaim([(self._scheme, [i for slot in ids for i in slot])])
        landed = [
            StoredDocument(name=name, data_ids=data_ids, length=length)
            for (name, _), data_ids, length in zip(documents, ids, lengths)
        ]
        with self._state_lock:
            replaced: List[Tuple[RedundancyScheme, List[object]]] = []
            for document in landed:
                previous = self._documents.get(document.name)
                if previous is not None:
                    replaced.append((self._scheme_for(document.name), previous.data_ids))
                self._documents[document.name] = document
                if self._transition is not None:
                    # The new version is target-encoded: whatever migration
                    # the name was owed is done.
                    self._transition.pending.discard(document.name)
            ops = self._document_ops(landed)
        # The metadata commit runs outside the lock: that is where
        # concurrent mutators pile up and the WAL batches their fsyncs
        # into one group commit.
        self._commit_meta(ops)
        return landed, written, self._reclaim(replaced)

    def _move_in(
        self, names: Sequence[str], source: "StorageService"
    ) -> Tuple[List[StoredDocument], int, int]:
        """Move documents ``names`` here from ``source`` -- another service (a
        shard rebalance, one document) or this one (a re-encode, one batch):
        the one way a document changes home.

        The names must share one encoding scheme in ``source`` (the one
        ``source._scheme_for`` names; a re-encode's batch is all pending).  A
        batch of at most ``batch_blocks`` data blocks is read in one
        :meth:`_read_payloads` -- one bulk fetch and one degraded repair pass
        -- and landed through :meth:`_land`, whose ``(documents, written,
        reclaimed)`` it returns.  A lone longer document streams instead,
        read and landed :meth:`_chunk_blocks` blocks at a time.  Deleting
        another source's copy is the caller's next step."""
        scheme = source._scheme_for(names[0])
        documents = [source._document(name) for name in names]
        size = source.block_size
        if len(documents) == 1 and documents[0].block_count > self._batch_blocks:
            document = documents[0]
            step = self._chunk_blocks()

            def chunks() -> Iterator[bytes]:
                for start in range(0, document.block_count, step):
                    part = document.data_ids[start : start + step]
                    payloads = source._read_payloads(part, scheme=scheme)
                    yield join_blocks(payloads, document.length - start * size)

            return self._land([(document.name, chunks())])
        payloads = source._read_payloads(
            [block_id for document in documents for block_id in document.data_ids],
            scheme=scheme,
        )
        batch: List[Tuple[str, List[bytes]]] = []
        start = 0
        for document in documents:
            end = start + document.block_count
            batch.append((document.name, [join_blocks(payloads[start:end], document.length)]))
            start = end
        return self._land(batch)

    def _reclaim(self, versions: Sequence[Tuple[RedundancyScheme, Sequence[object]]]) -> int:
        """Delete, in one batch, every block backing each ``(scheme,
        data_ids)`` version under the scheme that encoded it; returns the
        count (0 for append-only entanglement)."""
        doomed = [
            block_id
            for scheme, data_ids in versions
            if scheme.capabilities().erasable
            for block_id in scheme.document_blocks(data_ids)
        ]
        return self._cluster.delete_blocks(doomed) if doomed else 0

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get_block(self, block_id: object) -> Payload:
        """Read one block, repairing it through the scheme when unreachable."""
        self._ensure_open()
        with self._state_lock:
            return self._scheme.read_block(block_id, self._cluster)

    def _read_payloads(
        self, data_ids: List[object], scheme: Optional[RedundancyScheme] = None
    ) -> List[Payload]:
        """Bulk-read payloads, repairing unreachable blocks in one batch.

        Healthy blocks arrive through the cluster's grouped
        :meth:`~repro.storage.cluster.StorageCluster.try_get_many`; the
        unreachable ones are rebuilt together in a single scheme repair pass
        over the cluster (a *degraded read*: nothing is written back --
        restoring redundancy is :meth:`repair`'s job).  That pass is the
        same one :meth:`repair` runs, so a document reads exactly when
        ``repair()`` would not list one of its blocks as unrecovered;
        otherwise :class:`~repro.exceptions.RepairFailedError` names the
        first of them.

        ``scheme`` selects the scheme that encoded the blocks; mid-
        transition reads of not-yet-migrated documents pass the fallback.
        """
        self._ensure_open()
        scheme = scheme if scheme is not None else self._scheme
        payloads = self._cluster.try_get_many(data_ids)
        missing = [
            data_id
            for data_id, payload in zip(data_ids, payloads)
            if payload is None
        ]
        if missing:
            # Degraded reads walk the scheme's lattice/stripe structures, so
            # they serialise against concurrent encodes; healthy reads (the
            # branch above) never touch the scheme and stay lock-free.
            with self._state_lock:
                outcome = scheme.repair(set(missing), self._cluster)
            if outcome.unrecovered:
                raise RepairFailedError(outcome.unrecovered[0], "no available recovery path")
            for position, payload in enumerate(payloads):
                if payload is None:
                    payloads[position] = outcome.recovered[data_ids[position]]
        return payloads

    def _scheme_for(self, name: str) -> RedundancyScheme:
        """The scheme that currently encodes document ``name``.

        Outside a transition this is always ``_scheme``.  During a cross-
        family migration, documents still listed in the plan's pending set
        are encoded under the retained source scheme -- the fallback read
        path that keeps every document byte-exact mid-transition.
        """
        plan = self._transition
        if (
            plan is not None
            and self._fallback is not None
            and name in plan.pending
        ):
            return self._fallback
        return self._scheme

    def get(self, name: str) -> bytes:
        """Read a full document back, repairing blocks as needed."""
        # Scheme first, catalogue second: if a transition migrates the
        # document between the two reads we pair the *new* block ids with
        # the old scheme -- harmless, since healthy reads never consult the
        # scheme.  (The concurrent front-end additionally excludes readers
        # from a document's migration window via its stripe locks.)
        scheme = self._scheme_for(name)
        document = self._document(name)
        return join_blocks(
            self._read_payloads(document.data_ids, scheme=scheme), document.length
        )

    def get_stream(self, name: str) -> Iterator[bytes]:
        """Stream a document back, repairing as needed.

        Blocks are read in batches of up to ``batch_blocks`` through the bulk
        degraded-read path and yielded one at a time, so at most one batch of
        payloads is buffered in memory.
        """
        scheme = self._scheme_for(name)
        document = self._document(name)

        def blocks() -> Iterator[bytes]:
            remaining = document.length
            data_ids = document.data_ids
            for start in range(0, len(data_ids), self._batch_blocks):
                batch = data_ids[start : start + self._batch_blocks]
                for payload in self._read_payloads(batch, scheme=scheme):
                    take = min(remaining, self.block_size)
                    yield payload_to_bytes(payload, take)
                    remaining -= take

        return blocks()

    def _document(self, name: str) -> StoredDocument:
        if name not in self._documents:
            raise UnknownBlockError(f"unknown document {name!r}")
        return self._documents[name]

    def has_document(self, name: str) -> bool:
        """Whether ``name`` is in the catalogue (no blocks are touched)."""
        with self._state_lock:
            return name in self._documents

    def service_for(self, name: str) -> "StorageService":
        """The plain service holding ``name``: this one (the front-end
        unwraps, the federation routes)."""
        return self

    # ------------------------------------------------------------------
    # Deletes
    # ------------------------------------------------------------------
    def delete(self, name: str) -> List[object]:
        """Delete a document, returning the block ids physically removed.

        For erasable schemes (all stripe codes) every block backing the
        document -- data, redundancy and stripe padding -- is removed from
        its location and from the cluster's placement index.  For
        entanglement the lattice is append-only, so only the document
        metadata is dropped and the returned list is empty; the blocks keep
        protecting their lattice neighbourhood.
        """
        self._ensure_open()
        with self._state_lock:
            document = self._document(name)
            scheme = self._scheme_for(name)
            del self._documents[name]
            if self._transition is not None:
                self._transition.pending.discard(name)
            seq = self._next_mutation()
            ops: List[Dict[str, object]] = [
                {"op": "delete_doc", "name": name, "seq": seq}
            ]
        # Uncatalogue first, reclaim second (the mirror of put's ordering):
        # a crash mid-delete leaves orphan blocks, never a catalogued
        # document whose payloads are already gone.
        self._commit_meta(ops)
        if not scheme.capabilities().erasable:
            return []
        with self._state_lock:
            removed: List[object] = [
                block_id
                for block_id in scheme.document_blocks(document.data_ids)
                if self._cluster.knows(block_id)
            ]
            self._cluster.delete_blocks(removed)
        return removed

    # ------------------------------------------------------------------
    # Scheme transitions
    # ------------------------------------------------------------------
    def transition_to(
        self, scheme: Union[str, RedundancyScheme], doc_guard: Optional[DocumentGuard] = None
    ) -> Optional[TransitionReport]:
        """Migrate this live service to another redundancy scheme.

        Runs a :class:`~repro.system.transitions.TransitionEngine` to
        completion: an AE alpha raise encodes the stored data once more and
        writes only the parities the cluster lacks -- the new strand class
        (zero data blocks rewritten) -- a puncturing change
        regenerates-then-deletes parities, and any cross-family pair
        streams documents through a re-encode with new blocks committed
        before old blocks are deleted.  Reads stay byte-exact throughout --
        documents not yet migrated are served by the retained source
        scheme.  On a durable service the plan is persisted in the manifest
        checkpoint.  A run that did not finish -- it raised, or the process
        died after that first checkpoint -- is resumed by this same call to
        the same target (:meth:`open` makes it); any other target is refused
        until then.  Returns ``None`` when already on the target.

        ``doc_guard`` (used by the concurrent front-end) takes the names of
        one re-encode batch and yields a context manager excluding their
        readers for the batch's copy-commit-delete window.  The bare service
        assumes the single-mutator discipline documented for :meth:`put`.
        """
        self._ensure_open()
        target = (
            scheme
            if isinstance(scheme, RedundancyScheme)
            else schemes.get(str(scheme), block_size=self.block_size)
        )
        plan = self._transition
        if plan is not None:
            if target.scheme_id != plan.target:
                raise InvalidParametersError(
                    f"a {plan.kind} transition to {plan.target!r} is in "
                    f"flight; finish it with transition_to({plan.target!r}) "
                    f"before moving on to {target.scheme_id!r}"
                )
            if plan.pending and self._fallback is None:
                # Reopened mid-migration: rebuild the source scheme from its
                # frozen state so pending documents keep their read path.
                fallback = schemes.get(plan.source, block_size=self.block_size)
                fallback.restore_state(dict(plan.source_state), self._cluster)
                self._fallback = fallback
        return TransitionEngine(self, target, doc_guard=doc_guard).run()

    def _record_epoch(self, params: AEParameters) -> None:
        """Append a parameter epoch at the current lattice head (call with
        the state lock held)."""
        if self._epochs is None:
            self._epochs = EpochHistory.starting_with(params)
            return
        position = self._scheme.entangler.blocks_encoded + 1  # type: ignore[attr-defined]
        epochs = self._epochs.epochs
        if epochs and epochs[-1].first_index >= position:
            # The previous setting never encoded a block at this position;
            # the new parameters simply take over its slot.
            epochs[-1] = ParameterEpoch(epochs[-1].first_index, params)
        else:
            self._epochs.change(position, params)

    # ------------------------------------------------------------------
    # Failures and repair
    # ------------------------------------------------------------------
    def fail_locations(self, location_ids: Iterable[int]) -> None:
        self._ensure_open()
        self._cluster.fail_locations(location_ids)

    def restore_locations(self, location_ids: Optional[Iterable[int]] = None) -> None:
        self._ensure_open()
        self._cluster.restore_locations(location_ids)

    def repair(
        self, policy: MaintenancePolicy = MaintenancePolicy.FULL
    ) -> ServiceRepairReport:
        """Rebuild the unreachable blocks through the scheme's repair path.

        Recovered payloads are written back to healthy locations (the
        placement index is updated), so a subsequent location restore cannot
        resurrect stale replicas as the only copy.  While a re-encode
        transition is in flight the cluster holds two generations of blocks;
        each is repaired by the scheme that encoded it (the retained source
        for documents not yet migrated, the target for the rest) and the two
        outcomes are merged into one report.

        ``policy`` is how much maintenance to do (paper, Sec. V): ``FULL``
        rebuilds every unreachable block; ``MINIMAL`` rebuilds and writes
        back data blocks only -- a data block with no complete tuple left is
        reached through the redundancy in between, which the scheme rebuilds
        as intermediates and drops -- and ``NONE`` repairs, relocates and
        logs nothing.
        What the policy left alone comes back in ``skipped``.
        """
        self._ensure_open()
        with self._state_lock:
            unavailable = self._cluster.unavailable_blocks()
            if policy is MaintenancePolicy.FULL:
                wanted = unavailable
            elif policy is MaintenancePolicy.MINIMAL:
                wanted = {
                    block_id
                    for scheme, owned in self._generations(unavailable)
                    for block_id in filter(scheme.is_data_block, owned)
                }
            else:
                wanted = set()
            report = self._rebuild(wanted)
            report.skipped.extend(unavailable - wanted)
        self._log_placement(report)
        for listed in (report.repaired, report.skipped):
            listed.sort(key=_block_order)
        return report

    def _rebuild(
        self, wanted: Set[BlockId], hidden: AbstractSet[object] = frozenset()
    ) -> ServiceRepairReport:
        """Rebuild ``wanted`` and store it: the one routine :meth:`repair`
        and :meth:`scrub` share (call it under the state lock, and
        :meth:`_log_placement` after it).

        Each generation's blocks go to the scheme that encoded them, read
        through a source that reports every ``hidden`` block unavailable --
        a scrub hides its suspects, so none is an input of another's
        rebuild -- and land through ``relocate_many``, which keeps a usable
        assigned location: a bad copy is overwritten where it is.  One a
        rebuild puts elsewhere is dropped, so no reopen can pick it up.
        """
        report = ServiceRepairReport(scheme=self._scheme.scheme_id)
        cluster = self._cluster
        avoid = tuple(cluster.unavailable_locations())
        source: BlockSource = _Hiding(cluster, hidden) if hidden else cluster
        for scheme, owned in self._generations(wanted):
            if not owned:
                continue
            outcome = scheme.repair(owned, source)
            stale = {b: cluster.location_of(b) for b in outcome.recovered if b in hidden}
            placed = cluster.relocate_many(outcome.recovered.items(), avoid=avoid)
            for block_id, location in stale.items():
                if placed[block_id] != location:
                    cluster.location(location).delete_many([block_id])
            report.repaired.extend(outcome.recovered)
            report.unrecovered.extend(outcome.unrecovered)
            report.blocks_read += outcome.blocks_read
            report.rounds = max(report.rounds, outcome.rounds)
            report.data_loss += sum(map(scheme.is_data_block, outcome.unrecovered))
        return report

    def _rewrite(self, suspects: Set[BlockId]) -> ServiceRepairReport:
        """Rebuild ``suspects`` in place, each hidden from every rebuild."""
        with self._state_lock:
            report = self._rebuild(suspects, hidden=suspects)
        self._log_placement(report)
        return report

    def _log_placement(self, report: ServiceRepairReport) -> None:
        if report.repaired:
            # An informational WAL record: blocks moved, giving the log a
            # durability point (the directory itself is rebuilt from
            # backend scans on reopen, so replay ignores the content).
            self._commit_meta([{"op": "placement", "relocated": len(report.repaired)}])

    def scrub(self) -> ServiceScrubReport:
        """Check every stored block against the others and rewrite the ones
        the checks single out (paper, Sec. III-B: a changed block breaks the
        entanglement equations it is part of).

        Each scheme generation checks itself (mid-transition, the retained
        source too): the equation pass under AE, a re-encode of every
        readable stripe under a stripe code.  The suspects are rebuilt
        through :meth:`_rebuild`, hidden from their own rebuild, as
        :meth:`repair` rebuilds lost blocks; an ambiguous one is left alone.
        """
        self._ensure_open()
        report = ServiceScrubReport(scheme=self._scheme.scheme_id)
        ambiguous: List[object] = []
        with self._state_lock:
            for scheme in filter(None, (self._fallback, self._scheme)):
                outcome = scheme.scrub(self._cluster)
                report.checked += outcome.checked
                report.unchecked += outcome.unchecked
                report.violated.extend(outcome.violated)
                report.suspects.extend(outcome.suspects)
                ambiguous.extend(outcome.ambiguous)
        rebuilt = self._rewrite(set(report.suspects))
        report.repaired = sorted(rebuilt.repaired, key=_block_order)
        report.unrecovered = sorted(rebuilt.unrecovered + ambiguous, key=_block_order)
        report.suspects = sorted(report.suspects + ambiguous, key=_block_order)
        return report


def _block_order(block_id: object) -> Tuple[int, str]:
    """Report order: by block index, then spelling."""
    return (getattr(block_id, "index", 0), repr(block_id))
