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

import threading
from dataclasses import dataclass, field, replace
from typing import (
    AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar, Union,
)

import repro.schemes as schemes
from repro.core.blocks import BlockId, join_blocks
from repro.core.dynamic import EpochHistory
from repro.core.encoder import DEFAULT_BLOCK_SIZE
from repro.core.xor import Payload
from repro.exceptions import InvalidParametersError, RepairFailedError
from repro.schemes.base import BlockSource, RedundancyScheme, SchemeCapabilities
from repro.storage import placement as placement_registry
from repro.storage.cluster import StorageCluster
from repro.storage.maintenance import MaintenancePolicy
from repro.storage.placement import PlacementPolicy
from repro.storage.topology import Topology
from repro.system.catalogue import Catalogue, StoredDocument, check_binding, load_manifest
from repro.system.transitions import DocumentGuard, TransitionEngine, TransitionPlan, TransitionReport

#: Number of blocks encoded per batch by :meth:`StorageService.put_stream`.
DEFAULT_BATCH_BLOCKS = 256

#: Locations in a cluster when neither the config nor a manifest names one.
DEFAULT_LOCATION_COUNT = 100


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
    the log passes :data:`~repro.system.catalogue.WAL_CHECKPOINT_BYTES`;
    the two files are its whole durable truth, kept by its
    :class:`~repro.system.catalogue.Catalogue`, and it survives a crash at
    any point, see ``docs/persistence.md``.
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
    ``suspects`` lists every block the failed checks implicate, and every
    block the pass found unreadable: each is in
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
        self._closed = False
        # Scheme/catalogue mutations are serialised by one lock: entanglement
        # is a single helical lattice with a monotonic write position, so
        # encodes cannot proceed in parallel anyway -- concurrency lives in
        # the block writes and the group-committed WAL, both outside it.
        self._state_lock = threading.RLock()
        # The scheme a refused batch is undone on and the state it is undone
        # to, while that is owed.
        self._undo: Optional[Tuple[RedundancyScheme, Dict[str, object]]] = None
        self._catalogue = Catalogue(
            self, self._state_lock, data_dir, fsync, seed, custom_placement, placement_spec
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
        manifest = load_manifest(config.data_dir)
        if manifest is not None:
            # Check against the resolved scheme: a config may carry a scheme
            # *instance* whose block size differs from the config field
            # (which the instance path never reads).
            plan = manifest.get("transition")
            check_binding(
                manifest, scheme,
                config.cluster.backend_spec if config.cluster is not None else config.backend,
                TransitionPlan.from_dict(plan) if plan is not None else None,  # type: ignore[arg-type]
                str(config.data_dir),
            )
            if manifest["scheme"] != scheme.scheme_id:
                # A crash mid-transition, reopened under the other endpoint:
                # the manifest names the scheme that owns the catalogue right
                # now; open under it, then resume the interrupted switch below.
                scheme = schemes.get(str(manifest["scheme"]), block_size=scheme.block_size)
        seed = config.seed
        custom_placement = (
            isinstance(config.placement, PlacementPolicy) or config.cluster is not None
        )
        placement_spec = config.placement if isinstance(config.placement, str) else None
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
                Topology.from_dict(stored) if stored is not None
                else Topology.flat(int(manifest.get("location_count", DEFAULT_LOCATION_COUNT)))
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
                    placement_spec, topology, params=getattr(scheme, "params", None), seed=seed
                )
            else:
                placement = scheme.default_placement(topology, seed=seed)
            cluster = StorageCluster(
                topology, placement, backend=config.backend, root=config.data_dir,
                cache_blocks=config.cache_blocks, fsync=config.fsync,
            )
        service = cls(
            scheme, cluster, batch_blocks=config.batch_blocks, data_dir=config.data_dir,
            fsync=config.fsync, seed=seed, custom_placement=custom_placement,
            placement_spec=placement_spec,
        )
        cluster.unhold_other_sizes(scheme.block_size)  # before the heads are read
        service._catalogue.open(manifest)
        plan = service.transition
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
        return self._catalogue.data_dir

    @property
    def catalogue(self) -> Catalogue:
        """The documents, the transition plan, the epochs and their files."""
        return self._catalogue

    def flush(self) -> None:
        """Push buffered writes to the medium and checkpoint the metadata.

        After ``flush`` the manifest alone describes the full catalogue
        (the WAL is empty), so external tooling may read it directly.
        """
        # A closed handle's catalogue is stale: checkpointing it would
        # overwrite whatever a later open of the same root has committed.
        self._ensure_open()
        self._cluster.flush()
        self._catalogue.checkpoint()

    def close(self) -> None:
        """Checkpoint the metadata and close every location's backend.

        After ``close`` the service must not be used; reopen it with
        ``StorageService.open(StorageConfig(scheme=..., backend=...,
        data_dir=...))`` on the same root.  Idempotent.
        """
        if self._closed:
            return
        self._catalogue.checkpoint()
        self._catalogue.close()
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
            return dict(self._catalogue.documents)

    @property
    def transition(self) -> Optional[TransitionPlan]:
        """The in-flight transition plan, ``None`` when settled."""
        return self._catalogue.plan

    @property
    def epoch_history(self) -> Optional[EpochHistory]:
        """Parameter epochs of an AE service (``None`` for stripe codes):
        ``params_at(i)`` answers which setting position ``i`` was *entangled*
        under.  (A raise also back-fills the new strand classes over earlier
        epochs, so the newest epoch's parameters protect the whole lattice.)
        """
        return self._catalogue.epochs

    def _generations(
        self, block_ids: Set[BlockId]
    ) -> List[Tuple[RedundancyScheme, Set[BlockId]]]:
        """``block_ids`` split by the scheme that owns them: while a re-encode
        is in flight, the retained source's blocks and the target's rest."""
        fallback = self._catalogue.fallback
        if fallback is None:
            return [(self._scheme, block_ids)]
        old = {block_id for block_id in block_ids if fallback.owns(block_id)}
        return [(fallback, old), (self._scheme, block_ids - old)]

    def status(self) -> ServiceStatus:
        # One directory scan, and no per-block domain count (which the
        # cluster's ``stats()`` adds and no field here reads).
        cluster = self._cluster
        unavailable = cluster.unavailable_blocks()
        stores = list(cluster.locations())
        return ServiceStatus(
            scheme=self._scheme.scheme_id,
            blocks=len(cluster),
            unavailable_blocks=len(unavailable),
            unavailable_data_blocks=sum(
                sum(map(scheme.is_data_block, owned))
                for scheme, owned in self._generations(unavailable)
            ),
            locations=len(stores),
            unavailable_locations=sum(not store.available for store in stores),
            documents=len(self._catalogue.documents),
            bytes_stored=sum(store.bytes_stored for store in stores),
            cache_hits=sum(store.cache_hits for store in stores),
            cache_misses=sum(store.cache_misses for store in stores),
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
        one way a document is written (``put`` / ``put_stream``: one
        document; :meth:`_move_in`: one batch).  Returns the documents with
        the counts of blocks written and reclaimed.

        Each document is encoded on its own, one ``scheme.encode`` per chunk,
        so its ids and stripes are what a put of it alone would lay down;
        the blocks go to the cluster in one ``put_many`` per ``batch_blocks``
        of input and once at the end.  Once every document is stored, the
        versions are catalogued (:meth:`Catalogue.land`) and committed as one
        WAL group, and only then are the versions they replaced reclaimed in
        one delete, each under the scheme that encoded it.  A crash between
        commit and reclaim leaves orphans, never loses a committed document.

        A batch is all or nothing: if its encode or ``put_many`` raises, the
        scheme is restored to its state before it and its blocks are deleted
        wherever they landed.  An undo that cannot read the strand heads back
        stays owed in ``_undo`` until the next batch on that scheme.  Batches
        of a streamed write stored before one failed stay (lattice nodes no
        document names); an erasable scheme deletes them.
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
                # heads from storage.  So a refused batch is undone here too.
                # The ids join the documents only once stored: a refused
                # batch's ids are free again, and only the undo deletes them.
                scheme = self._scheme
                if self._undo is not None and self._undo[0] is scheme:
                    scheme.restore_state(self._undo[1], self._cluster)
                snapshot = scheme.state()
                self._undo = (scheme, snapshot)
                encoded: List[Tuple[int, List[object]]] = []
                blocks: List[Tuple[object, Payload]] = []
                count = -1
                try:
                    for slot, chunk in pending:
                        part = scheme.encode(chunk)
                        encoded.append((slot, part.data_ids))
                        blocks.extend(part.blocks)
                    pending.clear()
                    count = self._cluster.put_many(blocks)
                finally:
                    if count < 0:
                        scheme.restore_state(snapshot, self._cluster)
                        self._cluster.delete_blocks([block_id for block_id, _ in blocks])
                    self._undo = None
                for slot, data_ids in encoded:
                    ids[slot].extend(data_ids)
                return count

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
            replaced, records = self._catalogue.land(landed)
        self._catalogue.commit(records)
        return landed, written, self._reclaim(replaced)

    def _move_in(
        self, names: Sequence[str], source: "StorageService"
    ) -> Tuple[List[StoredDocument], int, int]:
        """Move documents ``names`` here from ``source`` -- another service (a
        shard rebalance, one document) or this one (a re-encode, one batch):
        the one way a document changes home.

        The names must share one encoding scheme in ``source`` (a re-encode's
        batch is all pending).  A batch of at most ``batch_blocks`` data
        blocks is read in one :meth:`_read_payloads` -- one bulk fetch and
        one degraded repair pass -- and landed through :meth:`_land`, whose
        ``(documents, written, reclaimed)`` it returns.  A lone longer
        document streams instead, read and landed :meth:`_chunk_blocks`
        blocks at a time.  Deleting another source's copy is the caller's
        next step."""
        scheme = source.catalogue.scheme_for(names[0])
        documents = [source.catalogue.document(name) for name in names]
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
        missing = [data_id for data_id, payload in zip(data_ids, payloads) if payload is None]
        if missing:
            # Degraded reads walk the scheme's lattice/stripe structures, so
            # they serialise against concurrent encodes; healthy reads (the
            # branch above) never touch the scheme and stay lock-free.
            with self._state_lock:
                outcome = scheme.repair(set(missing), self._cluster)
            if outcome.unrecovered:
                raise RepairFailedError(outcome.unrecovered[0], "no available recovery path")
            rebuilt = outcome.recovered
            payloads = [rebuilt.get(d, p) for d, p in zip(data_ids, payloads)]
        return payloads

    def get(self, name: str) -> bytes:
        """Read a full document back, repairing blocks as needed."""
        # Scheme first, catalogue second: if a transition migrates the
        # document between the two reads we pair the *new* block ids with
        # the old scheme -- harmless, since healthy reads never consult the
        # scheme.  (The concurrent front-end additionally excludes readers
        # from a document's migration window via its stripe locks.)
        catalogue = self._catalogue
        scheme, document = catalogue.scheme_for(name), catalogue.document(name)
        return join_blocks(
            self._read_payloads(document.data_ids, scheme=scheme), document.length
        )

    def get_stream(self, name: str) -> Iterator[bytes]:
        """Stream a document back, repairing as needed.

        Blocks are read in batches of up to ``batch_blocks`` through the bulk
        degraded-read path and yielded one at a time, so at most one batch of
        payloads is buffered in memory.
        """
        catalogue = self._catalogue
        scheme, document = catalogue.scheme_for(name), catalogue.document(name)

        def blocks() -> Iterator[bytes]:
            remaining = document.length
            data_ids = document.data_ids
            for start in range(0, len(data_ids), self._batch_blocks):
                batch = data_ids[start : start + self._batch_blocks]
                for payload in self._read_payloads(batch, scheme=scheme):
                    take = min(remaining, self.block_size)
                    yield join_blocks([payload], take)
                    remaining -= take

        return blocks()

    def has_document(self, name: str) -> bool:
        """Whether ``name`` is in the catalogue (no blocks are touched)."""
        with self._state_lock:
            return name in self._catalogue.documents

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
            document, scheme, records = self._catalogue.drop(name)
        # Uncatalogue first, reclaim second (the mirror of put's ordering):
        # a crash mid-delete leaves orphan blocks, never a catalogued
        # document whose payloads are already gone.
        self._catalogue.commit(records)
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
        completion (an alpha raise, a repuncture or a re-encode; reads stay
        byte-exact throughout).  On a durable service the plan is persisted
        in the manifest checkpoint.  A run that did not finish -- it raised,
        or the process died after that first checkpoint -- is resumed by
        this same call to the same target (:meth:`open` makes it); any other
        target is refused until then.  Returns ``None`` when already on the
        target.

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
        plan = self._catalogue.plan
        if plan is not None and target.scheme_id != plan.target:
            raise InvalidParametersError(
                f"a {plan.kind} transition to {plan.target!r} is in "
                f"flight; finish it with transition_to({plan.target!r}) "
                f"before moving on to {target.scheme_id!r}"
            )
        return TransitionEngine(self, target, doc_guard=doc_guard).run()

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

        A block found unreadable -- a store un-held a record of the wrong
        length during the run, or the medium refused a read of it since it
        was last written -- is rebuilt in the same call and listed as
        repaired.
        """
        self._ensure_open()
        with self._state_lock:
            unavailable = self._cluster.unavailable_blocks()
            wanted = self._maintained(policy, unavailable)
            report = self._rebuild(wanted)
            found = self._cluster.unreadable_blocks() - unavailable
            rewrite = self._maintained(policy, found)
            if rewrite:
                self._rebuild(rewrite, report=report)
            report.skipped.extend((unavailable - wanted) | (found - rewrite))
        self._log_placement(report)
        for listed in (report.repaired, report.skipped):
            listed.sort(key=_block_order)
        return report

    def _maintained(self, policy: MaintenancePolicy, blocks: Set[BlockId]) -> Set[BlockId]:
        """The part of ``blocks`` that ``policy`` rebuilds: all of them,
        the data blocks only, or none."""
        if policy is MaintenancePolicy.FULL:
            return blocks
        if policy is MaintenancePolicy.MINIMAL:
            return {
                block_id
                for scheme, owned in self._generations(blocks)
                for block_id in filter(scheme.is_data_block, owned)
            }
        return set()

    def _rebuild(
        self,
        wanted: Set[BlockId],
        hidden: AbstractSet[object] = frozenset(),
        report: Optional[ServiceRepairReport] = None,
    ) -> ServiceRepairReport:
        """Rebuild ``wanted`` and store it: the one routine :meth:`repair`
        and :meth:`scrub` share (call it under the state lock, and
        :meth:`_log_placement` after it).  Returns the report -- ``report``
        itself when one is passed, added to.

        Each generation's blocks go to the scheme that encoded them, read
        through a source that reports every ``hidden`` block unavailable --
        a scrub hides its suspects, so none is an input of another's
        rebuild -- and land through ``relocate_many``, which keeps a usable
        assigned location: a bad copy is overwritten where it is (one put
        elsewhere is deleted there).
        """
        if report is None:
            report = ServiceRepairReport(scheme=self._scheme.scheme_id)
        cluster = self._cluster
        avoid = tuple(cluster.unavailable_locations())
        source: BlockSource = _Hiding(cluster, hidden) if hidden else cluster
        for scheme, owned in self._generations(wanted):
            if not owned:
                continue
            outcome = scheme.repair(owned, source)
            cluster.relocate_many(outcome.recovered.items(), avoid=avoid)
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
            self._catalogue.commit(self._catalogue.relocated(len(report.repaired)))

    def scrub(self) -> ServiceScrubReport:
        """Check every stored block against the others and rewrite the ones
        the checks single out (paper, Sec. III-B: a changed block breaks the
        entanglement equations it is part of).

        Each scheme generation checks itself (mid-transition, the retained
        source too): the equation pass under AE, a re-encode of every
        readable stripe under a stripe code.  The suspects are rebuilt
        through :meth:`_rebuild`, hidden from their own rebuild, as
        :meth:`repair` rebuilds lost blocks (so are the blocks the pass found
        unreadable); an ambiguous one is left alone.
        """
        self._ensure_open()
        report = ServiceScrubReport(scheme=self._scheme.scheme_id)
        ambiguous: List[object] = []
        with self._state_lock:
            unreadable = self._cluster.unreadable_blocks()
            for scheme in filter(None, (self._catalogue.fallback, self._scheme)):
                outcome = scheme.scrub(self._cluster)
                report.checked += outcome.checked
                report.unchecked += outcome.unchecked
                report.violated.extend(outcome.violated)
                report.suspects.extend(outcome.suspects)
                ambiguous.extend(outcome.ambiguous)
            report.suspects.extend(self._cluster.unreadable_blocks() - unreadable)
        rebuilt = self._rewrite(set(report.suspects))
        report.repaired = sorted(rebuilt.repaired, key=_block_order)
        report.unrecovered = sorted(rebuilt.unrecovered + ambiguous, key=_block_order)
        report.suspects = sorted(report.suspects + ambiguous, key=_block_order)
        return report


def _block_order(block_id: object) -> Tuple[int, str]:
    """Report order: by block index, then spelling."""
    return (getattr(block_id, "index", 0), repr(block_id))
