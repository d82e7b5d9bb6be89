"""Archival file store: versioned documents over an entangled storage service.

The paper positions AE codes as codes "to archive data in unreliable
environments": content is written once, never rewritten in place, and must
stay readable and verifiable for the long term.  ``ArchiveStore`` packages the
lower layers into that workflow:

* **put** splits a file into blocks, entangles them and records a manifest
  entry (length, lattice positions, SHA-256 digest) -- the append-only,
  never-ending-stripe model of Section IV-B2;
* **versioning** -- storing a name again creates a new version; old versions
  remain readable because the lattice never frees blocks (the paper's only
  assumption: "data are stored permanently, deletions are only possible at
  the beginning of the mesh");
* **get / verify** read a version back (repairing blocks through the lattice
  when locations are down) and check it against the recorded digest;
* **scrub / repair** run the service's ``scrub()`` -- then a check of
  every block against the fingerprint recorded when it was written -- and
  its ``repair(policy)``, giving the archive the maintenance loop a real
  deployment would schedule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.codes.entanglement import EntanglementScheme
from repro.core.batch_repair import block_sort_key
from repro.core.blocks import Block, BlockId, DataId
from repro.core.encoder import DEFAULT_BLOCK_SIZE
from repro.core.parameters import AEParameters
from repro.core.xor import Payload
from repro.exceptions import IntegrityError, UnknownBlockError
from repro.storage.cluster import StorageCluster
from repro.storage.maintenance import MaintenancePolicy
from repro.storage.placement import PlacementPolicy
from repro.storage.topology import Topology
from repro.system.service import (
    ServiceRepairReport, ServiceScrubReport, StorageConfig, StorageService,
)

__all__ = ["ArchiveEntry", "ArchiveStore", "ChecksumManifest"]


class ChecksumManifest:
    """Fingerprints (CRC32 and SHA-256) of every block, recorded at write time."""

    def __init__(self) -> None:
        self._fingerprints: Dict[BlockId, Tuple[int, str]] = {}

    def __len__(self) -> int:
        return len(self._fingerprints)

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._fingerprints

    @staticmethod
    def _fingerprint(block_id: BlockId, payload: Payload) -> Tuple[int, str]:
        block = Block(block_id=block_id, payload=payload)
        return block.checksum(), block.digest()

    def record_payload(self, block_id: BlockId, payload: Payload) -> None:
        """Record (or refresh) the fingerprint of a block."""
        self._fingerprints[block_id] = self._fingerprint(block_id, payload)

    def matches(self, block_id: BlockId, payload: Payload) -> bool:
        """True when ``payload`` matches the recorded fingerprint of ``block_id``."""
        if block_id not in self._fingerprints:
            raise UnknownBlockError(f"no checksum recorded for {block_id!r}")
        return self._fingerprints[block_id] == self._fingerprint(block_id, payload)

    def block_ids(self) -> List[BlockId]:
        return list(self._fingerprints)


@dataclass(frozen=True)
class ArchiveEntry:
    """Metadata of one archived version of a named document."""

    name: str
    version: int
    length: int
    digest: str
    data_ids: tuple

    @property
    def block_count(self) -> int:
        return len(self.data_ids)

    @property
    def internal_name(self) -> str:
        return f"{self.name}@v{self.version}"


class ArchiveStore:
    """Versioned, verifiable archive on an AE :class:`StorageService`."""

    def __init__(
        self,
        params: AEParameters,
        topology: Optional[Union[Topology, int, str]] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        placement: Optional[PlacementPolicy] = None,
        cluster: Optional[StorageCluster] = None,
        seed: int = 0,
    ) -> None:
        self._system = StorageService.open(
            StorageConfig(
                scheme=EntanglementScheme(params, block_size),
                topology=topology,
                block_size=block_size,
                placement=placement,
                cluster=cluster,
                seed=seed,
            )
        )
        self._manifest = ChecksumManifest()
        self._entries: Dict[str, List[ArchiveEntry]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def params(self) -> AEParameters:
        return self._scheme.params

    @property
    def system(self) -> StorageService:
        """The underlying storage service (cluster, AE scheme and lattice)."""
        return self._system

    @property
    def _scheme(self) -> EntanglementScheme:
        return self._system.scheme  # type: ignore[return-value]

    @property
    def manifest(self) -> ChecksumManifest:
        """Block fingerprints recorded at write time."""
        return self._manifest

    def names(self) -> List[str]:
        """Archived document names, in first-write order."""
        return list(self._entries)

    def versions(self, name: str) -> List[ArchiveEntry]:
        """All versions of ``name`` (oldest first)."""
        if name not in self._entries:
            raise UnknownBlockError(f"unknown archive entry {name!r}")
        return list(self._entries[name])

    def latest(self, name: str) -> ArchiveEntry:
        """The most recent version of ``name``."""
        return self.versions(name)[-1]

    def entry(self, name: str, version: Optional[int] = None) -> ArchiveEntry:
        """A specific version (default: latest)."""
        versions = self.versions(name)
        if version is None:
            return versions[-1]
        for candidate in versions:
            if candidate.version == version:
                return candidate
        raise UnknownBlockError(f"{name!r} has no version {version}")

    def total_versions(self) -> int:
        return sum(len(versions) for versions in self._entries.values())

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, name: str, data: bytes) -> ArchiveEntry:
        """Archive (a new version of) ``name``; returns its manifest entry."""
        version = len(self._entries.get(name, [])) + 1
        entry_name = f"{name}@v{version}"
        document = self._system.put(entry_name, data)
        self._record_fingerprints(document.data_ids)
        entry = ArchiveEntry(
            name=name,
            version=version,
            length=document.length,
            digest=hashlib.sha256(data).hexdigest(),
            data_ids=tuple(document.data_ids),
        )
        self._entries.setdefault(name, []).append(entry)
        return entry

    def _record_fingerprints(self, data_ids: List[DataId]) -> None:
        """Record manifest fingerprints for the new data blocks and their parities."""
        lattice = self._scheme.lattice
        ids = [b for d in data_ids for b in [d, *lattice.output_parities(d.index)]]
        for block_id, payload in zip(ids, self._system.cluster.try_get_many(ids)):
            if payload is not None:
                self._manifest.record_payload(block_id, payload)

    # ------------------------------------------------------------------
    # Reads and verification
    # ------------------------------------------------------------------
    def get(self, name: str, version: Optional[int] = None) -> bytes:
        """Read a version back, repairing blocks through the lattice as needed."""
        entry = self.entry(name, version)
        return self._system.get(entry.internal_name)

    def verify(self, name: str, version: Optional[int] = None) -> bool:
        """Read a version and compare it against its recorded digest."""
        entry = self.entry(name, version)
        data = self.get(name, entry.version)
        return hashlib.sha256(data).hexdigest() == entry.digest

    def verify_all(self) -> Dict[str, bool]:
        """Digest verification of the latest version of every archived name."""
        return {name: self.verify(name) for name in self.names()}

    def get_verified(self, name: str, version: Optional[int] = None) -> bytes:
        """Like :meth:`get` but raises :class:`IntegrityError` on digest mismatch."""
        entry = self.entry(name, version)
        data = self.get(name, entry.version)
        if hashlib.sha256(data).hexdigest() != entry.digest:
            raise IntegrityError(
                f"digest mismatch for {name!r} version {entry.version}"
            )
        return data

    # ------------------------------------------------------------------
    # Failures, maintenance and integrity
    # ------------------------------------------------------------------
    def fail_locations(self, location_ids: Iterable[int]) -> None:
        self._system.fail_locations(location_ids)

    def restore_locations(self, location_ids: Optional[Iterable[int]] = None) -> None:
        self._system.restore_locations(location_ids)

    def repair(
        self, policy: MaintenancePolicy = MaintenancePolicy.FULL
    ) -> ServiceRepairReport:
        """Restore redundancy after failures (the Fig. 11/12 maintenance loop)."""
        return self._system.repair(policy)

    def scrub(self) -> ServiceScrubReport:
        """The service's scrub, then the fingerprint check: a block whose
        stored bytes no longer match what was recorded at write time is a
        suspect too, rebuilt in place by the same routine (hidden from its
        own rebuild).  A suspect the fingerprints vouch for is not left as
        stored."""
        report = self._system.scrub()
        ids = self._manifest.block_ids()
        mismatched = {
            block_id
            for block_id, payload in zip(ids, self._system.cluster.try_get_many(ids))
            if payload is not None and not self._manifest.matches(block_id, payload)
        }
        rebuilt = self._system._rewrite(mismatched)
        report.suspects = sorted(mismatched.union(report.suspects), key=block_sort_key)
        report.repaired += rebuilt.repaired
        report.unrecovered = [
            block_id for block_id in report.unrecovered if block_id not in self._manifest
        ] + rebuilt.unrecovered
        return report

    def status_summary(self) -> str:
        """One-line health summary (documents, blocks, unreachable counts)."""
        status = self._system.status()
        return f"{self.total_versions()} archived versions; {status.summary()}"
