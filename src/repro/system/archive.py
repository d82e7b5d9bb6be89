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
* **scrub / repair** run the integrity scrubber of
  :mod:`repro.storage.scrub` and the service's ``repair(policy)``, giving the
  archive the maintenance loop a real deployment would schedule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

from repro.codes.entanglement import EntanglementScheme
from repro.core.blocks import DataId
from repro.core.encoder import DEFAULT_BLOCK_SIZE
from repro.core.parameters import AEParameters
from repro.exceptions import IntegrityError, UnknownBlockError
from repro.storage.cluster import StorageCluster
from repro.storage.maintenance import MaintenancePolicy
from repro.storage.placement import PlacementPolicy
from repro.storage.scrub import ChecksumManifest, Scrubber, ScrubReport
from repro.storage.topology import Topology
from repro.system.service import ServiceRepairReport, StorageConfig, StorageService

__all__ = ["ArchiveEntry", "ArchiveStore"]


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
        cluster = self._system.cluster
        lattice = self._scheme.lattice
        for data_id in data_ids:
            payload = cluster.try_get_block(data_id)
            if payload is not None:
                self._manifest.record_payload(data_id, payload)
            for parity in lattice.output_parities(data_id.index):
                parity_payload = cluster.try_get_block(parity)
                if parity_payload is not None:
                    self._manifest.record_payload(parity, parity_payload)

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

    def scrubber(self) -> Scrubber:
        """An integrity scrubber bound to this archive's lattice and manifest."""
        return Scrubber(
            self._scheme.lattice,
            self._system.cluster,
            self._system.block_size,
            manifest=self._manifest,
        )

    def scrub(self) -> ScrubReport:
        """Run a full integrity scrub (checksums + entanglement equations)."""
        return self.scrubber().scrub()

    def scrub_and_repair(self) -> ScrubReport:
        """Scrub, repair every attributed suspect, then report the initial findings."""
        scrubber = self.scrubber()
        report = scrubber.scrub()
        scrubber.repair_suspects(report)
        return report

    def status_summary(self) -> str:
        """One-line health summary (documents, blocks, unreachable counts)."""
        status = self._system.status()
        return f"{self.total_versions()} archived versions; {status.summary()}"
