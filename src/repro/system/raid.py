"""Use case 2: disk arrays -- RAID-AE and the entangled mirror (paper, Sec. IV-B).

* **RAID-AE** (Sec. IV-B2): a disk array whose redundancy is an
  AE(alpha, s, p) lattice instead of fixed-width stripes.  It writes on a
  "never-ending stripe", supports adding disks without re-encoding, repairs
  any single failure by reading two blocks, and serves degraded reads through
  the many alternative lattice paths.

* **Entangled mirror** (earlier work recapped in Sec. IV-B1): RAID-AE over a
  simple entanglement, AE(1), on ``2n`` disks -- the same overhead as
  mirroring.  The round-robin puts ``d_i`` on disk ``2(i - 1) mod 2n`` and
  ``p_i`` on the disk next to it, which is the *full partition* layout: even
  disks hold data, odd disks parities, with the drive numbering of
  :mod:`repro.analysis.reliability`.  The chain is *open*; the closed chain
  that wraps its tail into its head is modelled by
  :func:`~repro.analysis.reliability.closed_chain_survives` only.
"""

from __future__ import annotations

from repro.codes.entanglement import EntanglementScheme
from repro.core.blocks import DataId
from repro.core.lattice import HelicalLattice
from repro.core.parameters import AEParameters
from repro.core.xor import Payload, PayloadLike, as_payload
from repro.exceptions import InvalidParametersError, RepairFailedError
from repro.storage.cluster import StorageCluster
from repro.storage.maintenance import MaintenancePolicy
from repro.storage.placement import DictionaryPlacement
from repro.system.service import ServiceRepairReport, StorageService


# ----------------------------------------------------------------------
# RAID-AE
# ----------------------------------------------------------------------
class RAIDAEArray:
    """A disk array protected by an AE(alpha, s, p) lattice (RAID-AE).

    Disks are the storage locations of a :class:`StorageService` over an
    entanglement scheme; blocks are placed round-robin so consecutive lattice
    elements land on different disks (declustered never-ending stripe).
    Disks can be added at any time without re-encoding -- new writes simply
    start using the larger array.
    """

    def __init__(
        self,
        params: AEParameters,
        disk_count: int,
        block_size: int = 4096,
    ) -> None:
        if disk_count < params.alpha + 1:
            raise InvalidParametersError(
                "RAID-AE needs at least alpha + 1 disks to separate a block from its parities"
            )
        self._params = params
        self._block_size = block_size
        self._placement = DictionaryPlacement(disk_count, {})
        self._service = StorageService(
            EntanglementScheme(params, block_size),
            StorageCluster(placement=self._placement),
        )
        self._next_disk = 0

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def params(self) -> AEParameters:
        return self._params

    @property
    def disk_count(self) -> int:
        return self.cluster.location_count

    @property
    def cluster(self) -> StorageCluster:
        return self._service.cluster

    @property
    def lattice(self) -> HelicalLattice:
        return self._service.scheme.lattice  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def write(self, payload: PayloadLike) -> DataId:
        """Write one block (and its parities) across the array.

        Blocks rotate round-robin over the disks; disks that are currently
        failed are skipped so the array keeps accepting writes in degraded
        mode (a :class:`RepairFailedError` is raised only when no disk is up).
        """
        # One write is one lattice node: a payload over the block size raises
        # here instead of spilling into a node the rotation never placed.
        data = as_payload(payload, self._block_size).tobytes()
        index = self.lattice.size + 1
        data_id = DataId(index)
        for block_id in (data_id, *self.lattice.output_parities(index)):
            self._placement.record(block_id, self._next_available_disk())
        self._service.put(f"d{index}", data)
        return data_id

    def _next_available_disk(self) -> int:
        for _ in range(self.disk_count):
            disk = self._next_disk
            self._next_disk = (self._next_disk + 1) % self.disk_count
            if self.cluster.location(disk).available:
                return disk
        raise RepairFailedError("raid-ae", "no available disk to accept writes")

    def read(self, data_id: DataId) -> Payload:
        """Read a block; degraded reads go through the lattice repair paths."""
        return self._service.get_block(data_id)

    # ------------------------------------------------------------------
    # Scaling and failures
    # ------------------------------------------------------------------
    def add_disk(self) -> int:
        """Grow the array by one disk without touching existing blocks."""
        cluster = self.cluster
        self._placement = DictionaryPlacement(
            self.disk_count + 1,
            {block_id: cluster.location_of(block_id) for block_id in cluster.block_ids()},
        )
        return cluster.add_location(self._placement)

    def fail_disk(self, disk_id: int) -> None:
        self._service.fail_locations([disk_id])

    def rebuild(
        self, policy: MaintenancePolicy = MaintenancePolicy.FULL
    ) -> ServiceRepairReport:
        """Rebuild the blocks of failed disks onto the surviving disks."""
        return self._service.repair(policy)


# ----------------------------------------------------------------------
# Entangled mirror
# ----------------------------------------------------------------------
class EntangledMirrorArray(RAIDAEArray):
    """An open AE(1) chain over ``drive_pairs`` data and parity drive pairs.

    Disk ``2i`` is data drive ``i`` and disk ``2i + 1`` parity drive ``i``;
    survival after failures is ``rebuild().data_loss == 0``.
    """

    def __init__(self, drive_pairs: int, block_size: int = 4096) -> None:
        if drive_pairs < 1:
            raise InvalidParametersError("the array needs at least one drive pair")
        super().__init__(AEParameters.single(), 2 * drive_pairs, block_size)
