"""Use case 2: disk arrays -- entangled mirrors and RAID-AE (paper, Sec. IV-B).

Two families of layouts are provided:

* **Entangled mirror** (earlier work recapped in Sec. IV-B1): simple
  entanglements (AE(1)) over an array with equal numbers of data and parity
  drives.  *Full partition* -- the layout modelled here -- maps every lattice
  node to a data drive and every edge to a parity drive.  Chains can be
  *open* or *closed* -- a closed chain removes the weakly protected
  extremities by entangling the tail back into the head.

* **RAID-AE** (Sec. IV-B2): a disk array whose redundancy is an
  AE(alpha, s, p) lattice instead of fixed-width stripes.  It writes on a
  "never-ending stripe", supports adding disks without re-encoding, repairs
  any single failure by reading two blocks, and serves degraded reads through
  the many alternative lattice paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.codes.entanglement import EntanglementScheme
from repro.core.blocks import DataId
from repro.core.lattice import HelicalLattice
from repro.core.parameters import AEParameters
from repro.core.xor import Payload, PayloadLike, as_payload, xor_payloads, zero_payload
from repro.exceptions import InvalidParametersError, RepairFailedError, UnknownBlockError
from repro.storage.cluster import StorageCluster
from repro.storage.maintenance import MaintenancePolicy
from repro.storage.placement import DictionaryPlacement
from repro.system.service import ServiceRepairReport, StorageService


# ----------------------------------------------------------------------
# Simple entanglement chains (building block of the entangled mirror)
# ----------------------------------------------------------------------
class SimpleEntanglementChain:
    """An AE(1) chain ``d1, p1, d2, p2, ...`` with optional closure.

    In an open chain the parity ``p_i = d_i XOR p_{i-1}`` (with ``p_0`` the
    zero block); the extremities have less redundancy.  A closed chain adds a
    wrap-around parity that entangles the last data block with the head of the
    chain, removing the weak extremity (paper, Sec. IV-B1).
    """

    def __init__(self, closed: bool = False) -> None:
        self._closed = closed
        self._data: List[Payload] = []
        self._parities: List[Payload] = []
        self._closure: Optional[Payload] = None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def length(self) -> int:
        return len(self._data)

    def append(self, payload: PayloadLike) -> int:
        """Entangle one more data block; returns its 0-based position."""
        data = as_payload(payload)
        previous = self._parities[-1] if self._parities else zero_payload(data.size)
        if previous.size != data.size:
            raise InvalidParametersError("all chain blocks must share one size")
        self._data.append(data)
        self._parities.append(xor_payloads(data, previous))
        if self._closed:
            # Closing parity: tail parity re-entangled with the first data block.
            self._closure = xor_payloads(self._parities[-1], self._data[0])
        return len(self._data) - 1

    def blocks(self) -> Dict[str, Payload]:
        """All stored blocks, labelled ``d<i>``, ``p<i>`` and optionally ``closure``."""
        labelled: Dict[str, Payload] = {}
        for position, payload in enumerate(self._data):
            labelled[f"d{position}"] = payload
        for position, payload in enumerate(self._parities):
            labelled[f"p{position}"] = payload
        if self._closed and self._closure is not None:
            labelled["closure"] = self._closure
        return labelled

    def recover_data(self, position: int, lost: Set[str]) -> Payload:
        """Rebuild ``d<position>`` given the labels of the lost blocks.

        Recovery uses ``d_i = p_i XOR p_{i-1}``; when one of the two parities
        is lost the decoder walks the chain re-deriving parities from
        surviving data blocks, and a closed chain can additionally come back
        around through the closure parity.
        """
        if not 0 <= position < len(self._data):
            raise UnknownBlockError(f"position {position} outside the chain")
        if f"d{position}" not in lost:
            return self._data[position]
        left = self._derive_parity(position - 1, lost)
        right = self._derive_parity(position, lost)
        if left is not None and right is not None:
            return xor_payloads(left, right)
        raise RepairFailedError(f"d{position}", "chain too damaged")

    def _derive_parity(self, position: int, lost: Set[str]) -> Optional[Payload]:
        """Value of ``p<position>`` (``p-1`` is the zero block), if derivable."""
        size = self._data[0].size if self._data else 0
        if position < 0:
            return zero_payload(size)
        if position >= len(self._parities):
            return None
        if f"p{position}" not in lost:
            return self._parities[position]
        # p_i = d_i XOR p_{i-1}: walk left while blocks survive.
        if f"d{position}" not in lost:
            previous = self._derive_parity(position - 1, lost)
            if previous is not None:
                return xor_payloads(self._data[position], previous)
        # p_i = d_{i+1} XOR p_{i+1}: walk right while blocks survive.
        if position + 1 < len(self._data) and f"d{position + 1}" not in lost:
            following = self._derive_parity_right(position + 1, lost)
            if following is not None:
                return xor_payloads(self._data[position + 1], following)
        # Closed chains can recover the tail parity through the closure block.
        if (
            self._closed
            and self._closure is not None
            and position == len(self._parities) - 1
            and "closure" not in lost
            and "d0" not in lost
        ):
            return xor_payloads(self._closure, self._data[0])
        return None

    def _derive_parity_right(self, position: int, lost: Set[str]) -> Optional[Payload]:
        """Like :meth:`_derive_parity` but only walking towards the tail."""
        if position >= len(self._parities):
            return None
        if f"p{position}" not in lost:
            return self._parities[position]
        if position + 1 < len(self._data) and f"d{position + 1}" not in lost:
            following = self._derive_parity_right(position + 1, lost)
            if following is not None:
                return xor_payloads(self._data[position + 1], following)
        if (
            self._closed
            and self._closure is not None
            and position == len(self._parities) - 1
            and "closure" not in lost
            and "d0" not in lost
        ):
            return xor_payloads(self._closure, self._data[0])
        return None

    def survives(self, lost: Set[str]) -> bool:
        """True when every data block can be recovered after losing ``lost``."""
        for position in range(len(self._data)):
            if f"d{position}" not in lost:
                continue
            try:
                self.recover_data(position, lost)
            except RepairFailedError:
                return False
        return True


# ----------------------------------------------------------------------
# Entangled mirror arrays
# ----------------------------------------------------------------------
@dataclass
class MirrorDrive:
    """One drive of an entangled mirror array."""

    drive_id: int
    role: str  # "data" or "parity"
    content: Dict[int, Payload] = field(default_factory=dict)
    failed: bool = False

    def write(self, slot: int, payload: Payload) -> None:
        if self.failed:
            raise RepairFailedError(f"drive {self.drive_id}", "drive failed")
        self.content[slot] = payload

    def read(self, slot: int) -> Optional[Payload]:
        if self.failed:
            return None
        return self.content.get(slot)


class EntangledMirrorArray:
    """Simple-entanglement disk array with the same overhead as mirroring.

    The layout modelled is *full partition*: data blocks go to data drives
    and parities to parity drives, drive ``i`` of each kind holding the chain
    positions congruent to ``i``.
    """

    def __init__(self, drive_pairs: int, closed: bool = False) -> None:
        if drive_pairs < 1:
            raise InvalidParametersError("the array needs at least one drive pair")
        self._chain = SimpleEntanglementChain(closed=closed)
        self.data_drives = [MirrorDrive(i, "data") for i in range(drive_pairs)]
        self.parity_drives = [MirrorDrive(i, "parity") for i in range(drive_pairs)]
        self._positions: List[Tuple[int, int]] = []  # (data drive, slot) per chain position

    @property
    def chain(self) -> SimpleEntanglementChain:
        return self._chain

    @property
    def drive_count(self) -> int:
        return len(self.data_drives) + len(self.parity_drives)

    @property
    def storage_overhead(self) -> float:
        """Same space overhead as mirroring: 100%."""
        return 1.0

    def write(self, payload: PayloadLike) -> int:
        """Append one block to the array; returns its chain position."""
        position = self._chain.append(payload)
        blocks = self._chain.blocks()
        drive_index = position % len(self.data_drives)
        slot = position // len(self.data_drives)
        self.data_drives[drive_index].write(slot, blocks[f"d{position}"])
        self.parity_drives[drive_index].write(slot, blocks[f"p{position}"])
        self._positions.append((drive_index, slot))
        return position

    def fail_drives(self, data_drives: Sequence[int] = (), parity_drives: Sequence[int] = ()) -> None:
        for index in data_drives:
            self.data_drives[index].failed = True
        for index in parity_drives:
            self.parity_drives[index].failed = True

    def lost_labels(self) -> Set[str]:
        """Chain-block labels made unavailable by the failed drives."""
        lost: Set[str] = set()
        for position, (drive_index, _slot) in enumerate(self._positions):
            if self.data_drives[drive_index].failed:
                lost.add(f"d{position}")
            if self.parity_drives[drive_index].failed:
                lost.add(f"p{position}")
        return lost

    def data_survives(self) -> bool:
        """Whether every written block is still recoverable."""
        return self._chain.survives(self.lost_labels())

    def read(self, position: int) -> Payload:
        """Read a block, recovering it through the chain if its drive failed."""
        drive_index, slot = self._positions[position]
        payload = self.data_drives[drive_index].read(slot)
        if payload is not None:
            return payload
        return self._chain.recover_data(position, self.lost_labels())


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

    @property
    def write_penalty(self) -> int:
        """Physical writes per logical write: ``alpha + 1`` (paper, Sec. IV-B2)."""
        return self._params.alpha + 1

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

    def rebuild_cost_estimate(self, failed_blocks: int) -> Dict[str, int]:
        """Reads/writes needed to rebuild ``failed_blocks`` single failures."""
        return {
            "blocks_read": 2 * failed_blocks,
            "blocks_written": failed_blocks,
        }
