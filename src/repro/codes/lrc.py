"""Local Reconstruction Codes (LRC), the locality-aware baseline.

The paper repeatedly contrasts AE codes with "optimal locally repairable
codes" (Section II and Section V-C3: RS(4,12) is "superior to other locally
repairable codes like the HDFS-Xorbas implementation").  To make that
comparison concrete the library ships an Azure-style Local Reconstruction
Code, LRC(k, l, r):

* the ``k`` data blocks are split into ``l`` equally sized local groups;
* each group gets one *local parity* (the XOR of its members);
* ``r`` *global parities* are Reed-Solomon style linear combinations of all
  ``k`` data blocks over GF(2^8).

A single data-block failure is repaired from its local group -- ``k / l``
reads instead of ``k``.  LRC is not MDS, and with these global rows (powers
of ``position + 2``) not every ``r + 1`` failures decode either: LRC(12,2,2)
decodes every 3-failure pattern but not 297 of the 1 820 4-failure ones, and
LRC(10,2,4) every 4-failure pattern but not 22 of the 4 368 5-failure ones
(``{0, 1, 2, 3, 14}`` among them).  This gives the benchmark suite a third
point on the locality/storage trade-off curve between RS (no locality) and
AE codes (locality 2 by construction).

Coding is :class:`~repro.codes.base.LinearCode`'s; a decode reads the first
``k`` available rows that are independent (:func:`~repro.codes.gf256.gf_pivot_rows`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.codes.base import LinearCode
from repro.codes.gf256 import gf_pivot_rows, gf_pow
from repro.core.xor import Payload, as_payload, xor_many
from repro.exceptions import InvalidParametersError

__all__ = ["LocalReconstructionCode", "azure_lrc", "xorbas_lrc"]


class LocalReconstructionCode(LinearCode):
    """Systematic LRC(k, l, r) over GF(2^8).

    Stripe layout (positions): ``0 .. k-1`` data, ``k .. k+l-1`` local
    parities (one per group, in group order), ``k+l .. k+l+r-1`` global
    parities.
    """

    def __init__(self, k: int, local_groups: int, global_parities: int) -> None:
        if k < 2:
            raise InvalidParametersError("LRC requires at least two data blocks")
        if local_groups < 1 or k % local_groups != 0:
            raise InvalidParametersError(
                f"the number of local groups ({local_groups}) must divide k ({k})"
            )
        if global_parities < 1:
            raise InvalidParametersError("LRC requires at least one global parity")
        if k + local_groups + global_parities > 255:
            raise InvalidParametersError("LRC over GF(2^8) supports at most 255 blocks")
        self._local_groups = local_groups
        self._global_parities = global_parities
        self._group_size = k // local_groups
        # Identity, one XOR row per local group, then rows of a
        # Vandermonde-style matrix offset so that the generator points differ
        # from the ones implicitly used by the local rows.
        matrix = np.zeros((k + local_groups + global_parities, k), dtype=np.uint8)
        matrix[:k] = np.eye(k, dtype=np.uint8)
        for group in range(local_groups):
            matrix[k + group, group * self._group_size : (group + 1) * self._group_size] = 1
        for parity in range(global_parities):
            matrix[k + local_groups + parity] = [
                gf_pow(position + 2, parity + 1) for position in range(k)
            ]
        super().__init__(k, local_groups + global_parities, matrix)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"LRC({self.k},{self._local_groups},{self._global_parities})"

    @property
    def local_groups(self) -> int:
        """Number of local groups (and local parities)."""
        return self._local_groups

    @property
    def global_parities(self) -> int:
        """Number of global parities."""
        return self._global_parities

    @property
    def group_size(self) -> int:
        """Data blocks per local group."""
        return self._group_size

    @property
    def single_failure_cost(self) -> int:
        """A data-block failure is repaired from its local group: ``k / l`` reads."""
        return self._group_size

    def group_of(self, data_position: int) -> int:
        """Local group index of a data position."""
        if not 0 <= data_position < self.k:
            raise InvalidParametersError(f"data position {data_position} outside 0..{self.k - 1}")
        return data_position // self._group_size

    def group_members(self, group: int) -> range:
        """Data positions belonging to ``group``."""
        if not 0 <= group < self._local_groups:
            raise InvalidParametersError(f"group {group} outside 0..{self._local_groups - 1}")
        start = group * self._group_size
        return range(start, start + self._group_size)

    def local_parity_position(self, group: int) -> int:
        """Stripe position of the local parity protecting ``group``."""
        if not 0 <= group < self._local_groups:
            raise InvalidParametersError(f"group {group} outside 0..{self._local_groups - 1}")
        return self.k + group

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def can_decode(self, available_positions: Sequence[int]) -> bool:
        """True when the available generator rows span the data space."""
        positions = sorted(
            {int(position) for position in available_positions if 0 <= position < self.n}
        )
        if len(positions) < self.k:
            return False
        return len(self._read_rows(positions)) == self.k

    def _read_rows(self, positions: List[int]) -> Tuple[int, ...]:
        """The first ``k`` available positions whose rows are independent."""
        return tuple(positions[row] for row in gf_pivot_rows(self._matrix[positions]))

    # ------------------------------------------------------------------
    # Repair helpers
    # ------------------------------------------------------------------
    def local_repair_positions(self, position: int) -> List[int]:
        """Blocks read for the cheap, local repair of ``position``.

        Data blocks and local parities are repaired from their local group;
        global parities require a full decode (all data positions).
        """
        if position < self.k:
            group = self.group_of(position)
            others = [pos for pos in self.group_members(group) if pos != position]
            return others + [self.local_parity_position(group)]
        if position < self.k + self._local_groups:
            group = position - self.k
            return list(self.group_members(group))
        return list(range(self.k))

    def repair_cost(self, position: int) -> int:
        """Number of blocks read by the cheapest repair of ``position``."""
        return len(self.local_repair_positions(position))

    def repair_read_positions(
        self, position: int, available_positions: Sequence[int]
    ) -> List[int] | None:
        """Prefer the local repair group; fall back to a global decode."""
        available = set(available_positions) - {position}
        local = self.local_repair_positions(position)
        if set(local) <= available:
            return list(local)
        return super().repair_read_positions(position, available_positions)

    def repair(self, position: int, available: Dict[int, Payload]) -> Payload:
        """Rebuild ``position``, using the XOR-only local path when possible.

        A data block whose group members and local parity survive -- or a
        local parity whose group survives -- is rebuilt by XORing the local
        group, the ``k / l``-read repair the code exists for; anything else
        falls back to the global GF(2^8) decode of the base class.
        """
        if position in available:
            return as_payload(available[position])
        if position < self.k + self._local_groups:
            local = self.local_repair_positions(position)
            if all(member in available for member in local):
                return xor_many([available[member] for member in local])
        return super().repair(position, available)


# ----------------------------------------------------------------------
# Named configurations
# ----------------------------------------------------------------------
def azure_lrc() -> LocalReconstructionCode:
    """The LRC(12, 2, 2) configuration of Windows Azure Storage."""
    return LocalReconstructionCode(12, 2, 2)


def xorbas_lrc() -> LocalReconstructionCode:
    """The HDFS-Xorbas configuration: RS(10, 4) plus local parities, LRC(10, 2, 4)."""
    return LocalReconstructionCode(10, 2, 4)
