"""The entanglement decoder: single-block repair along the lattice's strands.

Repair primitives (paper, Sec. III-B and IV-A):

* a missing **data block** ``d_i`` is rebuilt from a *pp-tuple*: the two
  adjacent parities of any of its ``alpha`` strands,
  ``d_i = p_{h,i} XOR p_{i,j}`` (at a strand start the input parity is the
  virtual zero block, so ``d_i = p_{i,j}``);
* a missing **parity block** ``p_{i,j}`` is rebuilt from a *dp-tuple*: an
  incident data block plus the adjacent parity on the same strand,
  ``p_{i,j} = d_i XOR p_{h,i}`` or ``p_{i,j} = d_j XOR p_{j,k}``.

When the blocks needed by a repair are themselves missing, the decoder can
recurse along the strand (the concentric paths of Fig. 2) up to a configurable
depth.  Global round-based repair (Sec. V-C4) is
:class:`repro.core.batch_repair.RepairRun`, the path every scheme, service
and transition reads through; this decoder is the independent per-block
reference the tests hold it against (and a readable statement of the repair
rules), not a path of the store.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.core.blocks import BlockId, DataId, ParityId, is_data
from repro.core.lattice import HelicalLattice
from repro.core.xor import Payload, as_payload, xor_payloads, zero_payload
from repro.exceptions import RepairFailedError

DEFAULT_RECURSION_DEPTH = 6


class Decoder:
    """Repairs individual blocks against ``source``, a callable that returns
    the payload of a block or ``None`` when it is unavailable."""

    def __init__(
        self,
        lattice: HelicalLattice,
        source: Callable[[BlockId], Optional[Payload]],
        block_size: int,
        max_depth: int = DEFAULT_RECURSION_DEPTH,
    ) -> None:
        self._lattice = lattice
        self._source = source
        self._block_size = block_size
        self._max_depth = max_depth

    # ------------------------------------------------------------------
    # Fetch-or-repair entry points
    # ------------------------------------------------------------------
    def get(self, block_id: BlockId) -> Payload:
        """Return the payload of ``block_id``, repairing it if necessary."""
        payload = self._source(block_id)
        if payload is not None:
            return as_payload(payload, self._block_size)
        return self.repair(block_id)

    def repair(self, block_id: BlockId) -> Payload:
        """Rebuild a missing block, recursing along strands when needed."""
        payload = self._attempt(block_id, depth=0, visited=set())
        if payload is None:
            raise RepairFailedError(block_id, "no available recovery path")
        return payload

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fetch(self, block_id: BlockId) -> Optional[Payload]:
        payload = self._source(block_id)
        if payload is None:
            return None
        return as_payload(payload, self._block_size)

    def _attempt(
        self, block_id: BlockId, depth: int, visited: Set[BlockId]
    ) -> Optional[Payload]:
        if block_id in visited:
            return None
        if not self._lattice.has_block(block_id):
            return None
        visited = visited | {block_id}
        if is_data(block_id):
            return self._attempt_data(block_id, depth, visited)
        return self._attempt_parity(block_id, depth, visited)

    def _resolve(
        self, block_id: Optional[BlockId], depth: int, visited: Set[BlockId]
    ) -> Optional[Payload]:
        """Fetch a block, or repair it recursively when depth allows.

        ``None`` block identifiers represent the virtual zero parity at strand
        extremities, which is always available.
        """
        if block_id is None:
            return zero_payload(self._block_size)
        payload = self._fetch(block_id)
        if payload is not None:
            return payload
        if depth >= self._max_depth:
            return None
        return self._attempt(block_id, depth + 1, visited)

    def _attempt_data(
        self, data_id: DataId, depth: int, visited: Set[BlockId]
    ) -> Optional[Payload]:
        for option in self._lattice.data_repair_options(data_id.index):
            output_payload = self._resolve(option.output_parity, depth, visited)
            if output_payload is None:
                continue
            input_payload = self._resolve(option.input_parity, depth, visited)
            if input_payload is None:
                continue
            return xor_payloads(input_payload, output_payload)
        return None

    def _attempt_parity(
        self, parity: ParityId, depth: int, visited: Set[BlockId]
    ) -> Optional[Payload]:
        i = parity.index
        strand_class = parity.strand_class
        # Left option: p_{i,j} = d_i XOR p_{h,i}.
        left_data = self._resolve(DataId(i), depth, visited)
        if left_data is not None:
            left_parity = self._resolve(
                self._lattice.input_parity(i, strand_class), depth, visited
            )
            if left_parity is not None:
                return xor_payloads(left_data, left_parity)
        # Right option: p_{i,j} = d_j XOR p_{j,k} (only if node j exists).
        _, j = self._lattice.edge_endpoints(parity)
        if j <= self._lattice.size:
            right_data = self._resolve(DataId(j), depth, visited)
            if right_data is not None:
                right_parity = self._resolve(
                    self._lattice.output_parity(j, strand_class), depth, visited
                )
                if right_parity is not None:
                    return xor_payloads(right_data, right_parity)
        return None
