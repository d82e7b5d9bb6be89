"""The helical lattice: a growing graph of entangled data and parity blocks.

The lattice is a *virtual* layer placed on top of the physical storage
(paper, Sec. III-B, "Implementation Details").  Nodes are data blocks and
edges are parity blocks; the wiring is fully determined by the code
parameters through the rules of Tables I and II, so the lattice never has to
be materialised -- this class answers adjacency questions (which blocks
repair which) from the position arithmetic alone.

The lattice is append-only: it knows how many data blocks have been entangled
(``size``) and every query is answered relative to that bound.  This mirrors
the paper's only assumption, that data are stored permanently and deletions
happen only at the beginning of the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.core.blocks import BlockId, DataId, ParityId, data_ids_for, is_data
from repro.core.parameters import AEParameters, NodeCategory, StrandClass
from repro.core.position import (
    LatticePosition,
    column_count,
    node_category,
    node_column,
    node_row,
)
from repro.core.rules import input_index, output_index
from repro.exceptions import LatticeBoundsError


@dataclass(frozen=True)
class DataRepairOption:
    """One way to rebuild a data block: XOR of the two adjacent parities of a strand.

    ``input_parity`` is ``None`` when the strand starts at the node (the input
    is the virtual zero block) -- in that case the data block equals its
    output parity.  ``output_parity`` is always a real parity because every
    entangled node created its output parities.
    """

    strand_class: StrandClass
    input_parity: Optional[ParityId]
    output_parity: ParityId

    def required_blocks(self) -> List[ParityId]:
        blocks = [self.output_parity]
        if self.input_parity is not None:
            blocks.insert(0, self.input_parity)
        return blocks


@dataclass(frozen=True)
class ParityRepairOption:
    """One way to rebuild a parity block: XOR of an incident data block and the
    adjacent parity on the same strand (a dp-tuple, paper Sec. IV-A)."""

    data: DataId
    parity: Optional[ParityId]

    def required_blocks(self) -> List[BlockId]:
        blocks: List[BlockId] = [self.data]
        if self.parity is not None:
            blocks.append(self.parity)
        return blocks


class HelicalLattice:
    """Adjacency oracle for an AE(alpha, s, p) lattice with ``size`` data nodes."""

    def __init__(self, params: AEParameters, size: int = 0) -> None:
        if size < 0:
            raise LatticeBoundsError("lattice size cannot be negative")
        self._params = params
        self._size = size

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def params(self) -> AEParameters:
        return self._params

    @property
    def size(self) -> int:
        """Number of data blocks entangled so far."""
        return self._size

    @property
    def parity_count(self) -> int:
        """Number of parity blocks (``alpha`` per data block)."""
        return self._size * self._params.alpha

    @property
    def total_blocks(self) -> int:
        return self._size + self.parity_count

    @property
    def columns(self) -> int:
        return column_count(self._size, self._params.s)

    def grow(self, count: int = 1) -> List[DataId]:
        """Append ``count`` new data positions and return their identifiers."""
        if count < 0:
            raise LatticeBoundsError("cannot grow by a negative amount")
        new_ids = list(data_ids_for(range(self._size + 1, self._size + count + 1)))
        self._size += count
        return new_ids

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def has_block(self, block_id: BlockId) -> bool:
        if is_data(block_id):
            return 1 <= block_id.index <= self._size
        return 1 <= block_id.index <= self._size and (
            block_id.strand_class in self._params.strand_classes
        )

    def _check_node(self, index: int) -> None:
        if not 1 <= index <= self._size:
            raise LatticeBoundsError(
                f"node {index} outside the encoded lattice (size {self._size})"
            )

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def data_ids(self) -> Iterator[DataId]:
        for index in range(1, self._size + 1):
            yield DataId(index)

    def parity_ids(self) -> Iterator[ParityId]:
        for index in range(1, self._size + 1):
            for strand_class in self._params.strand_classes:
                yield ParityId(index, strand_class)

    def block_ids(self) -> Iterator[BlockId]:
        yield from self.data_ids()
        yield from self.parity_ids()

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def position(self, index: int) -> LatticePosition:
        self._check_node(index)
        return LatticePosition.of(index, self._params)

    def category(self, index: int) -> NodeCategory:
        return node_category(index, self._params.s)

    def row(self, index: int) -> int:
        return node_row(index, self._params.s)

    def column(self, index: int) -> int:
        return node_column(index, self._params.s)

    # ------------------------------------------------------------------
    # Edges (parities)
    # ------------------------------------------------------------------
    def output_parity(self, index: int, strand_class: StrandClass) -> ParityId:
        """The parity created when node ``index`` was entangled on ``strand_class``."""
        return ParityId(index, strand_class)

    def input_parity(self, index: int, strand_class: StrandClass) -> Optional[ParityId]:
        """The parity ``p_{h,index}`` consumed when entangling ``index``.

        Returns ``None`` when the strand starts at ``index`` (virtual zero input).
        """
        h = input_index(index, strand_class, self._params)
        if h < 1:
            return None
        return ParityId(h, strand_class)

    def edge_endpoints(self, parity: ParityId) -> Tuple[int, int]:
        """Return ``(i, j)`` for the edge ``p_{i,j}`` named by ``parity``."""
        j = output_index(parity.index, parity.strand_class, self._params)
        return parity.index, j

    def parity_label(self, parity: ParityId) -> str:
        i, j = self.edge_endpoints(parity)
        return f"p{i},{j}"

    def output_parities(self, index: int) -> List[ParityId]:
        """All alpha parities created by node ``index``."""
        return [ParityId(index, cls) for cls in self._params.strand_classes]

    # ------------------------------------------------------------------
    # Repair structure
    # ------------------------------------------------------------------
    def data_repair_options(self, index: int) -> List[DataRepairOption]:
        """The alpha ways to rebuild ``d_index`` (one pp-tuple per strand)."""
        self._check_node(index)
        options: List[DataRepairOption] = []
        for strand_class in self._params.strand_classes:
            options.append(
                DataRepairOption(
                    strand_class=strand_class,
                    input_parity=self.input_parity(index, strand_class),
                    output_parity=self.output_parity(index, strand_class),
                )
            )
        return options

    def parity_repair_options(self, parity: ParityId) -> List[ParityRepairOption]:
        """The (up to) two ways to rebuild a parity block (dp-tuples).

        ``p_{i,j} = d_i XOR p_{h,i}`` (left option, always defined -- the input
        may be the virtual zero block) and ``p_{i,j} = d_j XOR p_{j,k}`` (right
        option, defined only once node ``j`` has been entangled).
        """
        if not self.has_block(parity):
            raise LatticeBoundsError(f"parity {parity!r} is not part of the lattice")
        i = parity.index
        strand_class = parity.strand_class
        options = [
            ParityRepairOption(
                data=DataId(i), parity=self.input_parity(i, strand_class)
            )
        ]
        j = output_index(i, strand_class, self._params)
        if j <= self._size:
            options.append(
                ParityRepairOption(
                    data=DataId(j), parity=self.output_parity(j, strand_class)
                )
            )
        return options

    def describe(self) -> str:
        """One-line human readable summary of the lattice."""
        return (
            f"{self._params.spec()} lattice: {self._size} data blocks, "
            f"{self.parity_count} parities, {self._params.strand_count} strands, "
            f"{self.columns} columns"
        )
