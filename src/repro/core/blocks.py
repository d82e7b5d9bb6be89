"""Block identities and payload-carrying blocks.

The helical lattice distinguishes two kinds of blocks (paper, Fig. 3):

* **d-blocks** (data blocks) are the lattice nodes, identified by their
  position ``i >= 1``;
* **p-blocks** (parity blocks) are the lattice edges.  Each node creates
  exactly one parity per strand class when it is entangled, so the pair
  ``(creator index, strand class)`` identifies a parity uniquely.  The edge
  notation ``p_{i,j}`` of the paper is recovered through the output rules of
  Table II.

Identifiers are named tuples: immutable, usable as dictionary keys, and --
because every layer of the store keys its dicts and sets by them -- hashed,
compared, built and sorted in C.  An id hashes like the tuple of its fields,
and the kinds never compare equal to one another: a data id is a 1-tuple, a
parity id an ``(int, StrandClass)`` pair, a stripe id
(:class:`~repro.schemes.stripe.StripeBlockId`) an ``(int, int)`` pair.
Sorting lattice ids natively gives lattice order
(:func:`~repro.core.batch_repair.block_sort_key`).
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Union

from repro.core.parameters import StrandClass
from repro.core.xor import Payload, as_payload, payload_to_bytes
from repro.exceptions import BlockSizeMismatchError


class DataId(NamedTuple):
    """Identifier of a data block (a lattice node)."""

    # The field shadows ``tuple.index``; nothing searches an id for a value.
    index: int  # type: ignore[assignment, unused-ignore]

    def label(self) -> str:
        return f"d{self.index}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.label()


class ParityId(NamedTuple):
    """Identifier of a parity block (a lattice edge).

    ``index`` is the creator node and ``strand_class`` the class of the strand
    the parity extends.  The second endpoint of the edge depends on the code
    parameters and is provided by the lattice (:meth:`HelicalLattice.edge_endpoints`).
    """

    index: int  # type: ignore[assignment, unused-ignore]
    strand_class: StrandClass

    def label(self) -> str:
        return f"p[{self.index},{self.strand_class.value}]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.label()


BlockId = Union[DataId, ParityId]


def data_ids_for(indexes: Iterable[int]) -> Iterator[DataId]:
    """``DataId(index)`` for every index, built in C.

    ``tuple.__new__`` is what the generated ``DataId.__new__`` calls; going
    to it directly spares the write path one Python frame per id.
    """
    return map(tuple.__new__, repeat(DataId), zip(indexes))


def parity_ids_for(indexes: Iterable[int], strand_class: StrandClass) -> Iterator[ParityId]:
    """``ParityId(index, strand_class)`` for every index, built in C like
    :func:`data_ids_for`."""
    return map(tuple.__new__, repeat(ParityId), zip(indexes, repeat(strand_class)))


def is_data(block_id: BlockId) -> bool:
    """True when ``block_id`` identifies a data block."""
    return isinstance(block_id, DataId)


def is_parity(block_id: BlockId) -> bool:
    """True when ``block_id`` identifies a parity block."""
    return isinstance(block_id, ParityId)


@dataclass
class Block:
    """A block identifier together with its payload bytes."""

    block_id: BlockId
    payload: Payload

    def __post_init__(self) -> None:
        self.payload = as_payload(self.payload)

    @property
    def size(self) -> int:
        return int(self.payload.size)

    def to_bytes(self, length: int | None = None) -> bytes:
        return payload_to_bytes(self.payload, length)

    def checksum(self) -> int:
        """CRC32 of the payload, used for integrity verification."""
        return zlib.crc32(self.payload.tobytes())

    def digest(self) -> str:
        """SHA-256 hex digest of the payload (content addressing / keys)."""
        return hashlib.sha256(self.payload.tobytes()).hexdigest()


@dataclass
class EncodedBlock:
    """Result of entangling one data block: the data block and its alpha parities."""

    data: Block
    parities: List[Block] = field(default_factory=list)

    @property
    def data_id(self) -> DataId:
        return self.data.block_id  # type: ignore[return-value]

    @property
    def parity_ids(self) -> List[ParityId]:
        return [parity.block_id for parity in self.parities]  # type: ignore[list-item]

    def all_blocks(self) -> List[Block]:
        return [self.data, *self.parities]


def split_into_blocks(data: bytes, block_size: int) -> List[Payload]:
    """Split a byte string into zero-padded payloads of ``block_size`` bytes.

    The final block is padded with zeros; callers should record the original
    length to strip the padding on reassembly (see :func:`join_blocks`).
    """
    if block_size <= 0:
        raise BlockSizeMismatchError("block_size must be positive")
    if not data:
        return []
    chunks: List[Payload] = []
    for offset in range(0, len(data), block_size):
        chunk = data[offset : offset + block_size]
        chunks.append(as_payload(chunk, block_size))
    return chunks


def join_blocks(payloads: Sequence[Payload], original_length: int | None = None) -> bytes:
    """Reassemble payloads produced by :func:`split_into_blocks`."""
    if not payloads:
        return b""
    # One allocation of the document's size: an intermediate joined array
    # would be a second one, allocated and freed per read.
    joined = b"".join([as_payload(payload) for payload in payloads])
    if original_length is not None:
        return joined[:original_length]
    return joined


def block_ids(blocks: Iterable[Block]) -> List[BlockId]:
    """Convenience: extract the identifiers from an iterable of blocks."""
    return [block.block_id for block in blocks]
