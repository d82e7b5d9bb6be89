"""The entanglement encoder.

Encoding is a streaming process (paper, Sec. III-B, "Code Specification"):

1. the new data block is assigned the next lattice position ``i``;
2. its category (top / central / bottom) selects the rule rows of Tables I
   and II;
3. for each of the ``alpha`` strand classes the encoder XORs the data block
   with the parity at the head of the corresponding strand (a virtual zero
   block when the strand starts here) and the result becomes the new strand
   head, i.e. the parity ``p_{i,j}``.

The encoder therefore only needs to keep the last parity of each strand in
memory -- ``s + (alpha - 1) * p`` payloads -- exactly the broker memory
footprint discussed in the geo-replicated backup use case (Sec. IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.blocks import (
    Block,
    BlockId,
    DataId,
    EncodedBlock,
    ParityId,
    parity_ids_for,
    split_into_blocks,
)
from repro.core.lattice import HelicalLattice
from repro.core.parameters import AEParameters, StrandClass
from repro.core.position import strand_labels
from repro.core.strands import StrandHeadRegistry, StrandId, strand_of
from repro.core.xor import (
    Payload,
    PayloadBatch,
    PayloadLike,
    PayloadMatrix,
    as_payload,
    as_payload_matrix,
    xor_chain,
    xor_payloads,
    zero_payload,
)
from repro.exceptions import BlockSizeMismatchError, UnknownBlockError

#: Signature used to fetch parities when rebuilding encoder state after a crash.
ParityFetcher = Callable[[ParityId], Optional[Payload]]

DEFAULT_BLOCK_SIZE = 4096


class Entangler:
    """Streaming encoder for an AE(alpha, s, p) code.

    Parameters
    ----------
    params:
        The code setting.
    block_size:
        Size in bytes of every data and parity block.  Incoming payloads are
        zero-padded to this size.
    """

    def __init__(self, params: AEParameters, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size <= 0:
            raise BlockSizeMismatchError("block_size must be positive")
        self._params = params
        self._block_size = block_size
        self._lattice = HelicalLattice(params)
        self._heads = StrandHeadRegistry(params)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def params(self) -> AEParameters:
        return self._params

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def lattice(self) -> HelicalLattice:
        return self._lattice

    @property
    def blocks_encoded(self) -> int:
        return self._lattice.size

    @property
    def memory_footprint_blocks(self) -> int:
        """Number of parities currently held in memory (<= strand count)."""
        return len(self._heads)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def entangle(self, payload: PayloadLike) -> EncodedBlock:
        """Entangle one data block and return it together with its parities."""
        data_payload = as_payload(payload, self._block_size)
        if data_payload.size != self._block_size:
            raise BlockSizeMismatchError(
                f"payload of {data_payload.size} bytes does not fit block size "
                f"{self._block_size}"
            )
        (data_id,) = self._lattice.grow(1)
        index = data_id.index
        parities: List[Block] = []
        for strand_class in self._params.strand_classes:
            strand = strand_of(index, strand_class, self._params)
            head_payload = self._heads.head_payload(strand)
            if head_payload is None:
                head_payload = zero_payload(self._block_size)
            parity_payload = xor_payloads(data_payload, head_payload)
            parity_id = ParityId(index, strand_class)
            parities.append(Block(parity_id, parity_payload))
            self._heads.update(strand, index, parity_payload)
        return EncodedBlock(data=Block(data_id, data_payload), parities=parities)

    def encode_stream(self, payloads: Iterable) -> Iterator[EncodedBlock]:
        """Entangle an iterable of payloads lazily."""
        for payload in payloads:
            yield self.entangle(payload)

    def encode_bytes(self, data: bytes) -> Tuple[List[EncodedBlock], int]:
        """Split ``data`` into blocks, entangle them all and return the blocks.

        The second element of the tuple is the original length, needed to strip
        the zero padding of the last block on reassembly.
        """
        chunks = split_into_blocks(data, self._block_size)
        return [self.entangle(chunk) for chunk in chunks], len(data)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def strand_head_ids(self) -> List[ParityId]:
        """Identifiers of the parities currently acting as strand heads."""
        snapshot = self._heads.snapshot()
        return [
            ParityId(creator, strand.strand_class)
            for strand, creator in snapshot.items()
        ]

    def restore(self, size: int, fetch: ParityFetcher) -> None:
        """Rebuild the in-memory strand heads after a crash.

        ``size`` is the number of data blocks already entangled; ``fetch``
        retrieves parities from remote storage (paper, Sec. IV-A: "If the
        broker crashes, it only needs to retrieve the p-blocks from the remote
        nodes").
        """
        self._lattice = HelicalLattice(self._params, size)
        self._heads.clear()
        if size == 0:
            return
        for strand, creator in latest_strand_creators(self._params, size).items():
            parity_id = ParityId(creator, strand.strand_class)
            payload = fetch(parity_id)
            if payload is None:
                raise UnknownBlockError(
                    f"cannot restore encoder state: parity {parity_id!r} unavailable"
                )
            self._heads.update(strand, creator, as_payload(payload, self._block_size))


@dataclass
class EncodedBatch:
    """Result of entangling a stack of data blocks in one pass.

    Payloads stay in matrix form -- ``data`` is the ``(n, block_size)`` input
    stack and ``parities`` the one ``(alpha, n, block_size)`` allocation of
    the batch: ``parities[c][k]`` is the parity that ``data_ids[k]`` created
    on the ``c``-th strand class of the code.  Row views are handed to
    storage without per-block byte copies.  :meth:`iter_blocks` is the one
    definition of the order blocks are handed down in;
    :meth:`encoded_blocks` builds classic :class:`EncodedBlock` objects when
    object-level access is preferred.
    """

    data_ids: List[DataId]
    data: PayloadMatrix
    strand_classes: Tuple[StrandClass, ...]
    parities: PayloadMatrix

    @property
    def block_count(self) -> int:
        """Number of data blocks in the batch."""
        return len(self.data_ids)

    def iter_blocks(self) -> Iterator[Tuple[BlockId, Payload]]:
        """``(block_id, payload)`` pairs for every block of the batch.

        Payloads are row views into the batch matrices (no copies); the order
        matches the sequential encoder: each data block followed by its
        parities in strand-class order.  That order is what every storage
        location receives its blocks in.  The pairs are laid out by slice
        assignment, one C-level pass per lane, not yielded one by one.
        """
        width = 1 + len(self.strand_classes)
        blocks: List[Tuple[BlockId, Payload]] = [None] * (len(self.data_ids) * width)  # type: ignore[list-item]
        blocks[0::width] = zip(self.data_ids, self.data)
        indexes = [data_id.index for data_id in self.data_ids]
        for lane, strand_class in enumerate(self.strand_classes, start=1):
            blocks[lane::width] = zip(
                parity_ids_for(indexes, strand_class), self.parities[lane - 1]
            )
        return iter(blocks)

    def encoded_blocks(self) -> List[EncodedBlock]:
        """Materialise the batch as per-block :class:`EncodedBlock` objects."""
        blocks: List[EncodedBlock] = []
        for row, data_id in enumerate(self.data_ids):
            parities = [
                Block(ParityId(data_id.index, strand_class), self.parities[position][row])
                for position, strand_class in enumerate(self.strand_classes)
            ]
            blocks.append(EncodedBlock(data=Block(data_id, self.data[row]), parities=parities))
        return blocks


#: The chains of one strand class across a batch: every strand the batch
#: touches, by ascending label, with the batch rows lying on it in lattice
#: order.
_ClassChains = Tuple[Tuple[StrandId, Tuple[int, ...]], ...]

#: Batch rows the memoised scan plans of one encoder may hold between them.
_PLAN_MEMO_ROWS = 1 << 15


class BatchEntangler(Entangler):
    """Planned one-pass entangler: encodes a stack of blocks per call.

    Entanglement along one strand is a running XOR -- parity ``p_k`` of a
    strand is ``head ^ d_1 ^ ... ^ d_k`` over the strand's data blocks.  How
    the rows of a batch fall onto strands depends only on where in the
    lattice period (``s * max(p, 1)`` positions) the batch starts and on how
    many rows it has, so that partition -- the *scan plan* -- is looked up,
    not re-derived per call.  The batch then costs what the paper says a
    write costs: ``alpha`` whole-block XORs per data block
    (:func:`~repro.core.xor.xor_chain`), each reading a data row and the
    previous parity of the strand and writing straight into its row of the
    one ``(alpha, n, block_size)`` parity allocation.  Nothing is copied
    first and nothing is XORed in place; the input matrix and the strand
    heads are only ever read, so the input may be a read-only view over the
    caller's ``bytes``.  The produced parities are bit-identical to ``n``
    sequential :meth:`Entangler.entangle` calls and leave the strand-head
    registry in the same state, so batched and single-block encoding can be
    mixed freely.

    The plan memo is derived state: keyed by ``(start offset in the period,
    row count)``, bounded to ``_PLAN_MEMO_ROWS`` rows in total (oldest plan
    evicted first), built on first use and never persisted.
    """

    def __init__(self, params: AEParameters, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        super().__init__(params, block_size)
        self._period = params.s * max(params.p, 1)
        self._plans: Dict[Tuple[int, int], Tuple[_ClassChains, ...]] = {}
        self._plan_rows = 0

    def entangle_batch(self, payloads: PayloadBatch) -> EncodedBatch:
        """Entangle a stack of blocks and return the batch result.

        ``payloads`` may be a ``(n, block_size)`` uint8 matrix, a byte string
        (split into zero-padded blocks) or a sequence of block payloads.  The
        lattice and the strand heads move only once every parity of the batch
        is computed: a call that raises leaves the encoder where it was.
        """
        matrix = as_payload_matrix(payloads, self._block_size)
        count = matrix.shape[0]
        classes = self._params.strand_classes
        parities = np.empty((len(classes), count, self._block_size), dtype=np.uint8)
        if count == 0:
            return EncodedBatch([], matrix, classes, parities)
        start = self._lattice.size + 1
        # One row view per block, created in bulk: list indexing inside the
        # scan is several times cheaper than ndarray row indexing.
        sources = list(matrix)
        head_payload = self._heads.head_payload
        heads: List[Tuple[StrandId, int, Payload]] = []
        for class_parities, chains in zip(parities, self._scan_plan(start, count)):
            outputs = list(class_parities)
            for strand, rows in chains:
                head = xor_chain(sources, outputs, rows, head_payload(strand))
                heads.append((strand, start + rows[-1], head))
        data_ids = self._lattice.grow(count)
        for strand, creator, head in heads:
            self._heads.update(strand, creator, head)
        return EncodedBatch(data_ids, matrix, classes, parities)

    def _scan_plan(self, start: int, count: int) -> Tuple[_ClassChains, ...]:
        """Per strand class, the chains of a ``count``-row batch whose first
        row is lattice position ``start`` (memoised per period offset)."""
        key = ((start - 1) % self._period, count)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._build_scan_plan(*key)
            if count <= _PLAN_MEMO_ROWS:
                plans = self._plans
                self._plan_rows += count
                while self._plan_rows > _PLAN_MEMO_ROWS:
                    oldest = next(iter(plans))
                    self._plan_rows -= oldest[1]
                    del plans[oldest]
                plans[key] = plan
        return plan

    def _build_scan_plan(self, offset: int, count: int) -> Tuple[_ClassChains, ...]:
        # Strand labels repeat with the lattice period, so the positions
        # ``offset + 1 ..`` of the first period stand for the real ones.
        indexes = np.arange(offset + 1, offset + 1 + count, dtype=np.int64)
        plan: List[_ClassChains] = []
        for strand_class in self._params.strand_classes:
            labels = strand_labels(indexes, strand_class, self._params).tolist()
            chains: Dict[int, List[int]] = {}
            for row, label in enumerate(labels):
                chains.setdefault(label, []).append(row)
            plan.append(
                tuple(
                    (StrandId(strand_class, label), tuple(chains[label]))
                    for label in sorted(chains)
                )
            )
        return tuple(plan)


def latest_strand_creators(params: AEParameters, size: int) -> dict:
    """For each strand, the largest node index <= ``size`` lying on it.

    Within the last ``s * max(p, 1)`` positions every strand of the lattice is
    visited at least once (one full helical cycle), so a bounded backward scan
    is sufficient.
    """
    window = params.s * max(params.p, 1)
    creators: dict = {}
    expected = params.strand_count if size >= window else None
    for index in range(size, max(size - window, 0), -1):
        for strand_class in params.strand_classes:
            strand = strand_of(index, strand_class, params)
            if strand not in creators:
                creators[strand] = index
        if expected is not None and len(creators) >= expected:
            break
    return creators


def encode_file_payloads(
    params: AEParameters, data: bytes, block_size: int = DEFAULT_BLOCK_SIZE
) -> Tuple[List[EncodedBlock], int]:
    """Convenience helper: encode a byte string with a fresh :class:`Entangler`."""
    encoder = Entangler(params, block_size)
    return encoder.encode_bytes(data)
