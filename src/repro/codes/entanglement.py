"""Alpha entanglement behind the scheme-agnostic redundancy protocol.

:class:`EntanglementScheme` wraps the helical-lattice machinery -- the
vectorised :class:`~repro.core.encoder.BatchEntangler` on the write path and
the round-based :class:`~repro.core.batch_repair.RepairRun` on the
read/repair path -- behind the
:class:`~repro.schemes.base.RedundancyScheme` interface, so the storage
front-end can drive AE codes and the stripe-code baselines through the same
verbs.  The scheme is *streaming*: the lattice grows with every encoded
batch, parities chain across documents, and blocks are never physically
deleted (paper, Sec. III-B: deletions happen only at the beginning of the
mesh).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.batch_repair import RepairRun, block_sort_key
from repro.core.blocks import BlockId, DataId, ParityId, is_data
from repro.core.encoder import DEFAULT_BLOCK_SIZE, BatchEntangler
from repro.core.lattice import HelicalLattice
from repro.core.parameters import AEParameters
from repro.core.puncturing import PuncturedCode, masked_parities, puncture_rate
from repro.core.rules import rule_offsets
from repro.core.xor import PayloadBatch, gather_payload_matrix, xor_pairs
from repro.exceptions import InvalidParametersError
from repro.schemes.base import (
    BlockSource,
    EncodedPart,
    RedundancyScheme,
    SchemeCapabilities,
    SchemeRepairOutcome,
    SchemeScrubOutcome,
)

__all__ = [
    "EntanglementScheme",
    "PuncturedEntanglementScheme",
    "punctured_scheme_id",
]


#: Lattice nodes per batch of the equation pass (AE(3,2,5) at 4 KiB: ~3 MiB
#: of parities and as much recomputed per batch).
SCRUB_NODES = 256

#: An entanglement equation by its creator node and strand-class column.
Equation = Tuple[int, int]


def punctured_scheme_id(params: AEParameters, keep_fraction: float) -> str:
    """The registry identifier of a rate-punctured AE setting.

    ``ae-3-2-5-p75`` keeps 75% of the parities of AE(3,2,5); the stored
    overhead drops from ``alpha`` towards ``alpha * keep_fraction``.
    """
    return f"{params.scheme_id}-p{int(round(keep_fraction * 100))}"


@lru_cache(maxsize=None)
def _rate_overhead(params: AEParameters, keep_fraction: float) -> float:
    """The stored overhead of a rate.  It depends on the rate alone, so it is
    estimated once per process: not on every delete and overwrite that asks
    ``capabilities()`` whether the scheme is erasable, nor on every reopen."""
    return puncture_rate(params, keep_fraction).effective_overhead()


class EntanglementScheme(RedundancyScheme):
    """AE(alpha, s, p) entanglement as a pluggable redundancy scheme."""

    def __init__(
        self,
        params: AEParameters,
        block_size: int = DEFAULT_BLOCK_SIZE,
        scheme_id: Optional[str] = None,
    ) -> None:
        super().__init__(scheme_id or params.scheme_id, block_size)
        self._entangler = BatchEntangler(params, block_size)

    @property
    def params(self) -> AEParameters:
        return self._entangler.params

    @property
    def lattice(self) -> HelicalLattice:
        return self._entangler.lattice

    @property
    def entangler(self) -> BatchEntangler:
        return self._entangler

    def capabilities(self) -> SchemeCapabilities:
        params = self.params
        return SchemeCapabilities(
            scheme_id=self.scheme_id,
            name=params.spec(),
            kind="ae",
            storage_overhead=params.storage_overhead,
            single_failure_reads=params.single_failure_cost,
            streaming=True,
            erasable=False,
        )

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def encode(self, payloads: PayloadBatch) -> EncodedPart:
        batch = self._entangler.entangle_batch(payloads)
        return EncodedPart(
            data_ids=list(batch.data_ids), blocks=list(batch.iter_blocks())
        )

    # ------------------------------------------------------------------
    # Read / repair path
    # ------------------------------------------------------------------
    def repair(self, missing: Set[object], source: BlockSource) -> SchemeRepairOutcome:
        """Round-based lattice repair (paper, Sec. V-C4), executed in bulk.

        A thin caller of :class:`~repro.core.batch_repair.RepairRun`, which
        plans against ``source.is_available`` and fetches each round's inputs
        through one ``source.try_get_many``.  Identifiers that are not blocks
        of this lattice -- another scheme's, or beyond the encoded size --
        come back in ``unrecovered`` untouched.  What a stuck run rebuilds on
        the way -- lost neighbours, parities a punctured setting never stored
        -- is counted in ``blocks_read`` but never surfaces as recovered
        (nothing un-punctures the code by writing them back).

        ``blocks_read`` counts the *distinct* payloads the run obtained --
        from the source or from the overlay of earlier rounds -- so a
        surviving block feeding several dependent repairs is accounted once.
        """
        lattice = self.lattice
        owned: Set[BlockId] = set()
        beyond: List[BlockId] = []
        outcome = SchemeRepairOutcome()
        for block_id in missing:
            if not isinstance(block_id, (DataId, ParityId)):
                outcome.unrecovered.append(block_id)
            elif lattice.has_block(block_id):
                owned.add(block_id)
            else:
                beyond.append(block_id)
        outcome.unrecovered.extend(sorted(beyond, key=block_sort_key))
        run = RepairRun(lattice, owned, self._block_size, source)
        for recovered, _ in run.rounds():
            outcome.recovered.update(recovered)
            outcome.rounds += 1
        outcome.blocks_read = run.blocks_read
        outcome.unrecovered.extend(sorted(run.pending, key=block_sort_key))
        return outcome.restricted_to(set(missing)) if run.grew else outcome

    def scrub(self, source: BlockSource) -> SchemeScrubOutcome:
        """The entanglement-equation pass (paper, Sec. III-B).

        Every equation ``p_{i,j} == d_i XOR p_{h,i}`` is checked, a batch of
        :data:`SCRUB_NODES` nodes at a time: one ``source.try_get_many`` and
        one :func:`~repro.core.xor.xor_pairs` per batch.  An equation with a
        member that cannot be read is unchecked.  A changed block violates
        every checked equation it is part of, so a block is a suspect when
        all of its checked equations are violated -- unless another such
        block's violated equations strictly contain its own (a tampered
        parity violates its creator's and its consumer's equations, the data
        block of each only one of them).  Blocks with equal sets cannot be
        told apart and are ambiguous (under AE(1), the last node's data
        block and parity).
        """
        params = self.params
        size, s, classes = self.lattice.size, params.s, params.strand_classes
        offsets = list(rule_offsets(params).values())
        # 1 holds, 0 violated, -1 unchecked; row ``i - 1``, strand-class column.
        verdicts = np.full((size, len(classes)), -1, dtype=np.int8)

        def members(i: int, column: int) -> Tuple[DataId, Optional[ParityId], ParityId]:
            h = i + offsets[column][0][(i - 1) % s]
            strand_class = classes[column]
            input_parity = ParityId(h, strand_class) if h >= 1 else None
            return DataId(i), input_parity, ParityId(i, strand_class)

        for start in range(1, size + 1, SCRUB_NODES):
            equations = [
                (i, column)
                for i in range(start, min(start + SCRUB_NODES, size + 1))
                for column in range(len(classes))
            ]
            ids = [members(*equation) for equation in equations]
            wanted = list(dict.fromkeys(b for trio in ids for b in trio if b is not None))
            payload = dict(zip(wanted, source.try_get_many(wanted)))
            readable = [
                k
                for k, trio in enumerate(ids)
                if all(b is None or payload[b] is not None for b in trio)
            ]
            if not readable:
                continue
            data, inputs, parities = zip(*(ids[k] for k in readable))
            expected = xor_pairs(
                [payload[b] for b in data],
                [None if b is None else payload[b] for b in inputs],
                self._block_size,
            )
            stored = gather_payload_matrix([payload[b] for b in parities], self._block_size)
            rows, columns = np.array([equations[k] for k in readable]).T
            verdicts[rows - 1, columns] = (expected == stored).all(axis=1)
        outcome = SchemeScrubOutcome(
            checked=int((verdicts >= 0).sum()), unchecked=int((verdicts < 0).sum())
        )
        violated = {
            (row + 1, column): members(row + 1, column)
            for row, column in np.argwhere(verdicts == 0).tolist()
        }
        outcome.violated = [trio[2] for trio in violated.values()]

        def incident(block_id: BlockId) -> List[Equation]:
            i = block_id.index
            if is_data(block_id):
                return [(i, column) for column in range(len(classes))]
            column = classes.index(block_id.strand_class)
            j = i + offsets[column][1][(i - 1) % s]
            return [(i, column)] + ([(j, column)] if j <= size else [])

        # Each block of a violated equation, by the checked equations it is
        # part of -- a candidate only when they are all violated.
        sets: Dict[BlockId, Optional[FrozenSet[Equation]]] = {}
        for trio in violated.values():
            for block_id in trio:
                if block_id is not None and block_id not in sets:
                    checked = [(i, c) for i, c in incident(block_id) if verdicts[i - 1, c] >= 0]
                    violates_all = all(verdicts[i - 1, c] == 0 for i, c in checked)
                    sets[block_id] = frozenset(checked) if violates_all else None
        for block_id, mine in sets.items():
            if mine is None:
                continue
            # A block whose set contains ``mine`` is in every equation of it.
            peers = [sets.get(other) for other in violated[next(iter(mine))] if other != block_id]
            if any(mine < theirs for theirs in peers if theirs is not None):
                continue
            (outcome.ambiguous if mine in peers else outcome.suspects).append(block_id)
        outcome.suspects.sort(key=block_sort_key)
        outcome.ambiguous.sort(key=block_sort_key)
        return outcome

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """The lattice write position; strand heads are rebuilt from storage."""
        return {"blocks_encoded": self._entangler.blocks_encoded}

    def restore_state(self, state: Dict[str, object], source: BlockSource) -> None:
        """Regrow the lattice and read the strand-head parities back.

        This is the paper's broker crash recovery (Sec. IV-A): the encoder
        only needs the head parity of each strand, all of which live in
        remote storage, so a durable reopen can continue entangling exactly
        where the closed service stopped.  A head is a block like any other:
        one whose location is gone, or that a punctured setting never
        stored, is rebuilt through :meth:`repair`
        (:class:`~repro.exceptions.RepairFailedError` when no path is left).
        """
        self._entangler.restore(
            int(state.get("blocks_encoded", 0)),
            lambda head: self.read_block(head, source),
        )

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def owns(self, block_id: object) -> bool:
        return isinstance(block_id, (DataId, ParityId)) and self.lattice.has_block(
            block_id
        )

    def is_data_block(self, block_id: object) -> bool:
        return is_data(block_id)

    def document_blocks(self, data_ids: Sequence[object]) -> List[object]:
        # Parities are shared lattice state and must survive document
        # deletion; only the data handles belong to the document.
        return list(data_ids)


class PuncturedEntanglementScheme(EntanglementScheme):
    """A rate-punctured AE code: some parities are computed but never stored.

    Puncturing (paper, Sec. III-B, "Reducing Storage Overhead") trades fault
    tolerance for intermediate code rates between the ``alpha`` steps: the
    deterministic :func:`~repro.core.puncturing.puncture_rate` policy decides
    per parity identity whether the block is stored, so readers, writers and
    repair agree on the punctured set without extra metadata.  Punctured
    parities behave exactly like missing blocks -- repair regenerates them
    on demand as intermediates, on reads, repairs and reopen alike -- but
    they are never written back to storage.
    """

    def __init__(
        self,
        params: AEParameters,
        keep_fraction: float,
        block_size: int = DEFAULT_BLOCK_SIZE,
        scheme_id: Optional[str] = None,
    ) -> None:
        if params.is_single:
            raise InvalidParametersError(
                "ae-1 has a single parity chain; puncturing it is data loss, "
                "not a rate change"
            )
        super().__init__(
            params,
            block_size=block_size,
            scheme_id=scheme_id or punctured_scheme_id(params, keep_fraction),
        )
        self._code: PuncturedCode = puncture_rate(params, keep_fraction)
        self._keep_fraction = float(keep_fraction)
        self._storage_overhead = _rate_overhead(params, self._keep_fraction)

    @property
    def punctured_code(self) -> PuncturedCode:
        return self._code

    @property
    def keep_fraction(self) -> float:
        return self._keep_fraction

    def capabilities(self) -> SchemeCapabilities:
        params = self.params
        return SchemeCapabilities(
            scheme_id=self.scheme_id,
            name=f"{params.spec()} p{int(round(self._keep_fraction * 100))}",
            kind="ae",
            # The stored overhead after puncturing; the wiring (and the
            # 2-read single-failure repair of an unpunctured neighbourhood)
            # is unchanged.
            storage_overhead=self._storage_overhead,
            single_failure_reads=params.single_failure_cost,
            streaming=True,
            erasable=False,
        )

    def punctured_parities(self) -> List[ParityId]:
        """Every punctured parity of the lattice encoded so far, in lattice order."""
        return masked_parities(
            self._code.mask(self._entangler.blocks_encoded), self.params.strand_classes
        )

    # ------------------------------------------------------------------
    # Write path: drop the punctured parities after computing them
    # ------------------------------------------------------------------
    def encode(self, payloads: PayloadBatch) -> EncodedPart:
        part = super().encode(payloads)
        # Blocks come node by node -- the data block, then its parities in
        # strand-class order -- so a kept data column and the batch's mask
        # row filter one node.
        count = len(part.data_ids)
        stored = np.ones((count, 1 + self.params.alpha), dtype=bool)
        stored[:, 1:] = ~self._code.mask(
            count, start=self._entangler.blocks_encoded - count + 1
        )
        part.blocks = list(compress(part.blocks, stored.ravel().tolist()))
        return part
