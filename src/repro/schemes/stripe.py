"""Adapter putting every :class:`~repro.codes.base.StripeCode` behind the
scheme-agnostic :class:`~repro.schemes.base.RedundancyScheme` protocol.

Incoming data blocks are packed into stripes of ``k`` blocks (the final
stripe of a batch is completed with stored zero-padding blocks so every
stripe is structurally whole), parities are appended at positions
``k .. n-1`` and every block is addressed by a :class:`StripeBlockId`.  The
stripes of one put are handed to the code side by side, as one wide stripe,
so a put costs one :meth:`StripeCode.encode` call however long it is.
Repair uses the cheapest read set the code advertises through
:meth:`StripeCode.repair_read_positions` -- one block for replication, the
local group for LRC, the smallest parity equation for flat XOR, ``k`` blocks
for Reed-Solomon -- so the measured read counts line up with the analytic
Table IV costs for single failures.  When that plan is unavailable, or a
stripe lost several blocks, every surviving position is read and the code
is asked to :meth:`StripeCode.rebuild` exactly the missing ones (Reed-Solomon
computes the lost data rows and the encoding row of each lost parity; the
other codes decode, and encode again when a parity is lost).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Sequence, Set, Tuple

import numpy as np

from repro.codes.base import StripeCode
from repro.codes.flat_xor import FlatXorCode
from repro.codes.lrc import LocalReconstructionCode
from repro.codes.reed_solomon import ReedSolomonCode
from repro.codes.replication import ReplicationCode
from repro.core.xor import Payload, PayloadBatch, as_payload, as_payload_matrix, zero_payload
from repro.exceptions import DecodingError
from repro.schemes.base import (
    BlockSource,
    EncodedPart,
    RedundancyScheme,
    SchemeCapabilities,
    SchemeRepairOutcome,
)

__all__ = ["StripeBlockId", "StripeScheme"]


class StripeBlockId(NamedTuple):
    """Identifier of one block of a striped layout.

    ``stripe`` is the running stripe number of the scheme instance and
    ``position`` the slot within the stripe: ``0 .. k-1`` data,
    ``k .. n-1`` redundancy.  A named tuple like the lattice ids
    (:mod:`repro.core.blocks`): an ``(int, int)`` pair never equals one.
    """

    stripe: int
    position: int

    @property
    def index(self) -> int:  # type: ignore[override, unused-ignore]
        """A flat integer used by placement spreading (cluster relocate)."""
        return self.stripe * 1024 + self.position

    def label(self) -> str:
        return f"s[{self.stripe},{self.position}]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.label()


_KINDS = {
    ReedSolomonCode: "rs",
    LocalReconstructionCode: "lrc",
    ReplicationCode: "replication",
    FlatXorCode: "xor",
}


class StripeScheme(RedundancyScheme):
    """Drives a :class:`StripeCode` through the redundancy protocol."""

    def __init__(self, code: StripeCode, scheme_id: str, block_size: int = 4096) -> None:
        super().__init__(scheme_id, block_size)
        self._code = code
        self._next_stripe = 0
        # Real data blocks per stripe (only recorded when < k): positions at
        # or beyond this count are stored zero padding, not document data.
        self._real_count: Dict[int, int] = {}

    @property
    def code(self) -> StripeCode:
        return self._code

    @property
    def stripes_written(self) -> int:
        return self._next_stripe

    def capabilities(self) -> SchemeCapabilities:
        code = self._code
        return SchemeCapabilities(
            scheme_id=self.scheme_id,
            name=code.name,
            kind=_KINDS.get(type(code), "stripe"),
            storage_overhead=code.storage_overhead,
            single_failure_reads=code.single_failure_cost,
            streaming=False,
            erasable=True,
        )

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def encode(self, payloads: PayloadBatch) -> EncodedPart:
        """Cut the batch into stripes and encode them all in one call.

        A stripe code acts on every byte position independently, so the
        stripes of a put laid side by side -- position ``p`` of every stripe
        concatenated into one long row -- are one wide stripe: its parities
        are the stripes' parities, concatenated the same way.
        """
        matrix = as_payload_matrix(payloads, self._block_size)
        code = self._code
        k, size = code.k, self._block_size
        row_count = matrix.shape[0]
        whole, tail = divmod(row_count, k)
        stripes = whole + bool(tail)
        part = EncodedPart()
        if not stripes:
            return part
        wide = np.zeros((k, stripes, size), dtype=np.uint8)
        wide[:, :whole] = matrix[: whole * k].reshape(whole, k, size).swapaxes(0, 1)
        if tail:
            wide[:tail, whole] = matrix[whole * k :]
        parities = [
            parity.reshape(stripes, size)
            for parity in code.encode(list(wide.reshape(k, stripes * size)))
        ]
        for number in range(stripes):
            stripe = self._next_stripe
            self._next_stripe += 1
            real = k if number < whole else tail
            if real < k:
                self._real_count[stripe] = real
            rows: List[Payload] = [matrix[number * k + row] for row in range(real)]
            rows.extend(zero_payload(size) for _ in range(k - real))
            rows.extend(parity[number] for parity in parities)
            for position, payload in enumerate(rows):
                part.blocks.append((StripeBlockId(stripe, position), payload))
            part.data_ids.extend(StripeBlockId(stripe, position) for position in range(real))
        return part

    # ------------------------------------------------------------------
    # Read / repair path
    # ------------------------------------------------------------------
    def repair(self, missing: Set[object], source: BlockSource) -> SchemeRepairOutcome:
        outcome = SchemeRepairOutcome(rounds=1)
        by_stripe: Dict[int, List[int]] = {}
        for block_id in missing:
            if self.owns(block_id):
                by_stripe.setdefault(block_id.stripe, []).append(block_id.position)
            else:
                outcome.unrecovered.append(block_id)
        for stripe in sorted(by_stripe):
            recovered, unrecovered, reads = self._repair_stripe(
                stripe, by_stripe[stripe], source
            )
            outcome.recovered.update(recovered)
            outcome.unrecovered.extend(unrecovered)
            outcome.blocks_read += reads
        if not outcome.recovered:
            outcome.rounds = 0
        return outcome

    def _repair_stripe(
        self, stripe: int, missing_positions: Iterable[int], source: BlockSource
    ) -> Tuple[Dict[StripeBlockId, Payload], List[StripeBlockId], int]:
        """Rebuild the missing positions of one stripe, reading as little as
        the code allows; the last item is the number of payloads read."""
        code = self._code
        missing = sorted(set(missing_positions))
        others = [position for position in range(code.n) if position not in missing]
        fetched: Dict[int, Payload] = {}

        def grab_many(positions: Sequence[int]) -> None:
            """Fetch the not-yet-cached positions in one bulk call; failed
            positions stay absent from the cache."""
            wanted = [position for position in positions if position not in fetched]
            if not wanted:
                return
            payloads = source.try_get_many(
                [StripeBlockId(stripe, position) for position in wanted]
            )
            for position, payload in zip(wanted, payloads):
                if payload is not None:
                    fetched[position] = as_payload(payload, self._block_size)

        if len(missing) == 1:
            position = missing[0]
            plan = code.repair_read_positions(position, others)
            if plan is not None:
                grab_many(plan)
                payloads = {p: fetched.get(p) for p in plan}
                if all(payload is not None for payload in payloads.values()):
                    block_id = StripeBlockId(stripe, position)
                    return {block_id: code.repair(position, payloads)}, [], len(fetched)
        # General path: rebuild from everything still readable.
        # The read set is every surviving position of the stripe -- the same
        # blocks a per-position loop would attempt -- fetched in one batch.
        grab_many(others)
        available = {
            position: fetched[position] for position in others if position in fetched
        }
        try:
            if not code.can_decode(sorted(available)):
                raise DecodingError("insufficient surviving blocks")
            rebuilt = code.rebuild(missing, available)
        except DecodingError:
            lost = [StripeBlockId(stripe, position) for position in missing]
            return {}, lost, len(fetched)
        recovered = {
            StripeBlockId(stripe, position): as_payload(payload, self._block_size)
            for position, payload in zip(missing, rebuilt)
        }
        return recovered, [], len(fetched)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """The stripe write position plus the short-stripe padding map."""
        return {
            "next_stripe": self._next_stripe,
            "real_count": {str(stripe): real for stripe, real in self._real_count.items()},
        }

    def restore_state(self, state: Dict[str, object], source: BlockSource) -> None:
        """Resume striping where the closed service stopped (no reads needed)."""
        self._next_stripe = int(state.get("next_stripe", 0))
        self._real_count = {
            int(stripe): int(real)
            for stripe, real in dict(state.get("real_count", {})).items()
        }

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def owns(self, block_id: object) -> bool:
        return isinstance(block_id, StripeBlockId) and block_id.stripe < self._next_stripe

    def is_data_block(self, block_id: object) -> bool:
        """True for document data: parity and stored padding positions are not."""
        if not isinstance(block_id, StripeBlockId):
            return False
        real = self._real_count.get(block_id.stripe, self._code.k)
        return block_id.position < real

    def document_blocks(self, data_ids: Sequence[object]) -> List[object]:
        stripes = sorted({block_id.stripe for block_id in data_ids})
        return [
            StripeBlockId(stripe, position)
            for stripe in stripes
            for position in range(self._code.n)
        ]
