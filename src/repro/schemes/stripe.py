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
stripe lost several blocks, every survivor is read and one
:meth:`StripeCode.decode` computes exactly the missing ones.  A repair pass
fetches all its stripes' reads in one bulk call and, like a put, rebuilds
the stripes that lost and read the same positions side by side in one call.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.codes.base import StripeCode
from repro.codes.flat_xor import FlatXorCode
from repro.codes.lrc import LocalReconstructionCode
from repro.codes.reed_solomon import ReedSolomonCode
from repro.codes.replication import ReplicationCode
from repro.core.xor import (
    Payload,
    PayloadBatch,
    as_payload,
    as_payload_matrix,
    gather_payload_matrix,
    zero_payload,
)
from repro.exceptions import DecodingError
from repro.schemes.base import (
    BlockSource,
    EncodedPart,
    RedundancyScheme,
    SchemeCapabilities,
    SchemeRepairOutcome,
    SchemeScrubOutcome,
)

__all__ = ["StripeBlockId", "StripeScheme"]

#: Stripes per repair pass (256 stripes of RS(10,4) 4 KiB survivors: ~14 MiB).
STRIPES_PER_PASS = 256


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

    @property
    def stripe_data_blocks(self) -> int:
        return self._code.k

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
        stripes = sorted(by_stripe)
        for start in range(0, len(stripes), STRIPES_PER_PASS):
            batch = stripes[start : start + STRIPES_PER_PASS]
            self._repair_pass({s: sorted(by_stripe[s]) for s in batch}, source, outcome)
        if not outcome.recovered:
            outcome.rounds = 0
        return outcome

    def _repair_pass(
        self, lost: Dict[int, List[int]], source: BlockSource, outcome: SchemeRepairOutcome
    ) -> None:
        """Rebuild a pass of stripes into ``outcome``: their reads in one bulk
        fetch (plus one, of the survivors a plan left out, where it came back
        short), then one code call per group of stripes that lost and read
        the same positions, laid side by side as in :meth:`encode`."""
        code, size = self._code, self._block_size
        fetched: Dict[int, Dict[int, Payload]] = {stripe: {} for stripe in lost}

        def fetch(wanted: Dict[int, List[int]]) -> None:
            ids = [StripeBlockId(s, p) for s, positions in wanted.items() for p in positions]
            for block_id, payload in zip(ids, source.try_get_many(ids) if ids else ()):
                if payload is not None:
                    fetched[block_id.stripe][block_id.position] = as_payload(payload)

        others = {s: [p for p in range(code.n) if p not in lost[s]] for s in lost}
        single = [s for s in lost if len(lost[s]) == 1]
        plans = {s: code.repair_read_positions(lost[s][0], others[s]) for s in single}
        plans = {s: plan for s, plan in plans.items() if plan is not None}
        fetch({s: plans.get(s, others[s]) for s in lost})
        planned = {s for s, plan in plans.items() if set(plan) <= fetched[s].keys()}
        short = [s for s in plans if s not in planned]
        fetch({s: [p for p in others[s] if p not in plans[s]] for s in short})
        # (lost positions, positions read) -> the stripes rebuilt together.
        groups: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], List[int]] = {}
        for s, positions in lost.items():
            reads = plans[s] if s in planned else sorted(fetched[s])
            groups.setdefault((tuple(positions), tuple(reads)), []).append(s)
            outcome.blocks_read += len(fetched[s])
        rebuilt: Dict[int, Sequence[Payload]] = {}
        for (positions, reads), members in groups.items():
            if members[0] not in planned and not code.can_decode(reads):
                continue
            if len(members) == 1:  # a lone stripe is decoded as fetched, uncopied
                available = {p: fetched[members[0]][p] for p in reads}
            else:
                wide = np.concatenate([fetched[s][p] for p in reads for s in members])
                available = dict(zip(reads, wide.reshape(len(reads), -1)))
            try:
                if members[0] in planned:
                    rows = [code.repair(positions[0], available)]
                else:
                    rows = code.decode(available, positions)
            except DecodingError:
                continue
            blocks = [np.asarray(row).reshape(len(members), size) for row in rows]
            rebuilt.update(zip(members, zip(*blocks)))
        for s, positions in lost.items():
            ids = [StripeBlockId(s, position) for position in positions]
            if s in rebuilt:
                outcome.recovered.update(zip(ids, rebuilt[s]))
            else:
                outcome.unrecovered.extend(ids)

    def scrub(self, source: BlockSource) -> SchemeScrubOutcome:
        """Re-encode every fully readable stripe, compare its parities, and
        locate the blocks that changed in each stripe that differs.

        A pass of :data:`STRIPES_PER_PASS` stripes is one
        ``source.try_get_many`` and one :meth:`StripeCode.encode`, the
        stripes laid side by side as in :meth:`encode`.  A stripe missing a
        block is unchecked.  A violated stripe's suspects are what :meth:`_locate`
        finds; when it finds no single answer, the stripe names none.
        """
        code, size = self._code, self._block_size
        k, n = code.k, code.n
        outcome = SchemeScrubOutcome()
        for start in range(0, self._next_stripe, STRIPES_PER_PASS):
            stripes = range(start, min(start + STRIPES_PER_PASS, self._next_stripe))
            ids = [StripeBlockId(s, p) for s in stripes for p in range(n)]
            fetched = source.try_get_many(ids)
            rows = [fetched[row : row + n] for row in range(0, len(ids), n)]
            whole = [s for s, row in zip(stripes, rows) if all(b is not None for b in row)]
            outcome.checked += len(whole)
            outcome.unchecked += len(stripes) - len(whole)
            if not whole:
                continue
            # Position-major: row ``p`` is position ``p`` of every whole stripe.
            blocks = gather_payload_matrix(
                [rows[s - start][p] for p in range(n) for s in whole], size
            ).reshape(n, len(whole) * size)
            parities = np.stack(code.encode(list(blocks[:k])))
            differs = (parities != blocks[k:]).reshape(n - k, len(whole), size).any(axis=(0, 2))
            for s, bad in zip(whole, differs.tolist()):
                if bad:
                    outcome.violated.append(s)
                    changed = self._locate([as_payload(b) for b in rows[s - start]])
                    outcome.suspects.extend(StripeBlockId(s, p) for p in changed or ())
        return outcome

    def _locate(self, stored: Sequence[Payload]) -> Optional[Tuple[int, ...]]:
        """The positions of a violated stripe whose stored blocks changed.

        A code with ``r`` parities locates up to ``r // 2`` changed blocks
        (an MDS code has distance ``r + 1``; Reed & Solomon, 1960).  For
        each position set ``E`` of that size or less, smallest first,
        :meth:`StripeCode.decode` rebuilds ``E`` from the other blocks, and
        ``E`` fits when the rebuilt stripe re-encodes to itself -- when the
        stored blocks outside ``E`` are one codeword.  The unique fitting
        set of the smallest size is the answer; none, or several, is
        ``None`` (``r = 1`` never attributes).  A code that cannot decode
        without ``E`` skips that set.
        """
        code = self._code
        k, n = code.k, code.n
        for count in range(1, (n - k) // 2 + 1):
            fits = []
            for erased in combinations(range(n), count):
                kept = {p: stored[p] for p in range(n) if p not in erased}
                try:
                    stripe = code.decode(kept, range(n))
                except DecodingError:
                    continue
                if all(map(np.array_equal, code.encode(stripe[:k]), stripe[k:])):
                    fits.append(erased)
            if fits:
                return fits[0] if len(fits) == 1 else None
        return None

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
        return isinstance(block_id, StripeBlockId) and (
            0 <= block_id.stripe < self._next_stripe and 0 <= block_id.position < self._code.n
        )

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
