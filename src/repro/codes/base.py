"""The one stripe codec of the paper's baselines, and the Table IV cost model.

Alpha entanglement codes do not use stripes, but the codes they are compared
against do: an ``(k, m)`` code splits a source into ``k`` data blocks and adds
``m`` redundant blocks.  Reed-Solomon, LRC, flat XOR codes and replication
are all linear over GF(2^8), so :class:`StripeCode` is one codec built from
an ``n x k`` generator matrix ``M`` whose top ``k`` rows are the identity;
the families only supply their matrix.

Every decode applies a *recovery matrix* ``M[wanted] @ inv(M[read])`` --
"wanted rows x read rows" -- to ``k`` independent blocks read; the recovery
matrices are memoised per erasure pattern.  :meth:`StripeCode.decode` is
the one recovery verb: it returns the wanted positions (the data, unless
told otherwise), passes the blocks it was handed through and computes every
lost one -- data and parity rows alike -- in one product.  A set
of positions decodes when its rows have rank ``k``
(:func:`~repro.codes.gf256.gf_pivot_rows`); a family whose every ``k`` rows
are independent declares :attr:`StripeCode.mds` and skips the elimination.

A parity row whose coefficients are all 0 or 1 is an *XOR row*: LRC's
local parities, every flat XOR equation, every replica.  Encoding computes
the XOR rows with ``xor_many`` and the other rows in one
:func:`~repro.codes.gf256.gf_matmul_bytes` product of packed tables; every
recovery matrix is one such product.  The XOR rows give the local repair
plans: a block on a surviving XOR row is the XOR of the row's other members.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import combinations
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.codes.gf256 import (
    PackedMatrix,
    gf_matmul,
    gf_matmul_bytes,
    gf_matrix_inverse,
    gf_pack_matrix,
    gf_pivot_rows,
)
from repro.core.xor import Payload, as_payload, xor_many
from repro.exceptions import BlockSizeMismatchError, DecodingError


@dataclass(frozen=True)
class CodeCosts:
    """Analytic costs of a redundancy scheme (paper, Table IV)."""

    name: str
    additional_storage_percent: float
    single_failure_cost: int

    def as_row(self) -> Dict[str, object]:
        return {
            "scheme": self.name,
            "additional storage (%)": round(self.additional_storage_percent, 1),
            "single-failure repair (blocks read)": self.single_failure_cost,
        }


#: Erasure patterns whose recovery matrix one code instance keeps (a pattern
#: of RS(10,4) is 5-20 KiB of tables; a site disaster produces a handful).
RECOVERY_CACHE_PATTERNS = 128


class StripeCode:
    """A systematic ``(k, m)`` code over GF(2^8) given by its generator matrix.

    Block positions ``0 .. k-1`` hold data, positions ``k .. n-1`` hold
    redundancy; row ``p`` of the ``n x k`` matrix is the combination of the
    data blocks stored at position ``p``, and the top ``k`` rows are the
    identity.
    """

    #: Every ``k`` rows of the matrix are independent: any ``k`` positions
    #: decode, and a decode reads the first ``k`` available.
    mds = False

    def __init__(self, k: int, m: int, matrix: np.ndarray) -> None:
        if k < 1 or m < 0:
            raise DecodingError(f"invalid stripe configuration k={k}, m={m}")
        self._k = k
        self._m = m
        self._matrix = matrix
        self._positions = frozenset(range(k + m))
        #: Parity position -> data positions of every XOR row, smallest first.
        self._xor_rows: Dict[int, FrozenSet[int]] = dict(
            sorted(
                (
                    (position, frozenset(np.flatnonzero(matrix[position]).tolist()))
                    for position in range(k, k + m)
                    if matrix[position].max() <= 1
                ),
                key=lambda row: (len(row[1]), row[0]),
            )
        )
        self._parity_rows = gf_pack_matrix(
            matrix[[position for position in range(k, k + m) if position not in self._xor_rows]]
        )
        # (positions read, positions wanted) -> packed recovery matrix,
        # oldest pattern dropped first once the bound is reached.
        self._recovery_cache: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], PackedMatrix] = {}
        self._recovery_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of data blocks per stripe."""
        return self._k

    @property
    def m(self) -> int:
        """Number of redundant blocks per stripe."""
        return self._m

    @property
    def n(self) -> int:
        """Total number of blocks per stripe."""
        return self._k + self._m

    @property
    def name(self) -> str:
        return f"{type(self).__name__}({self._k},{self._m})"

    @property
    def encoding_matrix(self) -> np.ndarray:
        """The full ``n x k`` generator matrix (read-only copy)."""
        return self._matrix.copy()

    @property
    def storage_overhead(self) -> float:
        """Additional storage as a fraction of the original data, ``m / k``."""
        return self._m / self._k

    @property
    def single_failure_cost(self) -> int:
        """Blocks read to repair one lost data block: the smallest XOR row
        (its other members and its parity), else ``k``."""
        return min(map(len, self._xor_rows.values()), default=self._k)

    def costs(self) -> CodeCosts:
        return CodeCosts(
            name=self.name,
            additional_storage_percent=self.storage_overhead * 100.0,
            single_failure_cost=self.single_failure_cost,
        )

    def tolerated_failures(self) -> int:
        """Largest number of arbitrary failures every stripe survives."""
        failures = 0
        while all(
            self.can_decode(self._positions.difference(erased))
            for erased in combinations(range(self.n), failures + 1)
        ):
            failures += 1
        return failures

    # ------------------------------------------------------------------
    # Coding
    # ------------------------------------------------------------------
    def encode(self, data_blocks: Sequence[Payload]) -> List[Payload]:
        """Compute the ``m`` redundant blocks for ``k`` data blocks: each XOR
        row by ``xor_many`` (a fresh copy for one member), the other rows in
        one packed product."""
        payloads = self._normalise_stripe(data_blocks)
        packed = self._parity_rows
        products = iter(gf_matmul_bytes(packed, payloads, payloads[0].size) if packed.rows else ())
        xor_rows = self._xor_rows
        return [
            xor_many([payloads[column] for column in xor_rows[position]])
            if position in xor_rows
            else next(products)
            for position in range(self._k, self.n)
        ]

    def decode(
        self, available: Dict[int, Payload], positions: Optional[Sequence[int]] = None
    ) -> List[Payload]:
        """The blocks at ``positions`` (the ``k`` data blocks by default)
        from any sufficient subset.

        ``available`` maps stripe positions (0-based, data first) to
        payloads.  A supplied position comes back as supplied; the lost
        ones, data and parity alike, are one product of the pattern's
        recovery matrix.  Raises :class:`DecodingError` when the available
        set is insufficient.
        """
        if positions is None:
            positions = range(self._k)
        known = self._positions
        if not (known.issuperset(available) and known.issuperset(positions)):
            strangers = [pos for pos in (*available, *positions) if pos not in known]
            raise DecodingError(
                f"{self.name} has positions 0..{self.n - 1}, got {sorted(strangers)}"
            )
        sizes = set(map(len, available.values()))
        if len(sizes) > 1:
            raise DecodingError(
                f"{self.name} blocks must share one size, got sizes {sorted(sizes)}"
            )
        wanted = tuple(pos for pos in positions if pos not in available)
        computed: Dict[int, Payload] = {}
        if wanted:
            read = self._read_rows(sorted(available))
            if len(read) < self.k:
                raise DecodingError(
                    f"{self.name} cannot rebuild {list(wanted)} from {sorted(available)}"
                )
            payloads = [available[pos] for pos in read]
            rows = gf_matmul_bytes(self._recovery(read, wanted), payloads, sizes.pop())
            computed = dict(zip(wanted, rows))
        return [
            computed[pos] if pos in computed else as_payload(available[pos])
            for pos in positions
        ]

    def repair(self, position: int, available: Dict[int, Payload]) -> Payload:
        """Rebuild the block at ``position``: the XOR of a surviving XOR row
        through it when there is one, else the one-element :meth:`decode`."""
        plan = None if position in available else self._xor_plan(position, available.keys())
        if plan is not None:
            return xor_many([available[member] for member in plan])
        return self.decode(available, [position])[0]

    def can_decode(self, available_positions: Iterable[int]) -> bool:
        """True when the available generator rows span the data space: when
        there are ``k`` of them, for an MDS code."""
        positions = self._positions.intersection(available_positions)
        if self.mds or len(positions) < self._k:
            return len(positions) >= self._k
        return len(self._read_rows(sorted(positions))) == self._k

    def repair_read_positions(
        self, position: int, available_positions: Sequence[int]
    ) -> Optional[List[int]]:
        """The cheapest set of positions to read to repair ``position``.

        ``available_positions`` lists the stripe positions believed readable.
        Returns ``None`` when they cannot decode the stripe.  The plan is the
        smallest surviving XOR row through ``position`` (LRC's group, a flat
        XOR equation, one replica), else the first ``k`` survivors when they
        decode -- the measured single-failure read count of an MDS code is
        then its analytic :attr:`single_failure_cost` -- else every survivor.
        """
        others = set(available_positions) - {position}
        plan = self._xor_plan(position, others)
        if plan is not None:
            return plan
        candidates = sorted(others)
        if not self.can_decode(candidates):
            return None
        subset = candidates[: self._k]
        return subset if self.can_decode(subset) else candidates

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _xor_plan(self, position: int, available: AbstractSet[int]) -> Optional[List[int]]:
        """The other members of the smallest XOR row through ``position``
        whose members are all in ``available``, or ``None``."""
        for parity, support in self._xor_rows.items():
            if position == parity:
                needed = support
            elif position in support:
                needed = support.difference([position]).union([parity])
            else:
                continue
            if needed <= available:
                return sorted(needed)
        return None

    def _normalise_stripe(self, data_blocks: Sequence[Payload]) -> List[Payload]:
        if len(data_blocks) != self._k:
            raise BlockSizeMismatchError(
                f"{self.name} expects {self._k} data blocks, got {len(data_blocks)}"
            )
        payloads = [as_payload(block) for block in data_blocks]
        sizes = {payload.size for payload in payloads}
        if len(sizes) > 1:
            raise BlockSizeMismatchError(
                f"stripe blocks must share one size, got sizes {sorted(sizes)}"
            )
        return payloads

    def _read_rows(self, positions: List[int]) -> Tuple[int, ...]:
        """The ``k`` of the sorted available ``positions`` a decode reads
        (fewer if they cannot decode): the first ``k`` of an MDS code, else
        the first ``k`` whose rows are independent."""
        if self.mds:
            return tuple(positions[: self.k])
        # The data rows come first and are unit vectors, so a parity row is
        # independent of the rows before it exactly when its coefficients
        # on the lost data columns are.
        data = [position for position in positions if position < self._k]
        parities = positions[len(data) :]
        lost = sorted(set(range(self._k)).difference(data))
        pivots = gf_pivot_rows(self._matrix[np.ix_(parities, lost)])
        return (*data, *(parities[row] for row in pivots))

    def _recovery(self, read: Tuple[int, ...], wanted: Tuple[int, ...]) -> PackedMatrix:
        """The packed ``M[wanted] @ inv(M[read])`` of one erasure pattern."""
        key = (read, wanted)
        packed = self._recovery_cache.get(key)
        if packed is None:
            inverse = gf_matrix_inverse(self._matrix[list(read)])
            packed = gf_pack_matrix(gf_matmul(self._matrix[list(wanted)], inverse))
            with self._recovery_lock:
                if len(self._recovery_cache) >= RECOVERY_CACHE_PATTERNS:
                    del self._recovery_cache[next(iter(self._recovery_cache))]
                self._recovery_cache[key] = packed
        return packed
