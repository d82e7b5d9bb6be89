"""Common interface for stripe-based erasure codes (the paper's baselines).

Alpha entanglement codes do not use stripes, but the codes they are compared
against do: an ``(k, m)`` code splits a source into ``k`` data blocks and adds
``m`` redundant blocks; any ``k`` of the ``n = k + m`` blocks suffice to read
the data (Reed-Solomon) or a weaker combinatorial condition holds (flat XOR
codes, replication).  This module defines the abstract interface shared by the
baseline implementations, the analytic cost model used by Table IV and
:class:`LinearCode`, the one GF(2^8) codec of Reed-Solomon and LRC.

:class:`LinearCode` is a code given by an ``n x k`` generator matrix ``M``
whose top ``k`` rows are the identity.  Every operation is a
:func:`~repro.codes.gf256.gf_matmul_bytes` product with a *recovery matrix*
``M[wanted] @ inv(M[read])`` -- "wanted rows x read rows" -- applied to the
``k`` blocks read.  Encoding is the case "parity rows x data rows".
Decoding passes the data blocks it was handed through and computes only the
lost ones; rebuilding decodes and then applies the encoding row of each lost
parity to the data.  A repair therefore computes the missing rows and nothing
else (no decode of the whole stripe, no re-encode of every parity).  The
recovery matrices, packed for the kernel, are memoised per erasure pattern.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codes.gf256 import (
    PackedMatrix,
    gf_matmul,
    gf_matmul_bytes,
    gf_matrix_inverse,
    gf_pack_matrix,
)
from repro.core.xor import Payload, as_payload
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


class StripeCode(ABC):
    """A systematic ``(k, m)`` stripe code.

    Block positions ``0 .. k-1`` hold data, positions ``k .. n-1`` hold
    redundancy.  Implementations must be deterministic so that encoders and
    decoders agree without shared state.
    """

    def __init__(self, k: int, m: int) -> None:
        if k < 1 or m < 0:
            raise DecodingError(f"invalid stripe configuration k={k}, m={m}")
        self._k = k
        self._m = m

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
    def storage_overhead(self) -> float:
        """Additional storage as a fraction of the original data, ``m / k``."""
        return self._m / self._k

    @property
    def single_failure_cost(self) -> int:
        """Blocks read to repair one missing block; ``k`` for MDS codes."""
        return self._k

    def costs(self) -> CodeCosts:
        return CodeCosts(
            name=self.name,
            additional_storage_percent=self.storage_overhead * 100.0,
            single_failure_cost=self.single_failure_cost,
        )

    # ------------------------------------------------------------------
    # Coding
    # ------------------------------------------------------------------
    @abstractmethod
    def encode(self, data_blocks: Sequence[Payload]) -> List[Payload]:
        """Compute the ``m`` redundant blocks for ``k`` data blocks."""

    @abstractmethod
    def decode(self, available: Dict[int, Payload]) -> List[Payload]:
        """Recover the ``k`` data blocks from any sufficient subset.

        ``available`` maps stripe positions (0-based, data first) to payloads.
        Raises :class:`DecodingError` when the available set is insufficient.
        """

    def rebuild(
        self, positions: Sequence[int], available: Dict[int, Payload]
    ) -> List[Payload]:
        """Rebuild the blocks at ``positions`` from the available blocks.

        The default decodes the stripe and, when a redundant block is wanted,
        encodes it again; a code that can compute single rows overrides it.
        Raises :class:`DecodingError` when the available set is insufficient.
        """
        data: Optional[List[Payload]] = None
        parities: Optional[List[Payload]] = None
        rebuilt: List[Payload] = []
        for position in positions:
            if position in available:
                rebuilt.append(as_payload(available[position]))
                continue
            if data is None:
                data = self.decode(available)
            if position < self._k:
                rebuilt.append(data[position])
            else:
                if parities is None:
                    parities = self.encode(data)
                rebuilt.append(parities[position - self._k])
        return rebuilt

    def repair(self, position: int, available: Dict[int, Payload]) -> Payload:
        """Rebuild the block at ``position``: the one-element :meth:`rebuild`."""
        return self.rebuild([position], available)[0]

    def can_decode(self, available_positions: Sequence[int]) -> bool:
        """True when the set of available positions is sufficient to decode.

        The default implementation applies the MDS criterion (any ``k``
        blocks); non-MDS codes override it.
        """
        return len(set(available_positions)) >= self._k

    def repair_read_positions(
        self, position: int, available_positions: Sequence[int]
    ) -> Optional[List[int]]:
        """The cheapest set of positions to read to repair ``position``.

        ``available_positions`` lists the stripe positions believed readable.
        Returns ``None`` when they cannot determine the block.  The default
        implements the MDS plan -- any ``k`` surviving blocks -- which makes
        the measured read count of a single-failure repair equal the
        analytic :attr:`single_failure_cost`; locality-aware codes override
        it (LRC reads the local group, flat XOR the smallest parity
        equation, replication one surviving copy).
        """
        candidates = sorted(set(available_positions) - {position})
        if not self.can_decode(candidates):
            return None
        subset = candidates[: self._k]
        return subset if self.can_decode(subset) else candidates

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
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


#: Erasure patterns whose recovery matrix one code instance keeps (a pattern
#: of RS(10,4) is 5-20 KiB of tables; a site disaster produces a handful).
RECOVERY_CACHE_PATTERNS = 128


class LinearCode(StripeCode):
    """A systematic code over GF(2^8) given by its ``n x k`` generator matrix.

    Row ``p`` of the matrix is the combination of the data blocks stored at
    position ``p``; the top ``k`` rows are the identity.
    """

    def __init__(self, k: int, m: int, matrix: np.ndarray) -> None:
        super().__init__(k, m)
        self._matrix = matrix
        self._positions = frozenset(range(k + m))
        self._parity_rows = gf_pack_matrix(matrix[k:])
        # (positions read, positions wanted) -> packed recovery matrix,
        # oldest pattern dropped first once the bound is reached.
        self._recovery_cache: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], PackedMatrix] = {}
        self._recovery_lock = threading.Lock()

    @property
    def encoding_matrix(self) -> np.ndarray:
        """The full ``n x k`` generator matrix (read-only copy)."""
        return self._matrix.copy()

    def encode(self, data_blocks: Sequence[Payload]) -> List[Payload]:
        payloads = self._normalise_stripe(data_blocks)
        return list(gf_matmul_bytes(self._parity_rows, payloads, payloads[0].size))

    def decode(self, available: Dict[int, Payload]) -> List[Payload]:
        return self._recover(range(self.k), available)

    def rebuild(
        self, positions: Sequence[int], available: Dict[int, Payload]
    ) -> List[Payload]:
        """Rebuild ``positions``: lost data rows through :meth:`decode`, a
        lost parity as its own encoding row applied to the data."""
        # ``self.decode``, not ``_recover`` over both kinds of row at once:
        # the end-to-end benchmark times the codec's share of a repair by
        # wrapping ``ReedSolomonCode.decode`` on the class.
        if any(position not in available for position in positions):
            available = {**available, **dict(enumerate(self.decode(available)))}
        return self._recover(positions, available)

    def _read_rows(self, positions: List[int]) -> Tuple[int, ...]:
        """The ``k`` of the sorted available ``positions`` a decode reads
        (fewer if it cannot): the first ``k``, which an MDS code allows."""
        return tuple(positions[: self.k])

    def _recover(
        self, positions: Sequence[int], available: Dict[int, Payload]
    ) -> List[Payload]:
        """The blocks at ``positions`` from ``k`` available ones.

        A position the caller supplied comes back as supplied; the others
        are one product of the recovery matrix with the blocks read.
        """
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
