"""Systematic Reed-Solomon codes over GF(2^8).

RS(k, m) is the de-facto industry baseline the paper compares against
(RS(6,3) at Google, RS(10,4) in Facebook's f4, k + m <= 20 at Azure).  The
code is *maximum distance separable*: any ``k`` of the ``n = k + m`` blocks
reconstruct the stripe, and exactly ``k`` blocks must be read to repair a
single failure -- the repair cost the paper contrasts with the constant
2-block repair of entanglement codes.

The implementation uses the classic systematic construction: an ``n x k``
encoding matrix ``M`` whose top ``k`` rows are the identity, obtained from a
Vandermonde matrix by Gauss-Jordan column reduction.  Every operation is a
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
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.codes.base import StripeCode
from repro.codes.gf256 import (
    GROUP_ORDER,
    PackedMatrix,
    gf_matmul,
    gf_matmul_bytes,
    gf_matrix_inverse,
    gf_pack_matrix,
    vandermonde_matrix,
)
from repro.core.xor import Payload, as_payload
from repro.exceptions import DecodingError, InvalidParametersError


def systematic_encoding_matrix(k: int, m: int) -> np.ndarray:
    """Build the ``(k + m) x k`` systematic encoding matrix.

    The first ``k`` rows form the identity (data blocks are stored verbatim);
    the remaining ``m`` rows produce the parities.  Construction: start from a
    Vandermonde matrix and multiply by the inverse of its top square so the
    top becomes the identity; the invertibility of every ``k x k`` submatrix
    is preserved by the column operations.
    """
    if k + m > GROUP_ORDER:
        raise InvalidParametersError(
            f"RS over GF(2^8) supports at most {GROUP_ORDER} blocks per stripe"
        )
    vandermonde = vandermonde_matrix(k + m, k)
    top_inverse = gf_matrix_inverse(vandermonde[:k, :])
    return gf_matmul(vandermonde, top_inverse)


#: Erasure patterns whose recovery matrix one code instance keeps (a pattern
#: of RS(10,4) is 5-20 KiB of tables; a site disaster produces a handful).
RECOVERY_CACHE_PATTERNS = 128


class ReedSolomonCode(StripeCode):
    """Systematic RS(k, m) encoder/decoder."""

    def __init__(self, k: int, m: int) -> None:
        if k < 1 or m < 1:
            raise InvalidParametersError(f"RS requires k >= 1 and m >= 1, got ({k},{m})")
        super().__init__(k, m)
        self._matrix = systematic_encoding_matrix(k, m)
        self._parity_rows = gf_pack_matrix(self._matrix[k:])
        # (positions read, positions wanted) -> packed recovery matrix,
        # oldest pattern dropped first once the bound is reached.
        self._recovery_cache: Dict[
            Tuple[Tuple[int, ...], Tuple[int, ...]], PackedMatrix
        ] = {}
        self._recovery_lock = threading.Lock()

    @property
    def name(self) -> str:
        return f"RS({self.k},{self.m})"

    @property
    def encoding_matrix(self) -> np.ndarray:
        """The full ``n x k`` encoding matrix (read-only copy)."""
        return self._matrix.copy()

    # ------------------------------------------------------------------
    # Coding
    # ------------------------------------------------------------------
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
        # wrapping ``decode`` on the class.
        if any(position not in available for position in positions):
            available = {**available, **dict(enumerate(self.decode(available)))}
        return self._recover(positions, available)

    def _recover(
        self, positions: Sequence[int], available: Dict[int, Payload]
    ) -> List[Payload]:
        """The blocks at ``positions`` from the first ``k`` available ones.

        A position the caller supplied comes back as supplied; the others
        are one product of the recovery matrix with the blocks read.
        """
        strangers = [
            position
            for position in (*available, *positions)
            if not 0 <= position < self.n
        ]
        if strangers:
            raise DecodingError(
                f"{self.name} has positions 0..{self.n - 1}, got {sorted(strangers)}"
            )
        wanted = tuple(pos for pos in positions if pos not in available)
        computed: Dict[int, Payload] = {}
        if wanted:
            if len(available) < self.k:
                raise DecodingError(
                    f"{self.name} needs {self.k} blocks to decode, only "
                    f"{len(available)} available"
                )
            read = tuple(sorted(available)[: self.k])
            # The kernel refuses blocks that do not share the first one's size.
            payloads = [np.asarray(available[pos], dtype=np.uint8) for pos in read]
            rows = gf_matmul_bytes(self._recovery(read, wanted), payloads, payloads[0].size)
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

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------
    def repair_bandwidth(self, block_size: int) -> int:
        """Bytes read to repair a single failure: ``k * block_size``."""
        return self.k * block_size

    def tolerated_failures(self) -> int:
        """Arbitrary failures tolerated per stripe: ``m``."""
        return self.m


#: The RS settings evaluated by the paper (Table IV).
PAPER_RS_SETTINGS = ((10, 4), (8, 2), (5, 5), (4, 12))


def paper_rs_codes() -> List[ReedSolomonCode]:
    """Instantiate the four RS settings used in the paper's evaluation."""
    return [ReedSolomonCode(k, m) for k, m in PAPER_RS_SETTINGS]
