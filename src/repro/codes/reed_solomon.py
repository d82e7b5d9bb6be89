"""Systematic Reed-Solomon codes over GF(2^8).

RS(k, m) is the de-facto industry baseline the paper compares against
(RS(6,3) at Google, RS(10,4) in Facebook's f4, k + m <= 20 at Azure).  The
code is *maximum distance separable*: any ``k`` of the ``n = k + m`` blocks
reconstruct the stripe, and exactly ``k`` blocks must be read to repair a
single failure -- the repair cost the paper contrasts with the constant
2-block repair of entanglement codes.

The implementation uses the classic systematic construction: an ``n x k``
encoding matrix whose top ``k`` rows are the identity, obtained from a
Vandermonde matrix by Gauss-Jordan column reduction.  Coding is that of
:class:`~repro.codes.base.LinearCode`: any ``k`` rows of the matrix are
independent, so a decode reads the first ``k`` blocks available.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.codes.base import LinearCode
from repro.codes.gf256 import GROUP_ORDER, gf_matmul, gf_matrix_inverse, vandermonde_matrix
from repro.exceptions import InvalidParametersError


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


class ReedSolomonCode(LinearCode):
    """Systematic RS(k, m) encoder/decoder."""

    def __init__(self, k: int, m: int) -> None:
        if k < 1 or m < 1:
            raise InvalidParametersError(f"RS requires k >= 1 and m >= 1, got ({k},{m})")
        super().__init__(k, m, systematic_encoding_matrix(k, m))

    @property
    def name(self) -> str:
        return f"RS({self.k},{self.m})"

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
