"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration problems from runtime repair
failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class InvalidParametersError(ReproError, ValueError):
    """Raised when an AE(alpha, s, p) or baseline code setting is invalid.

    Examples: ``p < s`` for a double/triple entanglement, a non-positive
    ``alpha``, or a Reed-Solomon configuration with ``k <= 0``.
    """


class BlockSizeMismatchError(ReproError, ValueError):
    """Raised when blocks of different sizes are combined in an XOR or stripe."""


class UnknownBlockError(ReproError, KeyError):
    """Raised when a block identifier does not exist in a store or lattice."""


class BlockUnavailableError(ReproError):
    """Raised when a block exists but its storage location is unavailable."""


class RepairFailedError(ReproError):
    """Raised when the decoder cannot reconstruct a requested block."""

    def __init__(self, block_id: object, reason: str = "") -> None:
        self.block_id = block_id
        self.reason = reason
        message = f"cannot repair block {block_id!r}"
        if reason:
            message = f"{message}: {reason}"
        super().__init__(message)


class DecodingError(ReproError):
    """Raised when a baseline erasure code cannot decode a damaged stripe."""


class PlacementError(ReproError):
    """Raised when a placement policy cannot satisfy its constraints."""


class StorageFullError(ReproError):
    """Raised when a storage location exceeds its configured capacity."""


class LatticeBoundsError(ReproError, IndexError):
    """Raised when a lattice position lies outside the encoded region."""


class IntegrityError(ReproError):
    """Raised when a block payload fails an integrity (checksum) verification."""


class ServiceOverloadedError(ReproError):
    """Raised when the concurrent front-end already admits ``queue_depth`` requests.

    Backpressure, not failure: the request was never started, so the caller
    may retry once in-flight requests drain (see
    :class:`~repro.system.frontend.ConcurrentStorageService`).
    """
