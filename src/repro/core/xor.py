"""XOR kernels used by the entanglement encoder and decoder.

Payloads are held as one-dimensional ``numpy.uint8`` arrays so that XOR of
large blocks runs at memory bandwidth.  Helper functions convert transparently
from :class:`bytes`/:class:`bytearray` and enforce equal block sizes, because
the entanglement function is only defined for blocks of identical size
(paper, Section III-B: "data and parity blocks with identical size").
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import BlockSizeMismatchError

Payload = np.ndarray
PayloadLike = Union[bytes, bytearray, memoryview, np.ndarray]

#: A stack of equally sized payloads: a C-contiguous 2-D ``uint8`` array with
#: one block per row.  This is the unit of work of the batched ingest pipeline.
PayloadMatrix = np.ndarray

#: Anything :func:`as_payload_matrix` accepts as a batch of blocks: a byte
#: buffer (split into rows), a 2-D uint8 matrix, or a sequence of payloads.
PayloadBatch = Union[bytes, bytearray, memoryview, np.ndarray, Sequence[PayloadLike]]


def as_payload(data: PayloadLike, block_size: int = 0) -> Payload:
    """Convert ``data`` to a uint8 payload, optionally padding to ``block_size``.

    Padding uses zero bytes, which is safe for XOR-based codes: the pad is
    reproduced exactly on decode and can be stripped with the original length.
    """
    if isinstance(data, np.ndarray):
        payload = np.ascontiguousarray(data, dtype=np.uint8).ravel()
    else:
        payload = np.frombuffer(bytes(data), dtype=np.uint8).copy()
    if block_size:
        if payload.size > block_size:
            raise BlockSizeMismatchError(
                f"payload of {payload.size} bytes exceeds block size {block_size}"
            )
        if payload.size < block_size:
            padded = np.zeros(block_size, dtype=np.uint8)
            padded[: payload.size] = payload
            payload = padded
    return payload


def zero_payload(block_size: int) -> Payload:
    """The all-zero payload used as the virtual input at strand extremities."""
    return np.zeros(block_size, dtype=np.uint8)


def xor_payloads(left: PayloadLike, right: PayloadLike) -> Payload:
    """XOR two equally sized payloads."""
    a = as_payload(left)
    b = as_payload(right)
    if a.size != b.size:
        raise BlockSizeMismatchError(
            f"cannot XOR payloads of different sizes ({a.size} vs {b.size})"
        )
    return np.bitwise_xor(a, b)


def xor_many(payloads: Iterable[PayloadLike]) -> Payload:
    """XOR an arbitrary number of equally sized payloads (at least one)."""
    iterator = iter(payloads)
    try:
        result = as_payload(next(iterator)).copy()
    except StopIteration:
        raise BlockSizeMismatchError("xor_many requires at least one payload") from None
    for item in iterator:
        other = as_payload(item)
        if other.size != result.size:
            raise BlockSizeMismatchError(
                f"cannot XOR payloads of different sizes ({result.size} vs {other.size})"
            )
        np.bitwise_xor(result, other, out=result)
    return result


def as_payload_matrix(data: PayloadBatch, block_size: int) -> PayloadMatrix:
    """Convert ``data`` to a ``(n, block_size)`` C-contiguous uint8 matrix.

    Accepted inputs:

    * a byte string / buffer -- split into rows of ``block_size`` bytes, the
      last row zero-padded.  When the length is an exact multiple of
      ``block_size`` the conversion is zero-copy (a reshaped view over the
      buffer);
    * a 2-D ``uint8`` array -- validated (row width must equal ``block_size``)
      and made contiguous, zero-copy when it already is;
    * a sequence of payloads -- each converted with :func:`as_payload` and
      stacked.

    An empty input yields a ``(0, block_size)`` matrix.
    """
    if block_size <= 0:
        raise BlockSizeMismatchError("block_size must be positive")
    if isinstance(data, np.ndarray) and data.ndim == 2:
        if data.shape[1] != block_size and data.size:
            raise BlockSizeMismatchError(
                f"matrix rows of {data.shape[1]} bytes do not fit block size {block_size}"
            )
        matrix = np.ascontiguousarray(data, dtype=np.uint8)
        return matrix.reshape(matrix.shape[0], block_size)
    if isinstance(data, (bytes, bytearray, memoryview)) or (
        isinstance(data, np.ndarray) and data.ndim <= 1
    ):
        flat = (
            np.ascontiguousarray(data, dtype=np.uint8).ravel()
            if isinstance(data, np.ndarray)
            else np.frombuffer(data, dtype=np.uint8)
        )
        if flat.size == 0:
            return np.zeros((0, block_size), dtype=np.uint8)
        rows = -(-flat.size // block_size)
        if flat.size == rows * block_size:
            return flat.reshape(rows, block_size)
        matrix = np.zeros((rows, block_size), dtype=np.uint8)
        matrix.reshape(-1)[: flat.size] = flat
        return matrix
    payloads = [as_payload(item, block_size) for item in data]
    if not payloads:
        return np.zeros((0, block_size), dtype=np.uint8)
    return np.stack(payloads)


#: The payload dtype as an *instance*: comparing ``array.dtype`` against the
#: ``np.uint8`` type converts it on every call, and the per-block payload
#: checks (here and in :mod:`repro.storage`) run once or twice per block.
UINT8 = np.dtype(np.uint8)


def _block_row(item: PayloadLike, block_size: int) -> Payload:
    """``item`` as a 1-D uint8 payload of exactly ``block_size`` bytes."""
    payload = (
        item
        if isinstance(item, np.ndarray) and item.dtype == UINT8 and item.ndim == 1
        else as_payload(item)
    )
    if payload.size != block_size:
        raise BlockSizeMismatchError(
            f"payload of {payload.size} bytes does not fit block size {block_size}"
        )
    return payload


def gather_payload_matrix(
    payloads: Sequence[Optional[PayloadLike]], block_size: int
) -> PayloadMatrix:
    """Stack payloads into a fresh writable ``(n, block_size)`` matrix.

    ``None`` entries become zero rows (the virtual zero parity at strand
    extremities).  Unlike :func:`as_payload_matrix` the result is always a
    new allocation: the rows are safe XOR destinations even when the sources
    are read-only zero-copy views handed out by an mmap-backed storage
    backend.  Repair no longer gathers its inputs (see :func:`xor_pairs`).
    """
    if block_size <= 0:
        raise BlockSizeMismatchError("block_size must be positive")
    rows: List[Payload] = []
    zero_row: Optional[Payload] = None
    for item in payloads:
        if item is None:
            if zero_row is None:
                zero_row = np.zeros(block_size, dtype=np.uint8)
            rows.append(zero_row)
        else:
            rows.append(_block_row(item, block_size))
    if not rows:
        return np.zeros((0, block_size), dtype=np.uint8)
    # One C-level stack instead of a Python row-assignment loop.
    return np.stack(rows)


def xor_pairs(
    firsts: Sequence[Optional[PayloadLike]],
    seconds: Sequence[Optional[PayloadLike]],
    block_size: int,
) -> PayloadMatrix:
    """Row ``k`` of the fresh ``(n, block_size)`` result is ``firsts[k] XOR
    seconds[k]`` -- a whole repair round in one pass over its inputs.

    ``None`` on a side stands for the virtual zero parity at a strand start:
    the row is a copy of the other side, a zero row when both are ``None``.
    Each XOR writes straight into its row of the one result allocation, so
    nothing is gathered first and the inputs are only ever read -- they may
    be read-only zero-copy views from an mmap-backed storage backend.
    """
    if block_size <= 0:
        raise BlockSizeMismatchError("block_size must be positive")
    if len(firsts) != len(seconds):
        raise BlockSizeMismatchError(
            f"cannot pair {len(firsts)} payloads with {len(seconds)}"
        )
    result = np.empty((len(firsts), block_size), dtype=np.uint8)
    bitwise_xor = np.bitwise_xor
    for row, first, second in zip(result, firsts, seconds):
        if first is None or second is None:
            present = second if first is None else first
            row[:] = 0 if present is None else _block_row(present, block_size)
        else:
            bitwise_xor(
                _block_row(first, block_size), _block_row(second, block_size), out=row
            )
    return result


def xor_chain(
    sources: Sequence[Payload],
    outputs: Sequence[Payload],
    rows: Sequence[int],
    initial: Optional[Payload] = None,
) -> Payload:
    """Running XOR along ``rows``, written beside its inputs: ``outputs[rows[k]]``
    becomes ``initial ^ sources[rows[0]] ^ ... ^ sources[rows[k]]``.

    This is the parity chain of one strand across a batch: ``sources`` and
    ``outputs`` are the row views of the data matrix and of one strand
    class's parity matrix (equally wide), ``rows`` the batch rows lying on
    the strand in lattice order (at least one) and ``initial`` the strand
    head.  Each parity is one XOR of a data row with the previous parity,
    written straight into its output row -- no copy first, nothing XORed in
    place, so ``sources`` and ``initial`` may be read-only.  ``None`` stands
    for the virtual zero parity at a strand start: the first output is a copy
    of its source.  Returns the last output row, the strand's new head.
    """
    chain = iter(rows)
    row = next(chain)
    previous = outputs[row]
    if initial is None:
        previous[:] = sources[row]
    elif initial.shape != previous.shape:
        # Checked, not left to numpy: a 1-byte head would broadcast.
        raise BlockSizeMismatchError(
            f"strand head of {initial.size} bytes does not fit block size {previous.size}"
        )
    else:
        np.bitwise_xor(sources[row], initial, out=previous)
    bitwise_xor = np.bitwise_xor
    for row in chain:
        current = outputs[row]
        bitwise_xor(sources[row], previous, out=current)
        previous = current
    return previous


def xor_into(dst: Payload, src: PayloadLike) -> Payload:
    """XOR ``src`` into ``dst`` in place (no allocation) and return ``dst``.

    ``dst`` may be 1-D or 2-D; ``src`` must match its trailing dimension so it
    broadcasts row-wise (XORing one payload into every row of a matrix).
    """
    other = src if isinstance(src, np.ndarray) else as_payload(src)
    if dst.shape[-1] != other.shape[-1]:
        raise BlockSizeMismatchError(
            f"cannot XOR payloads of different sizes ({dst.shape[-1]} vs {other.shape[-1]})"
        )
    np.bitwise_xor(dst, other, out=dst)
    return dst


def xor_accumulate(matrix: PayloadMatrix, initial: Optional[PayloadLike] = None) -> PayloadMatrix:
    """Running XOR down the rows of ``matrix``, in place.

    Row ``k`` of the result is ``initial ^ row_0 ^ ... ^ row_k`` -- exactly the
    parity chain of one strand: seeding ``initial`` with the current strand
    head turns a stack of data blocks into the stack of successive strand
    parities.

    The scan is a row-by-row loop of whole-block XORs rather than
    ``np.bitwise_xor.accumulate``: the ufunc accumulate walks axis 0 with a
    4096-byte stride between elements, which is an order of magnitude slower
    than one contiguous SIMD XOR per row at realistic block sizes.
    """
    if matrix.ndim != 2:
        raise BlockSizeMismatchError("xor_accumulate expects a 2-D payload matrix")
    if matrix.shape[0] == 0:
        return matrix
    if initial is not None:
        xor_into(matrix[0], initial)
    bitwise_xor = np.bitwise_xor
    for row in range(1, matrix.shape[0]):
        bitwise_xor(matrix[row], matrix[row - 1], out=matrix[row])
    return matrix


def payload_to_bytes(payload: PayloadLike, length: int | None = None) -> bytes:
    """Convert a payload back to :class:`bytes`, optionally trimming padding."""
    raw = as_payload(payload).tobytes()
    if length is not None:
        return raw[:length]
    return raw


def payloads_equal(left: PayloadLike, right: PayloadLike) -> bool:
    """True when two payloads hold identical bytes."""
    a = as_payload(left)
    b = as_payload(right)
    return a.size == b.size and bool(np.array_equal(a, b))
