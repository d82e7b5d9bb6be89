"""Arithmetic over the Galois field GF(2^8).

Reed-Solomon codes operate over a finite field; storage systems almost always
use GF(2^8) because a field element fits in one byte.  This module implements
the field with the common primitive polynomial ``x^8 + x^4 + x^3 + x^2 + 1``
(0x11d) in two layers:

* scalars (:func:`gf_mul`, :func:`gf_div`, :func:`gf_pow`,
  :func:`gf_inverse`) go through exp/log tables -- the reference the tests
  compare everything else against;
* bulk work goes through :data:`MUL_TABLE`, the 256 x 256 product table built
  from them at import (64 KiB), so ``scalar * row`` is one ``take``.  The one
  byte kernel is :func:`gf_matmul_bytes`: a coefficient matrix times a stack
  of equally sized byte rows, with the products of up to eight matrix rows
  packed side by side in one table entry so that an input row is looked up
  once per eight output rows.  :func:`gf_dot_bytes` is its one-row case, and
  the small dense algebra of the generator-matrix codes and their decoder
  (:func:`gf_matmul`, :func:`gf_matrix_inverse`, :func:`gf_pivot_rows`,
  :func:`vandermonde_matrix`) is whole-row ``MUL_TABLE`` lookups as well.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import DecodingError

#: Primitive polynomial used to generate the field.
PRIMITIVE_POLYNOMIAL = 0x11D
#: Number of field elements.
FIELD_SIZE = 256
#: Order of the multiplicative group.
GROUP_ORDER = FIELD_SIZE - 1


def _build_tables() -> tuple:
    exp = np.zeros(2 * GROUP_ORDER, dtype=np.uint8)
    log = np.zeros(FIELD_SIZE, dtype=np.int32)
    value = 1
    for power in range(GROUP_ORDER):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLYNOMIAL
    # Duplicate the exp table so that exp[a + b] never needs a modulo.
    exp[GROUP_ORDER : 2 * GROUP_ORDER] = exp[:GROUP_ORDER]
    return exp, log


EXP_TABLE, LOG_TABLE = _build_tables()


def _build_mul_table() -> np.ndarray:
    logs = LOG_TABLE[1:]
    table = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.uint8)
    table[1:, 1:] = EXP_TABLE[logs[:, None] + logs[None, :]]
    table.setflags(write=False)
    return table


#: ``MUL_TABLE[a, b] = a * b``; row ``a`` is the lookup table of "times a".
MUL_TABLE = _build_mul_table()


def gf_add(a: int, b: int) -> int:
    """Addition in GF(2^8) is XOR."""
    return (a ^ b) & 0xFF


def gf_sub(a: int, b: int) -> int:
    """Subtraction equals addition in a field of characteristic 2."""
    return (a ^ b) & 0xFF


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(EXP_TABLE[int(LOG_TABLE[a]) + int(LOG_TABLE[b])])


def gf_div(a: int, b: int) -> int:
    """Divide ``a`` by ``b``; division by zero is an error."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^8)")
    if a == 0:
        return 0
    return int(EXP_TABLE[int(LOG_TABLE[a]) - int(LOG_TABLE[b]) + GROUP_ORDER])


def gf_pow(a: int, exponent: int) -> int:
    """Raise ``a`` to an integer power."""
    if exponent == 0:
        return 1
    if a == 0:
        return 0
    power = (int(LOG_TABLE[a]) * exponent) % GROUP_ORDER
    return int(EXP_TABLE[power])


def gf_inverse(a: int) -> int:
    """Multiplicative inverse of ``a``."""
    if a == 0:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    return int(EXP_TABLE[GROUP_ORDER - int(LOG_TABLE[a])])


def gf_mul_bytes(scalar: int, data: np.ndarray) -> np.ndarray:
    """Multiply every byte of ``data`` by ``scalar``; always a fresh array."""
    return MUL_TABLE[scalar].take(np.asarray(data, dtype=np.uint8))


class PackedMatrix(NamedTuple):
    """A coefficient matrix laid out for :func:`gf_matmul_bytes`.

    The rows are cut into groups of up to eight.  A group keeps one
    256-entry table per column: entry ``x`` of the table of column ``c``
    holds ``matrix[row, c] * x`` for every row of the group, side by side in
    one little-endian word, byte ``i`` belonging to the group's ``i``-th row.
    The word is as narrow as the row count allows (1, 2, 4 or 8 bytes).
    """

    rows: int
    cols: int
    #: ``(tables, row count)`` per group; ``tables[c]`` serves input row ``c``.
    groups: Tuple[Tuple[np.ndarray, int], ...]


#: Output rows that share one table lookup.
_PACK_ROWS = 8


def gf_pack_matrix(matrix: np.ndarray) -> PackedMatrix:
    """Build the lookup tables of ``matrix`` once, for repeated products."""
    matrix = np.asarray(matrix, dtype=np.uint8)
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise DecodingError(
            f"expected a coefficient matrix with at least one column, got shape {matrix.shape}"
        )
    rows, cols = matrix.shape
    groups = []
    for first in range(0, rows, _PACK_ROWS):
        block = matrix[first : first + _PACK_ROWS]
        count = block.shape[0]
        width = 1 if count == 1 else 2 if count == 2 else 4 if count <= 4 else 8
        entries = np.zeros((cols, FIELD_SIZE, width), dtype=np.uint8)
        entries[:, :, :count] = MUL_TABLE[block].transpose(1, 2, 0)
        groups.append((entries.view(f"<u{width}").reshape(cols, FIELD_SIZE), count))
    return PackedMatrix(rows, cols, tuple(groups))


def _byte_row(payload: object, size: int) -> np.ndarray:
    row = (
        np.frombuffer(payload, dtype=np.uint8)
        if isinstance(payload, (bytes, bytearray, memoryview))
        else np.asarray(payload, dtype=np.uint8)
    ).reshape(-1)
    if row.size != size:
        raise DecodingError(f"payload of {row.size} bytes in a product over {size}-byte rows")
    return row


def gf_matmul_bytes(
    matrix: Union[np.ndarray, PackedMatrix], payloads: Sequence[np.ndarray], size: int
) -> np.ndarray:
    """``matrix @ payloads`` over GF(2^8): a fresh ``rows x size`` byte matrix.

    ``payloads`` holds one ``size``-byte row per matrix column (arrays --
    read-only and strided ones included -- or byte strings).  Per group of
    up to eight output rows each input row is looked up once in its packed
    table, the lookups are XOR-accumulated in the wide dtype and the bytes
    are split back into rows at the end.  Pass a :class:`PackedMatrix` to
    reuse the tables of a matrix applied many times.
    """
    packed = matrix if isinstance(matrix, PackedMatrix) else gf_pack_matrix(matrix)
    if len(payloads) != packed.cols:
        raise DecodingError(
            f"a matrix of {packed.cols} columns cannot multiply {len(payloads)} payloads"
        )
    inputs = [_byte_row(payload, size) for payload in payloads]
    result = np.empty((packed.rows, size), dtype=np.uint8)
    first = 0
    for tables, count in packed.groups:
        # mode="clip" only skips the bounds check: a byte cannot exceed 255.
        total = tables[0].take(inputs[0], mode="clip")
        for table, row in zip(tables[1:], inputs[1:]):
            total ^= table.take(row, mode="clip")
        result[first : first + count] = total.view(np.uint8).reshape(size, total.itemsize).T[:count]
        first += count
    return result


def gf_dot_bytes(
    coefficients: Sequence[int], payloads: Sequence[np.ndarray], size: int
) -> np.ndarray:
    """Linear combination ``sum_i coefficients[i] * payloads[i]`` over GF(2^8)."""
    row = np.asarray(coefficients, dtype=np.uint8).reshape(1, -1)
    return gf_matmul_bytes(row, payloads, size)[0]


def gf_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Matrix multiplication over GF(2^8) (dense, small matrices)."""
    left = np.asarray(left, dtype=np.uint8)
    right = np.asarray(right, dtype=np.uint8)
    if left.ndim != 2 or right.ndim != 2 or left.shape[1] != right.shape[0]:
        raise DecodingError(
            f"incompatible matrix shapes {left.shape} x {right.shape}"
        )
    products = MUL_TABLE[left[:, :, None], right[None, :, :]]
    return np.bitwise_xor.reduce(products, axis=1)


def _gauss_jordan(work: np.ndarray, columns: int) -> List[int]:
    """Reduce the first ``columns`` columns of ``work`` in place, top row
    first; returns the columns that held a pivot."""
    pivots: List[int] = []
    for column in range(columns):
        rank = len(pivots)
        if rank == work.shape[0]:
            break
        candidates = np.flatnonzero(work[rank:, column])
        if candidates.size == 0:
            continue
        pivot_row = rank + int(candidates[0])
        if pivot_row != rank:
            work[[rank, pivot_row]] = work[[pivot_row, rank]]
        pivot = gf_mul_bytes(gf_inverse(int(work[rank, column])), work[rank])
        work[rank] = pivot
        factors = work[:, column].copy()
        factors[rank] = 0
        work ^= MUL_TABLE[factors[:, None], pivot[None, :]]
        pivots.append(column)
    return pivots


def gf_matrix_inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(2^8) by Gauss-Jordan elimination."""
    matrix = np.asarray(matrix, dtype=np.uint8)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DecodingError(f"matrix of shape {matrix.shape} is not square")
    size = matrix.shape[0]
    work = np.concatenate([matrix, np.eye(size, dtype=np.uint8)], axis=1)
    if len(_gauss_jordan(work, size)) < size:
        raise DecodingError("matrix is singular over GF(2^8)")
    return np.ascontiguousarray(work[:, size:])


def gf_pivot_rows(matrix: np.ndarray) -> Tuple[int, ...]:
    """Indexes of the rows of ``matrix`` not spanned by the rows before them:
    the first independent rows, as many as the matrix's rank over GF(2^8)."""
    work = np.array(matrix, dtype=np.uint8).T
    return tuple(_gauss_jordan(work, work.shape[1]))


def vandermonde_matrix(rows: int, cols: int) -> np.ndarray:
    """Vandermonde matrix ``V[r, c] = (r + 1)^c`` over GF(2^8).

    Any ``cols`` rows of this matrix are linearly independent as long as
    ``rows <= 255``, which is the property Reed-Solomon relies on.
    """
    if rows > GROUP_ORDER:
        raise DecodingError(
            f"a GF(2^8) Vandermonde matrix supports at most {GROUP_ORDER} rows"
        )
    matrix = np.ones((rows, cols), dtype=np.uint8)
    bases = np.arange(1, rows + 1, dtype=np.uint8)
    for column in range(1, cols):
        matrix[:, column] = MUL_TABLE[bases, matrix[:, column - 1]]
    return matrix
