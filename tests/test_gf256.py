"""Property-based tests for GF(2^8) arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes.gf256 import (
    EXP_TABLE,
    LOG_TABLE,
    MUL_TABLE,
    gf_add,
    gf_div,
    gf_dot_bytes,
    gf_inverse,
    gf_matmul,
    gf_matmul_bytes,
    gf_matrix_inverse,
    gf_mul,
    gf_mul_bytes,
    gf_pack_matrix,
    gf_pivot_rows,
    gf_pow,
    vandermonde_matrix,
)
from repro.exceptions import DecodingError

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)
seeds = st.integers(min_value=0, max_value=2**31 - 1)

#: The product table spelled out with the scalar ``gf_mul``: what every
#: table-driven kernel below is compared against.
SCALAR_PRODUCTS = np.array(
    [[gf_mul(a, b) for b in range(256)] for a in range(256)], dtype=np.uint8
)


def scalar_matmul_bytes(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix @ rows`` one scalar product at a time (no kernel involved)."""
    products = SCALAR_PRODUCTS[matrix[:, :, None], rows[None, :, :]]
    return np.bitwise_xor.reduce(products, axis=1)


def scalar_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The three-deep loop ``gf_matmul`` was before it used ``MUL_TABLE``."""
    result = np.zeros((left.shape[0], right.shape[1]), dtype=np.uint8)
    for r in range(left.shape[0]):
        for c in range(right.shape[1]):
            acc = 0
            for t in range(left.shape[1]):
                acc ^= gf_mul(int(left[r, t]), int(right[t, c]))
            result[r, c] = acc
    return result


def scalar_matrix_inverse(matrix: np.ndarray) -> np.ndarray:
    """The scalar Gauss-Jordan ``gf_matrix_inverse`` was before."""
    size = matrix.shape[0]
    augmented = np.concatenate(
        [matrix.astype(np.int32), np.eye(size, dtype=np.int32)], axis=1
    )
    for column in range(size):
        pivot_row = next(
            (row for row in range(column, size) if augmented[row, column] != 0), None
        )
        if pivot_row is None:
            raise DecodingError("matrix is singular over GF(2^8)")
        if pivot_row != column:
            augmented[[column, pivot_row]] = augmented[[pivot_row, column]]
        pivot_inv = gf_inverse(int(augmented[column, column]))
        for col in range(2 * size):
            augmented[column, col] = gf_mul(int(augmented[column, col]), pivot_inv)
        for row in range(size):
            factor = int(augmented[row, column])
            if row == column or factor == 0:
                continue
            for col in range(2 * size):
                augmented[row, col] ^= gf_mul(factor, int(augmented[column, col]))
    return augmented[:, size:].astype(np.uint8)


def scalar_pivot_rows(matrix: np.ndarray) -> tuple:
    """Each row reduced, one scalar product at a time, against the rows kept
    before it; it is kept when something is left."""
    basis = {}  # pivot column -> kept row, scaled to 1 there
    pivots = []
    for index, row in enumerate(matrix.tolist()):
        for column, kept in basis.items():
            factor = row[column]
            row = [value ^ gf_mul(factor, other) for value, other in zip(row, kept)]
        lead = next((column for column, value in enumerate(row) if value), None)
        if lead is not None:
            basis[lead] = [gf_mul(gf_inverse(row[lead]), value) for value in row]
            pivots.append(index)
    return tuple(pivots)


def as_input(row: np.ndarray, form: str) -> object:
    """``row`` in one of the shapes callers hand the kernel."""
    if form == "bytes":
        return row.tobytes()
    if form == "read-only":
        frozen = row.copy()
        frozen.setflags(write=False)
        return frozen
    if form == "strided":
        spread = np.zeros(2 * row.size, dtype=np.uint8)
        spread[::2] = row
        return spread[::2]
    return row


class TestFieldAxioms:
    @given(elements, elements)
    def test_addition_is_xor_and_commutative(self, a, b):
        assert gf_add(a, b) == (a ^ b)
        assert gf_add(a, b) == gf_add(b, a)

    @given(elements, elements)
    def test_multiplication_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(elements, elements, elements)
    def test_multiplication_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(elements, elements, elements)
    def test_distributivity(self, a, b, c):
        assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))

    @given(elements)
    def test_multiplicative_identity_and_zero(self, a):
        assert gf_mul(a, 1) == a
        assert gf_mul(a, 0) == 0

    @given(nonzero)
    def test_inverse(self, a):
        assert gf_mul(a, gf_inverse(a)) == 1

    @given(elements, nonzero)
    def test_division_inverts_multiplication(self, a, b):
        assert gf_mul(gf_div(a, b), b) == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gf_div(3, 0)
        with pytest.raises(ZeroDivisionError):
            gf_inverse(0)

    @given(nonzero, st.integers(min_value=0, max_value=10))
    def test_power_matches_repeated_multiplication(self, a, exponent):
        expected = 1
        for _ in range(exponent):
            expected = gf_mul(expected, a)
        assert gf_pow(a, exponent) == expected

    def test_tables_are_consistent(self):
        for value in range(1, 256):
            assert EXP_TABLE[LOG_TABLE[value]] == value


class TestVectorKernels:
    @given(elements, st.binary(min_size=1, max_size=64))
    def test_gf_mul_bytes_matches_scalar(self, scalar, data):
        payload = np.frombuffer(data, dtype=np.uint8)
        vectorised = gf_mul_bytes(scalar, payload)
        for index, byte in enumerate(payload):
            assert vectorised[index] == gf_mul(scalar, int(byte))

    def test_gf_dot_bytes(self):
        payloads = [np.array([1, 2], dtype=np.uint8), np.array([3, 4], dtype=np.uint8)]
        result = gf_dot_bytes([1, 1], payloads, 2)
        assert result.tolist() == [1 ^ 3, 2 ^ 4]

    def test_product_table_is_the_scalar_field(self):
        assert np.array_equal(MUL_TABLE, SCALAR_PRODUCTS)
        assert not MUL_TABLE.flags.writeable

    @pytest.mark.parametrize("scalar", [0, 1, 29])
    def test_gf_mul_bytes_never_aliases_its_input(self, scalar):
        data = np.arange(64, dtype=np.uint8)
        before = data.copy()
        result = gf_mul_bytes(scalar, data)
        assert not np.shares_memory(result, data)
        result ^= 0xFF  # the result is the caller's to overwrite
        assert np.array_equal(data, before)

    # Every pack width and the hand-over between row groups: 1 | 2 | 3-4 |
    # 5-8 rows in one word, 9-16 as a full word plus a second group, 17 as
    # two full words plus a single row.
    @pytest.mark.parametrize("rows", range(1, 18))
    @given(
        seed=seeds,
        cols=st.integers(min_value=1, max_value=6),
        size=st.sampled_from([0, 1, 7, 8, 9, 4096]),
        form=st.sampled_from(["array", "bytes", "read-only", "strided"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_gf_matmul_bytes_matches_scalar_reference(self, rows, seed, cols, size, form):
        rng = np.random.default_rng(seed)
        # A third of the coefficients are 0 or 1, the two degenerate tables.
        matrix = rng.choice(
            np.array([0, 1, *range(2, 256)], dtype=np.uint8),
            size=(rows, cols),
            p=[1 / 6, 1 / 6, *([2 / 3 / 254] * 254)],
        )
        stacked = rng.integers(0, 256, size=(cols, size), dtype=np.uint8)
        payloads = [as_input(row, form) for row in stacked]
        untouched = stacked.copy()
        expected = scalar_matmul_bytes(matrix, stacked)
        product = gf_matmul_bytes(matrix, payloads, size)
        assert product.dtype == np.uint8 and product.shape == (rows, size)
        assert np.array_equal(product, expected)
        assert np.array_equal(gf_matmul_bytes(gf_pack_matrix(matrix), payloads, size), expected)
        assert np.array_equal(gf_dot_bytes(matrix[0], payloads, size), expected[0])
        assert np.array_equal(stacked, untouched)

    def test_gf_matmul_bytes_of_a_zero_matrix_is_zero(self):
        product = gf_matmul_bytes(np.zeros((3, 2), dtype=np.uint8), [b"ab", b"cd"], 2)
        assert product.tolist() == [[0, 0]] * 3

    def test_gf_matmul_bytes_rejects_mismatched_input(self):
        matrix = np.ones((2, 2), dtype=np.uint8)
        with pytest.raises(DecodingError):
            gf_matmul_bytes(matrix, [b"ab"], 2)
        with pytest.raises(DecodingError):
            gf_matmul_bytes(matrix, [b"ab", b"abc"], 2)
        with pytest.raises(DecodingError):
            gf_pack_matrix(np.ones(4, dtype=np.uint8))
        with pytest.raises(DecodingError):
            gf_matmul_bytes(np.ones((2, 0), dtype=np.uint8), [], 2)


class TestMatrices:
    @given(st.integers(min_value=1, max_value=6))
    def test_matrix_inverse(self, size):
        matrix = vandermonde_matrix(size, size)
        inverse = gf_matrix_inverse(matrix)
        identity = gf_matmul(matrix, inverse)
        assert np.array_equal(identity, np.eye(size, dtype=np.uint8))

    @given(st.integers(min_value=1, max_value=7), seeds)
    @settings(max_examples=60, deadline=None)
    def test_inverse_and_product_match_the_scalar_loops(self, size, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 256, size=(size, size), dtype=np.uint8)
        if seed % 3 == 0 and size > 1:
            matrix[-1] = gf_mul_bytes(7, matrix[0])  # a dependent row: singular
        other = rng.integers(0, 256, size=(size, size + 2), dtype=np.uint8)
        assert np.array_equal(gf_matmul(matrix, other), scalar_matmul(matrix, other))
        try:
            expected = scalar_matrix_inverse(matrix)
        except DecodingError:
            with pytest.raises(DecodingError):
                gf_matrix_inverse(matrix)
        else:
            assert np.array_equal(gf_matrix_inverse(matrix), expected)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=12), seeds)
    @settings(max_examples=60, deadline=None)
    def test_pivot_rows_match_the_scalar_loop(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
        # Dependent rows: a multiple of an earlier row, a sum of two, a zero row.
        for target in rng.choice(rows, size=rows // 2, replace=False):
            first, second = rng.integers(0, rows, size=2)
            kind = rng.integers(0, 3)
            matrix[target] = (
                gf_mul_bytes(int(rng.integers(1, 256)), matrix[first]) if kind == 0
                else matrix[first] ^ matrix[second] if kind == 1
                else 0
            )
        pivots = gf_pivot_rows(matrix)
        assert pivots == scalar_pivot_rows(matrix)
        assert len(pivots) <= min(rows, cols)

    def test_vandermonde_matches_scalar_powers(self):
        matrix = vandermonde_matrix(255, 12)
        assert matrix.dtype == np.uint8
        for r in (0, 1, 2, 100, 254):
            assert matrix[r].tolist() == [gf_pow(r + 1, c) for c in range(12)]

    def test_mis_shaped_matrices_are_rejected(self):
        with pytest.raises(DecodingError):
            gf_matrix_inverse(np.ones((2, 3), dtype=np.uint8))
        with pytest.raises(DecodingError):
            gf_matrix_inverse(np.ones(4, dtype=np.uint8))
        with pytest.raises(DecodingError):
            gf_matmul(np.ones(3, dtype=np.uint8), np.ones((3, 3), dtype=np.uint8))

    def test_singular_matrix_detected(self):
        singular = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(DecodingError):
            gf_matrix_inverse(singular)

    def test_vandermonde_rows_limit(self):
        with pytest.raises(DecodingError):
            vandermonde_matrix(300, 4)

    def test_matmul_shape_check(self):
        with pytest.raises(DecodingError):
            gf_matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))
