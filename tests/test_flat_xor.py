"""Tests for flat XOR codes (the substrate of the minimal-erasure methodology)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.mel import TannerGraph
from repro.codes import base
from repro.codes.flat_xor import FlatXorCode, geo_xor_code, mirrored_pairs_code, raid5_code
from repro.codes.gf256 import gf_matmul_bytes
from repro.exceptions import DecodingError, InvalidParametersError
from repro.schemes import get as get_scheme


def random_data(k: int, seed: int = 0, size: int = 16):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(k)]


class TestConstruction:
    def test_equations_validated(self):
        with pytest.raises(InvalidParametersError):
            FlatXorCode(3, [])
        with pytest.raises(InvalidParametersError):
            FlatXorCode(3, [[]])
        with pytest.raises(InvalidParametersError):
            FlatXorCode(3, [[0, 5]])
        with pytest.raises(InvalidParametersError):
            FlatXorCode(0, [[0]])

    def test_standard_constructions(self):
        assert raid5_code(4).m == 1
        assert mirrored_pairs_code(3).m == 3
        assert geo_xor_code().k == 2


class TestCoding:
    def test_raid5_parity_is_xor_of_all(self):
        code = raid5_code(3)
        data = random_data(3)
        parity = code.encode(data)[0]
        assert np.array_equal(parity, data[0] ^ data[1] ^ data[2])

    def test_peeling_decoder_recovers_single_data_failure(self):
        code = raid5_code(4)
        data = random_data(4, seed=3)
        parity = code.encode(data)[0]
        available = {0: data[0], 2: data[2], 3: data[3], 4: parity}
        decoded = code.decode(available)
        assert np.array_equal(decoded[1], data[1])

    def test_peeling_decoder_fails_on_double_failure_raid5(self):
        code = raid5_code(4)
        data = random_data(4, seed=4)
        parity = code.encode(data)[0]
        available = {0: data[0], 3: data[3], 4: parity}
        with pytest.raises(DecodingError):
            code.decode(available)

    def test_mirrored_pairs_tolerate_one_arbitrary_failure(self):
        code = mirrored_pairs_code(3)
        assert code.tolerated_failures() >= 1

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_raid5_tolerates_exactly_one_failure(self, k, seed):
        code = raid5_code(k)
        assert code.tolerated_failures() == 1
        data = random_data(k, seed=seed)
        parity = code.encode(data)[0]
        stripe = {index: payload for index, payload in enumerate(data)}
        stripe[k] = parity
        victim = seed % (k + 1)
        available = {pos: payload for pos, payload in stripe.items() if pos != victim}
        repaired = code.repair(victim, available)
        assert np.array_equal(repaired, stripe[victim])


class TestStructuralDecodability:
    def test_can_decode_structural(self):
        code = FlatXorCode(4, [[0, 1], [2, 3], [0, 2]])
        assert code.can_decode([0, 1, 2, 3])
        assert code.can_decode([1, 3, 4, 5, 6])  # peel everything back
        assert not code.can_decode([4, 5])

    def test_single_failure_cost_uses_smallest_equation(self):
        code = FlatXorCode(4, [[0, 1, 2, 3], [0, 1]])
        assert code.single_failure_cost == 2

    def test_repair_reads_the_smallest_available_equation(self):
        # Position 0 is in a 4-block and a 2-block equation: the plan and the
        # rebuild both use the 2-block one, and the 4-block one once the
        # smaller lost its parity.
        code = FlatXorCode(4, [[0, 1, 2, 3], [0, 1]])
        data = random_data(4)
        stripe = dict(enumerate(data))
        stripe.update({4 + i: parity for i, parity in enumerate(code.encode(data))})
        others = [p for p in range(code.n) if p != 0]
        assert code.repair_read_positions(0, others) == [1, 5]
        assert np.array_equal(code.repair(0, {p: stripe[p] for p in (1, 5)}), data[0])
        without_small = [p for p in others if p != 5]
        assert code.repair_read_positions(0, without_small) == [1, 2, 3, 4]
        plan = {p: stripe[p] for p in (1, 2, 3, 4)}
        assert np.array_equal(code.repair(0, plan), data[0])
        assert code.repair_read_positions(4, [0, 1, 2, 3, 5]) == [0, 1, 2, 3]


#: Small flat XOR codes: k <= 5 data blocks, one to four non-empty equations.
small_flat_codes = st.integers(min_value=1, max_value=5).flatmap(
    lambda k: st.lists(
        st.sets(st.integers(min_value=0, max_value=k - 1), min_size=1),
        min_size=1,
        max_size=4,
    ).map(lambda equations: FlatXorCode(k, [sorted(eq) for eq in equations]))
)


class TestRankDecoding:
    """A flat XOR code decodes exactly what the MEL's maximum-likelihood
    rule (:meth:`TannerGraph.lost_data`) recovers -- more than peeling."""

    def test_all_data_lost_decodes_from_the_parities(self):
        # p0 = d0^d1, p1 = d1^d2, p2 = d0^d1^d2: every equation has two or
        # more unknowns, so peeling stalls, yet d2 = p0^p2, d0 = p1^p2 and
        # d1 = p0^d0.  Peeling used to refuse this pattern.
        code = FlatXorCode(3, [[0, 1], [1, 2], [0, 1, 2]])
        data = random_data(3, seed=7)
        available = {3 + j: parity for j, parity in enumerate(code.encode(data))}
        assert TannerGraph.from_flat_code(code).lost_data([0, 1, 2]) == []
        assert code.can_decode(sorted(available))
        assert [bytes(block) for block in code.decode(available)] == [
            bytes(block) for block in data
        ]
        rebuilt = code.decode(available, [0, 1, 2])
        assert [bytes(block) for block in rebuilt] == [bytes(block) for block in data]
        assert code.repair_read_positions(1, sorted(available)) == [3, 4, 5]
        assert bytes(code.repair(1, available)) == bytes(data[1])

    @given(small_flat_codes)
    @settings(max_examples=40, deadline=None)
    def test_can_decode_is_the_mel_criterion(self, code):
        graph = TannerGraph.from_flat_code(code)
        for size in range(code.n + 1):
            for erased in combinations(range(code.n), size):
                survivors = [p for p in range(code.n) if p not in erased]
                assert code.can_decode(survivors) == (graph.lost_data(erased) == []), (
                    code.equations,
                    erased,
                )


class TestXorRowEncoding:
    """Encoding computes a parity row of 0/1 coefficients as a XOR, outside
    the packed product: replication and flat XOR pack nothing, LRC only its
    global rows.  Bytes alone cannot show this -- packing every row encodes
    the same parities, a replica 3-18x slower (``docs/performance.md``)."""

    @pytest.mark.parametrize(
        "scheme, packed_rows",
        [("rep-3", 0), ("xor-geo", 0), ("xor-raid5-5", 0), ("lrc-azure", 2), ("rs-10-4", 4)],
    )
    def test_only_the_other_rows_are_packed(self, monkeypatch, scheme, packed_rows):
        code = get_scheme(scheme).code
        data = random_data(code.k, seed=3)
        expected = gf_matmul_bytes(code.encoding_matrix[code.k :], data, data[0].size)
        products = []

        def recording(matrix, payloads, size):
            products.append(matrix.rows)
            return gf_matmul_bytes(matrix, payloads, size)

        monkeypatch.setattr(base, "gf_matmul_bytes", recording)
        parities = code.encode(data)
        assert sum(products) == packed_rows
        assert [bytes(parity) for parity in parities] == [bytes(row) for row in expected]
