"""Tests for flat XOR codes (the substrate of the minimal-erasure methodology)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes.flat_xor import FlatXorCode, geo_xor_code, mirrored_pairs_code, raid5_code
from repro.exceptions import DecodingError, InvalidParametersError


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
