"""Tests for the Local Reconstruction Code baseline (repro.codes.lrc)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes.lrc import LocalReconstructionCode, azure_lrc, xorbas_lrc
from repro.codes.reed_solomon import ReedSolomonCode
from repro.exceptions import DecodingError, InvalidParametersError


def make_stripe(code: LocalReconstructionCode, size: int = 64, seed: int = 0):
    rng = np.random.default_rng(seed)
    data = [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(code.k)]
    parities = code.encode(data)
    available = {index: payload for index, payload in enumerate(data)}
    available.update({code.k + index: payload for index, payload in enumerate(parities)})
    return data, available


class TestConstruction:
    def test_shape(self):
        code = LocalReconstructionCode(6, 2, 2)
        assert code.k == 6
        assert code.m == 4
        assert code.n == 10
        assert code.local_groups == 2
        assert code.global_parities == 2
        assert code.group_size == 3
        assert code.name == "LRC(6,2,2)"

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParametersError):
            LocalReconstructionCode(1, 1, 1)
        with pytest.raises(InvalidParametersError):
            LocalReconstructionCode(6, 4, 1)  # 4 does not divide 6
        with pytest.raises(InvalidParametersError):
            LocalReconstructionCode(6, 2, 0)
        with pytest.raises(InvalidParametersError):
            LocalReconstructionCode(200, 50, 40)  # > 255 symbols

    def test_group_helpers(self):
        code = LocalReconstructionCode(6, 2, 2)
        assert code.group_of(0) == 0
        assert code.group_of(5) == 1
        assert list(code.group_members(1)) == [3, 4, 5]
        assert code.local_parity_position(0) == 6
        with pytest.raises(InvalidParametersError):
            code.group_of(6)
        with pytest.raises(InvalidParametersError):
            code.group_members(2)
        with pytest.raises(InvalidParametersError):
            code.local_parity_position(-1)

    def test_named_configurations(self):
        assert azure_lrc().name == "LRC(12,2,2)"
        assert xorbas_lrc().name == "LRC(10,2,4)"

    def test_single_failure_cost_is_group_size(self):
        assert LocalReconstructionCode(12, 2, 2).single_failure_cost == 6
        assert LocalReconstructionCode(12, 4, 2).single_failure_cost == 3
        # RS with the same (k, m) always costs k reads.
        assert ReedSolomonCode(12, 4).single_failure_cost == 12


class TestEncodeDecode:
    def test_roundtrip_with_all_blocks(self):
        code = LocalReconstructionCode(6, 2, 2)
        data, available = make_stripe(code)
        decoded = code.decode(available)
        for expected, actual in zip(data, decoded):
            assert np.array_equal(expected, actual)

    def test_local_parity_is_group_xor(self):
        code = LocalReconstructionCode(4, 2, 1)
        data, _ = make_stripe(code)
        parities = code.encode(data)
        assert np.array_equal(parities[0], np.bitwise_xor(data[0], data[1]))
        assert np.array_equal(parities[1], np.bitwise_xor(data[2], data[3]))

    def test_single_data_failure(self):
        code = LocalReconstructionCode(6, 2, 2)
        data, available = make_stripe(code)
        del available[2]
        decoded = code.decode(available)
        assert np.array_equal(decoded[2], data[2])

    def test_two_failures_same_group(self):
        code = LocalReconstructionCode(6, 2, 2)
        data, available = make_stripe(code)
        del available[0]
        del available[1]
        decoded = code.decode(available)
        assert np.array_equal(decoded[0], data[0])
        assert np.array_equal(decoded[1], data[1])

    def test_three_failures_across_groups(self):
        code = LocalReconstructionCode(6, 2, 2)
        data, available = make_stripe(code)
        for position in (0, 1, 4):
            del available[position]
        decoded = code.decode(available)
        for position in (0, 1, 4):
            assert np.array_equal(decoded[position], data[position])

    def test_too_many_failures_raises(self):
        code = LocalReconstructionCode(6, 2, 2)
        _, available = make_stripe(code)
        # Wipe out group 0 entirely (3 data + local parity) plus one global
        # parity: 4 unknowns in the group, only 1 global parity left.
        for position in (0, 1, 2, 6, 8):
            del available[position]
        with pytest.raises(DecodingError):
            code.decode(available)

    def test_empty_available_raises(self):
        code = LocalReconstructionCode(4, 2, 1)
        with pytest.raises(DecodingError):
            code.decode({})

    def test_mismatched_sizes_raise(self):
        code = LocalReconstructionCode(4, 2, 1)
        _, available = make_stripe(code)
        available[0] = np.zeros(17, dtype=np.uint8)
        with pytest.raises(DecodingError):
            code.decode(available)

    def test_repair_single_position(self):
        code = LocalReconstructionCode(6, 2, 2)
        data, available = make_stripe(code)
        parity = available[code.k]  # local parity of group 0
        del available[code.k]
        rebuilt = code.repair(code.k, available)
        assert np.array_equal(rebuilt, parity)

    @given(st.integers(min_value=0, max_value=9))
    @settings(max_examples=10, deadline=None)
    def test_any_single_erasure_is_decodable(self, position):
        code = LocalReconstructionCode(6, 2, 2)
        data, available = make_stripe(code, seed=position)
        available.pop(position, None)
        decoded = code.decode(available)
        for expected, actual in zip(data, decoded):
            assert np.array_equal(expected, actual)


class TestDecodabilityAndLocality:
    def test_can_decode_full_and_degraded(self):
        code = LocalReconstructionCode(6, 2, 2)
        assert code.can_decode(range(code.n))
        assert code.can_decode([pos for pos in range(code.n) if pos != 0])
        assert not code.can_decode(range(3))

    def test_can_decode_detects_dead_group(self):
        code = LocalReconstructionCode(6, 2, 2)
        # All of group 0 (data + local parity) is gone: the two global
        # parities cannot determine three unknowns even though six blocks
        # survive.
        available = [3, 4, 5, 7, 8, 9]
        assert not code.can_decode(available)

    def test_local_repair_positions(self):
        code = LocalReconstructionCode(6, 2, 2)
        assert code.local_repair_positions(0) == [1, 2, 6]
        assert code.local_repair_positions(6) == [0, 1, 2]
        assert code.local_repair_positions(code.k + code.local_groups) == list(range(6))

    def test_repair_cost_locality(self):
        code = LocalReconstructionCode(12, 4, 2)
        assert code.repair_cost(0) == 3  # 2 group members + local parity
        assert code.repair_cost(code.k) == 3  # local parity from its group
        assert code.repair_cost(code.n - 1) == 12  # global parity needs all data

    def test_lrc_sits_between_rs_and_ae_on_locality(self):
        """The locality ordering the benchmarks rely on: AE (2) < LRC (k/l + 1) < RS (k)."""
        lrc = LocalReconstructionCode(10, 2, 4)
        rs = ReedSolomonCode(10, 4)
        assert 2 < lrc.repair_cost(0) + 1 <= rs.single_failure_cost + 1
        assert lrc.single_failure_cost < rs.single_failure_cost

    def test_storage_overhead(self):
        code = LocalReconstructionCode(10, 2, 4)
        assert code.storage_overhead == pytest.approx(0.6)
        assert code.costs().as_row()["additional storage (%)"] == 60.0


class TestTolerance:
    """Exhaustive decodability of the two named configurations.  LRC is not
    MDS, and with these global coefficients LRC(10,2,4) does not decode every
    ``r + 1`` failures either."""

    @staticmethod
    def undecodable(code, failures):
        return [
            pattern
            for pattern in combinations(range(code.n), failures)
            if not code.can_decode([p for p in range(code.n) if p not in pattern])
        ]

    @pytest.mark.parametrize(
        "code, tolerated, beyond",
        [(azure_lrc(), 3, 297), (xorbas_lrc(), 4, 22)],
        ids=["azure", "xorbas"],
    )
    def test_undecodable_pattern_counts(self, code, tolerated, beyond):
        assert self.undecodable(code, tolerated) == []
        assert len(self.undecodable(code, tolerated + 1)) == beyond

    def test_an_undecodable_five_failure_pattern_of_xorbas(self):
        code = xorbas_lrc()
        _, stripe = make_stripe(code, size=8)
        available = {p: v for p, v in stripe.items() if p not in (0, 1, 2, 3, 14)}
        assert not code.can_decode(sorted(available))
        with pytest.raises(DecodingError):
            code.decode(available)


@pytest.mark.parametrize(
    "make", [lambda: ReedSolomonCode(4, 2), lambda: LocalReconstructionCode(4, 2, 1)],
    ids=["rs", "lrc"],
)
class TestSharedInputChecks:
    """RS and LRC refuse the same inputs: RS used to hand a 17-byte block
    back next to 16-byte ones, and LRC used to ignore a position 99."""

    def test_blocks_of_mixed_sizes_are_refused(self, make):
        code = make()
        _, stripe = make_stripe(code, size=16)
        stripe[0] = np.zeros(17, dtype=np.uint8)
        with pytest.raises(DecodingError):
            code.decode(stripe)
        without_one = {p: v for p, v in stripe.items() if p != 1}
        with pytest.raises(DecodingError):
            code.rebuild([1], without_one)

    @pytest.mark.parametrize("stranger", [99, -1, 7])
    def test_positions_outside_the_stripe_are_refused(self, make, stranger):
        code = make()
        _, stripe = make_stripe(code, size=16)
        with pytest.raises(DecodingError):
            code.decode({**stripe, stranger: stripe[0]})
        with pytest.raises(DecodingError):
            code.rebuild([stranger], stripe)
