"""Tests for the systematic Reed-Solomon implementation."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes import base
from repro.codes.base import RECOVERY_CACHE_PATTERNS
from repro.codes.reed_solomon import (
    PAPER_RS_SETTINGS,
    ReedSolomonCode,
    paper_rs_codes,
    systematic_encoding_matrix,
)
from repro.exceptions import DecodingError, InvalidParametersError


def make_stripe(code: ReedSolomonCode, seed: int = 0, size: int = 64):
    rng = np.random.default_rng(seed)
    data = [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(code.k)]
    parities = code.encode(data)
    stripe = {index: payload for index, payload in enumerate(data)}
    stripe.update({code.k + index: payload for index, payload in enumerate(parities)})
    return data, stripe


class TestEncoding:
    def test_systematic_matrix_has_identity_top(self):
        matrix = systematic_encoding_matrix(4, 3)
        assert np.array_equal(matrix[:4, :], np.eye(4, dtype=np.uint8))

    def test_paper_settings_construct(self):
        codes = paper_rs_codes()
        assert [(code.k, code.m) for code in codes] == list(PAPER_RS_SETTINGS)

    def test_costs_match_table_four(self):
        code = ReedSolomonCode(10, 4)
        costs = code.costs()
        assert costs.additional_storage_percent == pytest.approx(40.0)
        assert costs.single_failure_cost == 10
        assert ReedSolomonCode(4, 12).costs().additional_storage_percent == pytest.approx(300.0)

    def test_invalid_settings(self):
        with pytest.raises(InvalidParametersError):
            ReedSolomonCode(0, 2)
        with pytest.raises(InvalidParametersError):
            ReedSolomonCode(4, 0)
        with pytest.raises(InvalidParametersError):
            ReedSolomonCode(200, 100)

    def test_stripe_size_checks(self):
        code = ReedSolomonCode(3, 2)
        with pytest.raises(Exception):
            code.encode([np.zeros(4, dtype=np.uint8)] * 2)
        with pytest.raises(Exception):
            code.encode([np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8), np.zeros(4, dtype=np.uint8)])


class TestDecoding:
    @given(
        st.sampled_from([(3, 2), (5, 3), (10, 4), (4, 12)]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_m_erasures_are_tolerated(self, setting, seed):
        k, m = setting
        code = ReedSolomonCode(k, m)
        data, stripe = make_stripe(code, seed=seed, size=32)
        rng = np.random.default_rng(seed)
        erased = rng.choice(code.n, size=m, replace=False)
        available = {pos: payload for pos, payload in stripe.items() if pos not in erased}
        decoded = code.decode(available)
        for index in range(k):
            assert np.array_equal(decoded[index], data[index])

    def test_too_many_erasures_fail(self):
        code = ReedSolomonCode(4, 2)
        data, stripe = make_stripe(code)
        available = {pos: stripe[pos] for pos in range(3)}  # only 3 of 6 blocks
        with pytest.raises(DecodingError):
            code.decode(available)

    def test_repair_restores_both_data_and_parity(self):
        code = ReedSolomonCode(5, 3)
        data, stripe = make_stripe(code, seed=42)
        available = dict(stripe)
        del available[2]
        del available[6]
        assert np.array_equal(code.repair(2, available), stripe[2])
        assert np.array_equal(code.repair(6, available), stripe[6])

    def test_repair_of_available_block_is_identity(self):
        code = ReedSolomonCode(4, 2)
        _, stripe = make_stripe(code)
        assert np.array_equal(code.repair(1, stripe), stripe[1])

    def test_single_failure_reads_k_blocks(self):
        """The repair-cost premise of the paper: RS repairs read k blocks."""
        code = ReedSolomonCode(8, 2)
        assert code.single_failure_cost == 8
        assert code.repair_bandwidth(block_size=4096) == 8 * 4096

    def test_can_decode_is_mds(self):
        code = ReedSolomonCode(6, 3)
        assert code.can_decode(range(6))
        assert code.can_decode([0, 2, 4, 6, 7, 8])
        assert not code.can_decode([0, 1, 2, 3, 4])


def assert_rebuild_matches(code, stripe, erased, wanted):
    """``decode(available, wanted)`` against the stored stripe (the
    decode-then-encode reference is ``tests/test_stripe_decode.py``)."""
    available = {pos: payload for pos, payload in stripe.items() if pos not in erased}
    rebuilt = code.decode(available, wanted)
    assert len(rebuilt) == len(wanted)
    for position, payload in zip(wanted, rebuilt):
        assert np.array_equal(payload, stripe[position])


class TestRebuild:
    @pytest.mark.parametrize("setting", [(4, 2), (5, 5)])
    def test_every_erasure_pattern(self, setting):
        code = ReedSolomonCode(*setting)
        _, stripe = make_stripe(code, seed=7, size=24)
        for count in range(1, code.m + 1):
            for erased in combinations(range(code.n), count):
                assert_rebuild_matches(code, stripe, erased, list(erased))
                # One wanted row only -- the last lost one, a parity whenever
                # a parity is lost -- out of a larger erasure.
                assert_rebuild_matches(code, stripe, erased, [erased[-1]])

    @given(
        st.sampled_from([(10, 4), (4, 12)]),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([1, 7, 4096]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sampled_patterns_of_the_wide_settings(self, setting, seed, size):
        code = ReedSolomonCode(*setting)
        _, stripe = make_stripe(code, seed=seed, size=size)
        rng = np.random.default_rng(seed)
        erased = sorted(
            int(p) for p in rng.choice(code.n, size=rng.integers(1, code.m + 1), replace=False)
        )
        parity = int(rng.integers(code.k, code.n))
        if parity not in erased:
            erased[-1] = parity  # always rebuild at least one parity
        wanted = [p for p in erased if rng.random() < 0.7 or p == parity]
        assert_rebuild_matches(code, stripe, erased, wanted)

    def test_supplied_positions_come_back_as_supplied(self):
        code = ReedSolomonCode(4, 2)
        _, stripe = make_stripe(code)
        available = {pos: stripe[pos] for pos in (0, 1, 3, 4, 5)}
        first, lost, parity = code.decode(available, [0, 2, 5])
        assert np.shares_memory(first, stripe[0]) and np.shares_memory(parity, stripe[5])
        assert np.array_equal(lost, stripe[2])
        # Nothing to compute: no decode, so fewer than k blocks will do.
        assert np.shares_memory(code.decode({1: stripe[1]}, [1])[0], stripe[1])

    def test_lost_rows_are_solved_through_decode(self, monkeypatch):
        # ``decode`` is the one recovery verb a repair goes through, looked
        # up on the instance: a wrapper installed on the class (the
        # end-to-end benchmark's tracer does that) sees every stripe that is
        # repaired.  A lost data block and a lost parity are one product.
        seen = []
        solve = ReedSolomonCode.decode

        def watched(code, available, positions=None):
            seen.append((sorted(available), positions))
            return solve(code, available, positions)

        products = []
        multiply = base.gf_matmul_bytes

        def counted(packed, payloads, size):
            products.append(packed.rows)
            return multiply(packed, payloads, size)

        code = ReedSolomonCode(4, 2)
        _, stripe = make_stripe(code)
        monkeypatch.setattr(ReedSolomonCode, "decode", watched)
        monkeypatch.setattr(base, "gf_matmul_bytes", counted)
        available = {pos: stripe[pos] for pos in (0, 1, 3, 4)}
        lost_data, lost_parity = code.decode(available, [2, 5])
        assert np.array_equal(lost_data, stripe[2]) and np.array_equal(lost_parity, stripe[5])
        assert products == [2]
        assert np.array_equal(code.repair(5, available), stripe[5])
        assert seen == [([0, 1, 3, 4], [2, 5]), ([0, 1, 3, 4], [5])]

    def test_repair_is_the_one_element_rebuild(self):
        code = ReedSolomonCode(5, 3)
        _, stripe = make_stripe(code, seed=3)
        available = {pos: stripe[pos] for pos in range(code.n) if pos not in (1, 6)}
        for position in (1, 6):
            assert np.array_equal(
                code.repair(position, available), code.decode(available, [position])[0]
            )

    def test_blocks_of_different_sizes_are_refused(self):
        code = ReedSolomonCode(4, 2)
        _, stripe = make_stripe(code)
        available = {pos: stripe[pos] for pos in (1, 2, 3, 4)}
        available[3] = available[3][:-1]
        with pytest.raises(DecodingError):
            code.decode(available)

    def test_recovery_cache_is_bounded(self):
        code = ReedSolomonCode(4, 12)
        _, stripe = make_stripe(code, size=8)
        patterns = list(combinations(range(code.n), code.k))[: RECOVERY_CACHE_PATTERNS + 40]
        for kept in patterns:
            lost = next(pos for pos in range(code.n) if pos not in kept)
            rebuilt = code.decode({pos: stripe[pos] for pos in kept}, [lost])
            assert np.array_equal(rebuilt[0], stripe[lost])
        assert len(code._recovery_cache) == RECOVERY_CACHE_PATTERNS
        # The first pattern was dropped and is simply computed again.
        kept = patterns[0]
        lost = next(pos for pos in range(code.n) if pos not in kept)
        again = code.decode({pos: stripe[pos] for pos in kept}, [lost])
        assert np.array_equal(again[0], stripe[lost])


class TestPositionKeys:
    """Positions outside ``0 .. n-1`` are refused, not indexed with."""

    def test_a_key_past_the_stripe_is_a_decoding_error(self):
        # Used to escape as a bare IndexError that the stripe scheme's
        # ``except DecodingError`` does not catch.
        code = ReedSolomonCode(4, 2)
        _, stripe = make_stripe(code)
        available = {pos: stripe[pos] for pos in (1, 2, 3)}
        available[9] = stripe[0]
        with pytest.raises(DecodingError):
            code.decode(available)
        with pytest.raises(DecodingError):
            code.decode(available, [0])
        with pytest.raises(DecodingError):
            code.repair(9, {pos: stripe[pos] for pos in range(1, 6)})

    def test_a_negative_key_is_not_an_alias_of_the_last_parity(self):
        # Used to index the encoding matrix from the end: a payload filed
        # under -1 was decoded as if it were position n-1, without an error.
        code = ReedSolomonCode(4, 2)
        _, stripe = make_stripe(code)
        available = {pos: stripe[pos] for pos in (1, 2, 3)}
        available[-1] = stripe[4]  # not the payload of position 5
        with pytest.raises(DecodingError):
            code.decode(available)
        with pytest.raises(DecodingError):
            code.decode(available, [0])
