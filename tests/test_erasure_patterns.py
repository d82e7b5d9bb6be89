"""Tests for minimal erasure patterns: the fault-tolerance results of Sec. V-A."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.erasure_patterns import (
    ErasurePattern,
    find_minimal_erasure,
    is_irrecoverable,
    is_minimal_erasure,
    minimal_erasure_size,
    minimal_pattern_for_nodes,
    primitive_form_one,
    primitive_form_two,
    recoverable_blocks,
)
from repro.core.blocks import DataId
from repro.core.parameters import AEParameters, StrandClass


class TestPatternValidation:
    def test_primitive_form_one_is_minimal(self):
        """Fig. 6-I: two adjacent nodes plus their shared edge, size 3."""
        params = AEParameters.single()
        pattern = primitive_form_one()
        assert pattern.size == 3
        assert is_irrecoverable(pattern, params)
        assert is_minimal_erasure(pattern, params)

    def test_primitive_form_two_is_minimal(self):
        """Fig. 6-II: the extended form with every connecting edge erased."""
        params = AEParameters.single()
        pattern = primitive_form_two(gap=4)
        assert pattern.size == 6  # the paper's |ME(2)| = 6 example
        assert is_irrecoverable(pattern, params)
        assert is_minimal_erasure(pattern, params)

    def test_partial_pattern_is_recoverable(self):
        """Removing one block from a primitive form makes it recoverable."""
        params = AEParameters.single()
        pattern = primitive_form_one()
        reduced = ErasurePattern(
            data_nodes=pattern.data_nodes,
            parity_edges=frozenset(),
        )
        assert recoverable_blocks(reduced, params)
        assert not is_irrecoverable(reduced, params)

    def test_blocks_beyond_the_lattice_are_never_recovered(self):
        """A parity of a node the lattice does not have yet cannot be
        rebuilt, with or without the data block it would be read from."""
        params = AEParameters.single()
        beyond = (15, StrandClass.HORIZONTAL)
        alone = ErasurePattern(frozenset(), frozenset({beyond}))
        assert recoverable_blocks(alone, params, lattice_size=14) == set()
        with_data = ErasurePattern(frozenset({16}), frozenset({beyond}))
        assert recoverable_blocks(with_data, params, lattice_size=14) == set()
        inside = ErasurePattern(frozenset({14}), frozenset({beyond}))
        assert recoverable_blocks(inside, params, lattice_size=14) == {DataId(14)}

    def test_primitive_forms_are_innocuous_for_alpha_2(self):
        """Fig. 7: with alpha >= 2 the primitive forms no longer cause loss."""
        params = AEParameters(2, 1, 1)
        pattern = primitive_form_one()
        assert not is_irrecoverable(pattern, params)

    def test_single_data_block_is_always_recoverable(self, any_params):
        pattern = ErasurePattern(data_nodes=frozenset({500}), parity_edges=frozenset())
        assert not is_irrecoverable(pattern, any_params)
        assert find_minimal_erasure(any_params, 1).size is None

    def test_describe_mentions_size(self):
        pattern = primitive_form_one()
        assert "|ME(2)| = 3" in pattern.describe(AEParameters.single())

    def test_shifted_pattern_stays_minimal(self):
        params = AEParameters.single()
        shifted = primitive_form_one().shifted(40)
        assert is_minimal_erasure(shifted, params)


class TestPaperValues:
    """|ME(2)| values quoted in the paper (Figs. 6, 7 and Sec. I)."""

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ((1, 1, 0), 3),
            ((2, 1, 1), 4),
            ((3, 1, 1), 5),
            ((3, 1, 4), 8),
            ((3, 4, 4), 14),
        ],
    )
    def test_me2_matches_paper(self, spec, expected):
        params = AEParameters(*spec)
        result = find_minimal_erasure(params, 2)
        assert result.size == expected
        assert is_minimal_erasure(result.pattern, params)

    def test_me2_for_hec_setting(self):
        """AE(3,2,5): |ME(2)| = 2 + 2s + p = 11."""
        assert minimal_erasure_size(AEParameters.triple(2, 5), 2) == 11

    @pytest.mark.parametrize("spec", [(2, 2, 2), (2, 2, 4), (2, 3, 4)])
    def test_me4_is_eight_for_double_entanglements(self, spec):
        """Fig. 9: the square pattern pins |ME(4)| at 8 for alpha = 2."""
        assert minimal_erasure_size(AEParameters(*spec), 4) == 8

    def test_me4_found_patterns_are_minimal(self):
        params = AEParameters(3, 2, 2)
        result = find_minimal_erasure(params, 4)
        assert result.size is not None
        assert is_minimal_erasure(result.pattern, params)


class TestChainConstruction:
    def test_minimal_pattern_for_explicit_nodes(self):
        """Two co-strand nodes of AE(3,4,4) need p + 2s = 12 connecting edges."""
        params = AEParameters(3, 4, 4)
        anchor = 401
        pattern = minimal_pattern_for_nodes([anchor, anchor + 16], params)
        assert pattern is not None
        assert pattern.size == 14
        assert is_irrecoverable(pattern, params)

    def test_infeasible_node_set_returns_none(self):
        """Nodes that do not share a strand cannot form an ME with 2 data blocks."""
        params = AEParameters(3, 4, 4)
        assert minimal_pattern_for_nodes([401, 402 + 1], params) is None

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_found_me2_patterns_validate(self, offset):
        """Property: every pattern the searcher returns is a true minimal erasure."""
        params = AEParameters(3, 2, 2 + (offset % 4))
        result = find_minimal_erasure(params, 2)
        assert result.pattern is not None
        assert is_irrecoverable(result.pattern, params)
        assert is_minimal_erasure(result.pattern, params)
