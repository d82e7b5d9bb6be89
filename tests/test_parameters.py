"""Tests for AE(alpha, s, p) parameter validation and derived quantities."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.core.parameters import AEParameters, StrandClass
from repro.exceptions import InvalidParametersError


class TestValidation:
    def test_single_entanglement_requires_s1_p0(self):
        assert AEParameters.single() == AEParameters(1, 1, 0)
        with pytest.raises(InvalidParametersError):
            AEParameters(1, 2, 2)
        with pytest.raises(InvalidParametersError):
            AEParameters(1, 1, 1)

    def test_p_smaller_than_s_is_rejected(self):
        with pytest.raises(InvalidParametersError):
            AEParameters(3, 4, 2)
        with pytest.raises(InvalidParametersError):
            AEParameters(2, 3, 1)

    def test_non_positive_values_rejected(self):
        with pytest.raises(InvalidParametersError):
            AEParameters(0, 1, 0)
        with pytest.raises(InvalidParametersError):
            AEParameters(2, 0, 2)
        with pytest.raises(InvalidParametersError):
            AEParameters(2, 2, -1)

    @pytest.mark.parametrize("alpha", [4, 5, 9])
    def test_alpha_above_three_is_rejected(self, alpha):
        """The lattice has three strand classes; a fourth parity would reuse
        one and collide with it (``p[i,rh]`` twice), so it is not a setting."""
        with pytest.raises(InvalidParametersError, match="alpha=3"):
            AEParameters(alpha, 2, 5)
        with pytest.raises(InvalidParametersError, match="alpha=3"):
            AEParameters.parse(f"AE({alpha},2,5)")

    def test_valid_settings_accepted(self):
        for alpha, s, p in [(2, 1, 1), (2, 2, 5), (3, 2, 5), (3, 5, 5), (3, 1, 4)]:
            params = AEParameters(alpha, s, p)
            assert params.alpha == alpha

    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=12))
    def test_validation_is_total(self, alpha, s, p):
        """Every input either builds a valid object or raises InvalidParametersError."""
        try:
            params = AEParameters(alpha, s, p)
        except InvalidParametersError:
            assert alpha > 3 or p < s
        else:
            assert params.p >= params.s


class TestDerivedQuantities:
    def test_code_rate(self):
        assert AEParameters.single().code_rate == Fraction(1, 2)
        assert AEParameters.triple(2, 5).code_rate == Fraction(1, 4)
        assert AEParameters.triple(2, 5).parity_only_rate == Fraction(1, 3)

    def test_storage_overhead_grows_with_alpha(self):
        assert AEParameters.single().storage_overhead == 1.0
        assert AEParameters.double(2, 5).storage_overhead == 2.0
        assert AEParameters.triple(2, 5).storage_overhead == 3.0

    def test_strand_count_formula(self):
        # s + (alpha - 1) * p  (paper, Sec. III-B)
        assert AEParameters(3, 5, 5).strand_count == 15
        assert AEParameters(3, 2, 5).strand_count == 12
        assert AEParameters(2, 2, 5).strand_count == 7
        assert AEParameters.single().strand_count == 1

    def test_single_failure_cost_is_constant_two(self):
        for spec in ["AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)", "AE(3,5,5)"]:
            assert AEParameters.parse(spec).single_failure_cost == 2

    def test_strand_classes_per_alpha(self):
        assert AEParameters.single().strand_classes == (StrandClass.HORIZONTAL,)
        assert AEParameters.double(2, 5).strand_classes == (
            StrandClass.HORIZONTAL,
            StrandClass.RIGHT_HANDED,
        )
        assert AEParameters.triple(2, 5).strand_classes == (
            StrandClass.HORIZONTAL,
            StrandClass.RIGHT_HANDED,
            StrandClass.LEFT_HANDED,
        )


class TestParsingAndSpec:
    def test_parse_round_trip(self):
        for text in ["AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)", "AE(3,5,5)"]:
            assert AEParameters.parse(text).spec() == text

    def test_parse_accepts_loose_formats(self):
        assert AEParameters.parse("ae(3, 2, 5)") == AEParameters(3, 2, 5)
        assert AEParameters.parse("1") == AEParameters.single()

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidParametersError):
            AEParameters.parse("")
        with pytest.raises(InvalidParametersError):
            AEParameters.parse("AE(3)")

    def test_helical_constructor_matches_phec(self):
        """p-HEC corresponds to AE(3, 2, p) (paper, Sec. II)."""
        assert AEParameters.helical(5) == AEParameters(3, 2, 5)
