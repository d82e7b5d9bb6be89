"""Tests for the helical lattice adjacency oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blocks import DataId, ParityId
from repro.core.lattice import HelicalLattice
from repro.core.parameters import AEParameters, StrandClass
from repro.exceptions import LatticeBoundsError


class TestBasics:
    def test_growth_and_counts(self, hec_params):
        lattice = HelicalLattice(hec_params)
        assert lattice.size == 0
        new_ids = lattice.grow(10)
        assert [d.index for d in new_ids] == list(range(1, 11))
        assert lattice.size == 10
        assert lattice.parity_count == 30
        assert lattice.total_blocks == 40
        assert lattice.columns == 5

    def test_membership(self, hec_params):
        lattice = HelicalLattice(hec_params, size=5)
        assert lattice.has_block(DataId(5))
        assert not lattice.has_block(DataId(6))
        assert lattice.has_block(ParityId(5, StrandClass.LEFT_HANDED))
        assert not lattice.has_block(ParityId(6, StrandClass.HORIZONTAL))

    def test_enumeration(self, hec_params):
        lattice = HelicalLattice(hec_params, size=4)
        assert len(list(lattice.data_ids())) == 4
        assert len(list(lattice.parity_ids())) == 12
        assert len(list(lattice.block_ids())) == 16

    def test_invalid_operations(self, hec_params):
        with pytest.raises(LatticeBoundsError):
            HelicalLattice(hec_params, size=-1)
        lattice = HelicalLattice(hec_params, size=3)
        with pytest.raises(LatticeBoundsError):
            lattice.grow(-1)
        with pytest.raises(LatticeBoundsError):
            lattice.data_repair_options(4)

    def test_describe_mentions_setting(self, hec_params):
        lattice = HelicalLattice(hec_params, size=16)
        assert "AE(3,2,5)" in lattice.describe()


class TestEdges:
    def test_edge_endpoints_follow_table_two(self, paper_example_params):
        lattice = HelicalLattice(paper_example_params, size=60)
        assert lattice.edge_endpoints(ParityId(26, StrandClass.HORIZONTAL)) == (26, 31)
        assert lattice.edge_endpoints(ParityId(26, StrandClass.RIGHT_HANDED)) == (26, 32)
        assert lattice.edge_endpoints(ParityId(26, StrandClass.LEFT_HANDED)) == (26, 35)
        assert lattice.parity_label(ParityId(26, StrandClass.LEFT_HANDED)) == "p26,35"

    def test_strand_starts_have_virtual_inputs(self, paper_example_params):
        lattice = HelicalLattice(paper_example_params, size=60)
        assert lattice.input_parity(1, StrandClass.HORIZONTAL) is None
        assert lattice.input_parity(3, StrandClass.RIGHT_HANDED) is None

    def test_output_parities_count(self, any_params):
        lattice = HelicalLattice(any_params, size=30)
        assert len(lattice.output_parities(10)) == any_params.alpha


class TestRepairOptions:
    def test_data_repair_options_have_alpha_entries(self, any_params):
        lattice = HelicalLattice(any_params, size=200)
        options = lattice.data_repair_options(100)
        assert len(options) == any_params.alpha
        for option in options:
            assert option.output_parity.index == 100
            # In the interior the input parity exists.
            assert option.input_parity is not None

    def test_parity_repair_options_interior_has_two(self, hec_params):
        lattice = HelicalLattice(hec_params, size=200)
        options = lattice.parity_repair_options(ParityId(50, StrandClass.HORIZONTAL))
        assert len(options) == 2
        assert options[0].data == DataId(50)
        assert options[1].data == DataId(52)  # j = i + s with s = 2

    def test_parity_repair_options_at_tail_has_one(self, hec_params):
        lattice = HelicalLattice(hec_params, size=52)
        options = lattice.parity_repair_options(ParityId(52, StrandClass.HORIZONTAL))
        assert len(options) == 1  # successor d54 is not encoded yet

    def test_parity_repair_option_rejects_unknown_edge(self, hec_params):
        lattice = HelicalLattice(hec_params, size=10)
        with pytest.raises(LatticeBoundsError):
            lattice.parity_repair_options(ParityId(11, StrandClass.HORIZONTAL))

    @given(
        st.sampled_from([(3, 2, 5), (3, 5, 5), (2, 2, 4), (1, 1, 0), (3, 1, 4)]),
        st.integers(min_value=1, max_value=150),
    )
    @settings(max_examples=100, deadline=None)
    def test_repair_dependencies_reference_existing_blocks(self, spec, index):
        params = AEParameters(*spec)
        lattice = HelicalLattice(params, size=300)
        for option in lattice.data_repair_options(index):
            for parity in option.required_blocks():
                assert lattice.has_block(parity)
        for parity in lattice.output_parities(index):
            for option in lattice.parity_repair_options(parity):
                for block in option.required_blocks():
                    assert lattice.has_block(block)
