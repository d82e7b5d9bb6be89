"""Tests for the repair bandwidth / I/O accounting model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.repair_cost import (
    RepairCost,
    SchemeRepairModel,
    disaster_traffic_table,
    repair_model_for,
    single_failure_table,
)
from repro.core.parameters import AEParameters
from repro.exceptions import InvalidParametersError
from repro.simulation.metrics import PAPER_SCHEMES


class TestModels:
    def test_ae_single_failure_always_two_reads(self):
        """The paper's headline: single failures cost exactly two block reads
        for every AE setting."""
        for spec in ("AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)", "AE(3,5,5)"):
            model = repair_model_for(AEParameters.parse(spec))
            cost = model.single_failure_cost(4096)
            assert cost.blocks_read == 2
            assert cost.bytes_transferred == 2 * 4096
            assert cost.xor_operations == 1

    def test_rs_single_failure_costs_k_reads(self):
        model = repair_model_for("rs-10-4")
        cost = model.single_failure_cost(4096)
        assert cost.blocks_read == 10
        assert cost.bytes_transferred == 10 * 4096
        assert cost.xor_operations == 9

    def test_replication_repair_is_a_copy(self):
        cost = repair_model_for("rep-3").single_failure_cost(1024)
        assert cost.blocks_read == 1
        assert cost.xor_operations == 0

    def test_degraded_read_equals_single_failure(self):
        model = repair_model_for("rs-6-3")
        assert model.degraded_read_cost(512) == model.single_failure_cost(512)

    def test_invalid_constructions(self):
        with pytest.raises(InvalidParametersError):
            repair_model_for("rs-0-2")
        with pytest.raises(InvalidParametersError):
            repair_model_for("rep-1")
        with pytest.raises(InvalidParametersError):
            SchemeRepairModel(name="x", kind="rs", single_failure_reads=0, storage_overhead=1.0)
        with pytest.raises(InvalidParametersError):
            SchemeRepairModel(name="x", kind="rs", single_failure_reads=2, storage_overhead=-1.0)
        with pytest.raises(InvalidParametersError):
            SchemeRepairModel(
                name="x", kind="ae", single_failure_reads=2, storage_overhead=1.0, rounds_factor=0.5
            )

    def test_invalid_block_size(self):
        with pytest.raises(InvalidParametersError):
            repair_model_for("rs-4-2").single_failure_cost(0)

    def test_repair_model_for_dispatch(self):
        assert repair_model_for("rs-10-4").kind == "rs"
        assert repair_model_for("rep-3").kind == "replication"
        assert repair_model_for(AEParameters.triple(2, 5)).kind == "ae"


class TestDisasterTraffic:
    def test_traffic_scales_with_missing_blocks(self):
        model = repair_model_for(AEParameters.triple(2, 5))
        small = model.disaster_traffic(1_000, 4096)
        large = model.disaster_traffic(10_000, 4096)
        assert large["bytes transferred"] == 10 * small["bytes transferred"]

    def test_zero_missing_blocks(self):
        report = repair_model_for("rs-8-2").disaster_traffic(0, 4096)
        assert report["bytes transferred"] == 0
        assert report["bytes per repaired block"] == 0.0

    def test_rounds_factor_inflates_multi_failure_repairs(self):
        base = repair_model_for(AEParameters.triple(2, 5), expected_rounds=1.0)
        inflated = repair_model_for(AEParameters.triple(2, 5), expected_rounds=3.0)
        without = base.disaster_traffic(1_000, 4096, single_failure_fraction=0.5)
        with_rounds = inflated.disaster_traffic(1_000, 4096, single_failure_fraction=0.5)
        assert with_rounds["bytes transferred"] > without["bytes transferred"]

    def test_fraction_must_be_probability(self):
        with pytest.raises(InvalidParametersError):
            repair_model_for("rs-4-2").disaster_traffic(10, 4096, single_failure_fraction=1.5)

    def test_negative_missing_blocks_rejected(self):
        with pytest.raises(InvalidParametersError):
            repair_model_for("rs-4-2").disaster_traffic(-1, 4096)

    def test_ae_beats_rs_for_single_failure_dominated_disasters(self):
        """Fig. 13's consequence: when most repairs are single failures, AE
        moves far fewer bytes than RS at the same storage overhead."""
        ae = repair_model_for(AEParameters.triple(2, 5))  # 300% overhead
        rs = repair_model_for("rs-4-12")  # 300% overhead
        ae_traffic = ae.disaster_traffic(50_000, 4096, single_failure_fraction=0.9)
        rs_traffic = rs.disaster_traffic(50_000, 4096, single_failure_fraction=0.2)
        assert ae_traffic["bytes transferred"] < rs_traffic["bytes transferred"]


class TestTables:
    def test_single_failure_table_covers_all_schemes(self):
        rows = single_failure_table(PAPER_SCHEMES)
        assert len(rows) == len(PAPER_SCHEMES)
        by_scheme = {row["scheme"]: row for row in rows}
        assert by_scheme["AE(3,2,5)"]["blocks read"] == 2
        assert by_scheme["RS(10,4)"]["blocks read"] == 10
        assert by_scheme["3-way replication"]["blocks read"] == 1

    def test_disaster_traffic_table_uses_measured_inputs(self):
        fractions = {"AE(3,2,5)": 0.95, "RS(4,12)": 0.3}
        rounds = {"AE(3,2,5)": 2.0}
        rows = disaster_traffic_table(
            ["rs-4-12", AEParameters.triple(2, 5)],
            missing_blocks=10_000,
            block_size=4096,
            single_failure_fractions=fractions,
            expected_rounds=rounds,
        )
        by_scheme = {row["scheme"]: row for row in rows}
        assert by_scheme["AE(3,2,5)"]["single-failure repairs"] == 9_500
        assert by_scheme["RS(4,12)"]["single-failure repairs"] == 3_000
        assert (
            by_scheme["AE(3,2,5)"]["bytes transferred"]
            < by_scheme["RS(4,12)"]["bytes transferred"]
        )

    @given(
        st.integers(min_value=1, max_value=100_000),
        st.integers(min_value=1, max_value=1 << 20),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_traffic_accounting_is_consistent(self, missing, block_size, fraction):
        """Property: single + multi repairs always partition the missing blocks
        and traffic is at least reads * block_size per block."""
        model = repair_model_for("rs-6-3")
        report = model.disaster_traffic(missing, block_size, fraction)
        assert report["single-failure repairs"] + report["multi-failure repairs"] == missing
        assert report["bytes transferred"] >= missing * block_size

    def test_repair_cost_row_shape(self):
        cost = RepairCost(
            scheme="x", blocks_read=2, bytes_transferred=8192, xor_operations=1, io_locations=2
        )
        row = cost.as_row()
        assert row["scheme"] == "x"
        assert row["blocks read"] == 2
