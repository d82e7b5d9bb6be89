"""Tests for the experiment runner (Figs. 11-13, Tables IV and VI)."""

from __future__ import annotations

import pytest

from repro.core.parameters import AEParameters
from repro.simulation.experiments import (
    ExperimentConfig,
    costs_table,
    data_loss_experiment,
    placement_balance_report,
    repair_rounds_experiment,
    run_all,
    single_failure_experiment,
    vulnerable_data_experiment,
)
from repro.simulation.metrics import describe_scheme, format_table, scheme_costs
from repro.exceptions import InvalidParametersError

CONFIG = ExperimentConfig.quick(20_000)


def by_scheme(rows, disaster):
    return {
        row["scheme"]: row
        for row in rows
        if row["disaster (%)"] == disaster
    }


class TestTable4:
    def test_costs_table_matches_paper(self):
        rows = {row["scheme"]: row for row in costs_table()}
        assert rows["RS(10,4)"]["additional storage (%)"] == 40.0
        assert rows["RS(4,12)"]["additional storage (%)"] == 300.0
        assert rows["AE(3,2,5)"]["additional storage (%)"] == 300.0
        assert rows["AE(3,2,5)"]["single-failure repair (blocks read)"] == 2
        assert rows["RS(10,4)"]["single-failure repair (blocks read)"] == 10
        assert rows["4-way replication"]["single-failure repair (blocks read)"] == 1

    def test_describe_scheme_validation(self):
        assert describe_scheme(AEParameters.single()).kind == "ae"
        assert describe_scheme("rs-10-4").kind == "rs"
        assert describe_scheme("rep-3").kind == "replication"
        with pytest.raises(InvalidParametersError):
            describe_scheme("rs-0-4")
        with pytest.raises(InvalidParametersError):
            describe_scheme("rep-1")
        with pytest.raises(InvalidParametersError):
            describe_scheme("bogus")


class TestDisasterExperiments:
    def test_fig11_shape_ae_beats_rs_with_same_overhead(self):
        """The paper's headline: AE(3,2,5) loses no more data than RS(4,12)
        (same 300% overhead), and AE(2,2,5) beats 3-way replication."""
        rows = data_loss_experiment(CONFIG)
        for disaster in (30, 50):
            table = by_scheme(rows, disaster)
            assert (
                table["AE(3,2,5)"]["data loss (blocks)"]
                <= table["RS(4,12)"]["data loss (blocks)"] + CONFIG.data_blocks // 1000
            )
            assert (
                table["AE(2,2,5)"]["data loss (blocks)"]
                < table["3-way replication"]["data loss (blocks)"]
            )
            assert (
                table["AE(1,-,-)"]["data loss (blocks)"]
                < table["RS(8,2)"]["data loss (blocks)"]
            )

    def test_fig11_rs55_degrades_from_4way_to_2way(self):
        """RS(5,5) matches 4-way replication at 10% but approaches 2-way at 50%."""
        rows = data_loss_experiment(CONFIG)
        small = by_scheme(rows, 10)
        large = by_scheme(rows, 50)
        assert small["RS(5,5)"]["data loss (blocks)"] <= small["3-way replication"]["data loss (blocks)"]
        assert large["RS(5,5)"]["data loss (blocks)"] > large["3-way replication"]["data loss (blocks)"]

    def test_fig12_ae_keeps_more_data_protected_than_rs(self):
        rows = vulnerable_data_experiment(CONFIG)
        table = by_scheme(rows, 30)
        assert (
            table["AE(3,2,5)"]["vulnerable data (blocks)"]
            < table["RS(10,4)"]["vulnerable data (blocks)"]
        )
        assert (
            table["AE(2,2,5)"]["vulnerable data (blocks)"]
            < table["RS(8,2)"]["vulnerable data (blocks)"]
        )

    def test_fig13_ae_single_failure_fraction_is_high(self):
        rows = single_failure_experiment(CONFIG)
        ae_rows = [row for row in rows if row["scheme"] == "AE(3,2,5)"]
        assert all(row["single failures (% of repairs)"] > 50 for row in ae_rows)
        rs_rows = [row for row in rows if row["scheme"] == "RS(4,12)"]
        fractions = [row["single failures (% of repairs)"] for row in rs_rows]
        assert fractions[0] > fractions[-1]  # decreases with disaster size

    def test_table6_rounds_grow_with_disaster_size(self):
        rows = repair_rounds_experiment(CONFIG)
        assert {row["code"] for row in rows} == {"AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)"}
        for row in rows:
            assert row["10%"] <= row["50%"]
            assert 1 <= row["10%"] <= 40

    def test_placement_balance_report(self):
        rows = placement_balance_report(CONFIG)
        assert rows[0]["scheme"] == "RS(10,4)"
        assert rows[0]["blocks"] == rows[0]["stripes"] * 14

    def test_run_all_returns_every_table(self):
        tables = run_all(ExperimentConfig.quick(5_000))
        assert set(tables) == {
            "table4_costs",
            "fig11_data_loss",
            "fig12_vulnerable_data",
            "fig13_single_failures",
            "table6_repair_rounds",
            "placement_balance",
        }
        for rows in tables.values():
            assert rows


class TestFormatting:
    def test_format_table_alignment(self):
        rows = scheme_costs()
        text = format_table(rows)
        assert "scheme" in text.splitlines()[0]
        assert len(text.splitlines()) == len(rows) + 2

    def test_format_empty(self):
        assert format_table([]) == "(no rows)"
