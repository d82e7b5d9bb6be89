"""Tests for the churn simulator (repro.simulation.churn)."""

from __future__ import annotations

import pytest

from repro.core.parameters import AEParameters
from repro.exceptions import InvalidParametersError
from repro.simulation.churn import (
    ChurnConfig,
    ChurnResult,
    ChurnSimulator,
    availability_nines,
    compare_schemes_under_churn,
)
from repro.simulation.engine import StepMetrics
from repro.simulation.traces import NodeSession, SessionTrace, p2p_session_trace


def flat_trace(node_count: int = 30, horizon: float = 48.0) -> SessionTrace:
    """Every node online for the whole horizon."""
    sessions = [
        NodeSession(node=node, start=0.0, end=horizon) for node in range(node_count)
    ]
    return SessionTrace(node_count=node_count, horizon_hours=horizon, sessions=sessions)


def one_down_trace(node_count: int = 30, horizon: float = 48.0) -> SessionTrace:
    """Node 0 is offline for the second half of the horizon."""
    sessions = [NodeSession(node=0, start=0.0, end=horizon / 2)]
    sessions += [
        NodeSession(node=node, start=0.0, end=horizon) for node in range(1, node_count)
    ]
    return SessionTrace(node_count=node_count, horizon_hours=horizon, sessions=sessions)


class TestNines:
    def test_values(self):
        assert availability_nines(0.9) == pytest.approx(1.0)
        assert availability_nines(0.999) == pytest.approx(3.0)
        assert availability_nines(1.0) == 9.0
        assert availability_nines(0.0) == pytest.approx(0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParametersError):
            availability_nines(1.5)
        with pytest.raises(InvalidParametersError):
            availability_nines(-0.1)


class TestConfigAndSamples:
    def test_config_validation(self):
        with pytest.raises(InvalidParametersError):
            ChurnConfig(data_blocks=0)
        with pytest.raises(InvalidParametersError):
            ChurnConfig(sample_every_hours=0.0)

    def test_sample_availability(self):
        sample = StepMetrics(
            time=0.0, offline_locations=2, unavailable_data=50, data_blocks=1000
        )
        assert sample.availability == pytest.approx(0.95)
        empty = StepMetrics(0.0, 0, 0, 0)
        assert empty.availability == 1.0

    def test_result_summaries(self):
        result = ChurnResult(
            scheme="test",
            storage_overhead_percent=100.0,
            samples=[
                StepMetrics(0.0, 0, 0, 100),
                StepMetrics(6.0, 1, 10, 100),
                StepMetrics(12.0, 1, 10, 100),
            ],
            final_data_loss=0,
        )
        assert result.data_blocks == 100
        assert result.min_availability == pytest.approx(0.9)
        assert result.mean_availability == pytest.approx((1.0 + 0.9 + 0.9) / 3)
        # Outage integral: 0 * 6h + 10 * 6h.
        assert result.unavailability_block_hours == pytest.approx(60.0)
        row = result.as_row()
        assert row["scheme"] == "test"

    def test_empty_result_defaults(self):
        result = ChurnResult(scheme="x", storage_overhead_percent=0.0)
        assert result.mean_availability == 1.0
        assert result.min_availability == 1.0
        assert result.unavailability_block_hours == 0.0
        assert result.data_blocks == 0


class TestSimulator:
    CONFIG = ChurnConfig(data_blocks=2_000, sample_every_hours=12.0, seed=1)

    def test_perfect_trace_gives_full_availability(self):
        simulator = ChurnSimulator(flat_trace(), self.CONFIG)
        for spec in (AEParameters.triple(2, 5), "rs-8-2", "rep-3"):
            result = simulator.run(spec)
            assert result.mean_availability == 1.0
            assert result.final_data_loss == 0

    def test_single_offline_node_is_mostly_tolerated(self):
        simulator = ChurnSimulator(one_down_trace(), self.CONFIG)
        for spec in (AEParameters.triple(2, 5), "rs-8-2", "rep-3"):
            result = simulator.run(spec)
            # One missing location out of 30 leaves at most a tiny unlucky
            # residue (blocks whose repair inputs landed on the same location).
            assert result.min_availability > 0.99

    def test_churny_trace_ranks_schemes_by_redundancy(self):
        """Under heavy churn, AE(3,2,5) must not be less available than AE(1)."""
        trace = p2p_session_trace(
            40, 240.0, mean_session_hours=8.0, mean_downtime_hours=8.0, seed=21
        )
        simulator = ChurnSimulator(trace, ChurnConfig(data_blocks=2_000, seed=2))
        weak = simulator.run(AEParameters.single())
        strong = simulator.run(AEParameters.triple(2, 5))
        assert strong.mean_availability >= weak.mean_availability
        assert strong.unavailability_block_hours <= weak.unavailability_block_hours

    def test_erasure_codes_beat_replication_at_equal_overhead(self):
        """The Blake & Rodrigues / combinatorial-effect shape: when peers are
        reasonably available, codes with 100% overhead (RS(5,5), AE(2,2,5))
        beat 2-way replication (also 100% overhead)."""
        trace = p2p_session_trace(
            50, 240.0, mean_session_hours=18.0, mean_downtime_hours=6.0, seed=13
        )
        simulator = ChurnSimulator(trace, ChurnConfig(data_blocks=2_000, seed=3))
        replication2 = simulator.run("rep-2")
        rs55 = simulator.run("rs-5-5")
        ae2 = simulator.run(AEParameters.double(2, 5))
        assert rs55.mean_availability >= replication2.mean_availability
        assert ae2.mean_availability >= replication2.mean_availability

    def test_run_many_and_compare(self):
        trace = p2p_session_trace(30, 96.0, seed=5)
        config = ChurnConfig(data_blocks=1_000, sample_every_hours=24.0, seed=4)
        rows = compare_schemes_under_churn(trace, [AEParameters.single(), "rs-5-5", "rep-2"], config)
        assert len(rows) == 3
        schemes = {row["scheme"] for row in rows}
        assert schemes == {"AE(1,-,-)", "RS(5,5)", "2-way replication"}
        for row in rows:
            assert 0.0 <= row["mean availability"] <= 1.0
            assert row["data loss at end"] >= 0
