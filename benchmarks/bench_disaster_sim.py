"""Scheme-agnostic disaster-simulation engine: throughput + golden equivalence.

Two acceptance checks for the discrete-event engine
(:mod:`repro.simulation.engine`):

1. at fixed seeds the engine reproduces the disaster metrics of the three
   per-scheme models it replaced (AE lattice, RS stripes, replication): the
   hard-coded ``GOLDEN`` numbers below were recorded from those *pre-engine*
   models and anchor the historical behaviour;
2. the event loop stays fast enough for paper-scale runs -- the benchmark
   reports blocks/sec and events/sec.
"""

from __future__ import annotations

import time

from repro.simulation.engine import (
    SimulationEngine,
    sample_disaster_locations,
    simulate_disasters,
)
from repro.simulation.experiments import ExperimentConfig
from repro.simulation.metrics import format_table
from repro.storage.failures import ChurnTrace
from repro.storage.maintenance import MaintenancePolicy

from conftest import bench_blocks

FRACTIONS = (0.10, 0.30, 0.50)

#: Fixed-seed metrics recorded from the pre-engine models (seed 7, 20,000
#: blocks, 100 locations).
GOLDEN = {
    ("ae-3-2-5", 10): dict(data_loss=0, rounds=3, repaired_data=1945),
    ("ae-3-2-5", 30): dict(data_loss=0, rounds=6, repaired_data=5978),
    ("ae-3-2-5", 50): dict(data_loss=20, rounds=16, repaired_data=10023),
    ("rs-10-4", 10): dict(data_loss=67, vulnerable_data=103, blocks_read=12380),
    ("rs-10-4", 30): dict(data_loss=3387, vulnerable_data=4833, blocks_read=11190),
    ("rs-10-4", 50): dict(data_loss=9521, vulnerable_data=8719, blocks_read=1760),
    ("rep-3", 10): dict(data_loss=19, vulnerable_data=495),
    ("rep-3", 30): dict(data_loss=504, vulnerable_data=3705),
    ("rep-3", 50): dict(data_loss=2525, vulnerable_data=7590),
}


def test_engine_matches_pre_refactor_goldens():
    """Engine outcomes equal the recorded pre-engine model metrics."""
    config = _config()
    for (scheme_id, percent), expected in GOLDEN.items():
        offset = {10: 0, 30: 2, 50: 4}[percent]
        failed = sample_disaster_locations(
            config.location_count, percent / 100.0, config.seed, offset
        )
        engine = SimulationEngine(
            scheme_id, config.data_blocks, config.location_count, config.seed
        )
        policy = (
            MaintenancePolicy.FULL
            if scheme_id.startswith("ae")
            else MaintenancePolicy.MINIMAL
        )
        outcome = engine.run_outcome(failed, policy=policy)
        for metric, value in expected.items():
            assert getattr(outcome, metric) == value, (scheme_id, percent, metric)


def _config() -> ExperimentConfig:
    # Equivalence is asserted at a fixed reduced scale so the check is exact
    # and fast; the throughput benchmark below uses REPRO_BENCH_BLOCKS.
    return ExperimentConfig.quick(20_000)


def test_engine_throughput(print_tables):
    """Events/sec and blocks/sec of the engine across scheme families."""
    blocks = min(bench_blocks(), 200_000)
    rows = []
    for scheme_id in ("ae-3-2-5", "rs-10-4", "rep-3", "lrc-azure", "xor-geo"):
        engine = SimulationEngine(scheme_id, blocks, 100, seed=7)
        started = time.perf_counter()
        events = 0
        for offset, fraction in enumerate(FRACTIONS):
            engine.run_disaster(sample_disaster_locations(100, fraction, 7, offset))
            events += 1
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "scheme": engine.scheme_name,
                "blocks": blocks,
                "events/sec": round(events / elapsed, 2),
                "blocks/sec": int(events * blocks / elapsed),
            }
        )
        # The availability-only engine must stay far above any byte-level
        # simulation: at least one full-population disaster per 30 s.
        assert events / elapsed > 0.1
    if print_tables:
        print("\nEngine throughput (disaster events over full populations)\n" + format_table(rows))


def test_engine_covers_every_registered_family(print_tables):
    """The acceptance matrix: six schemes, 10-50% disasters, metrics produced."""
    scheme_ids = ("ae-3-2-5", "rs-10-4", "rep-3", "lrc-azure", "lrc-xorbas", "xor-geo")
    results = simulate_disasters(
        scheme_ids, data_blocks=5_000, location_count=50, seed=7,
        fractions=(0.10, 0.30, 0.50),
    )
    assert len(results) == len(scheme_ids) * 3
    for metrics in results:
        assert 0 <= metrics.data_loss <= metrics.data_blocks
        assert 0 <= metrics.vulnerable_data <= metrics.data_blocks
    if print_tables:
        print("\nScheme-agnostic disaster metrics\n"
              + format_table([metrics.as_row() for metrics in results]))


def test_engine_churn_event_loop(print_tables):
    """The event loop replays churn traces with arrivals restoring data."""
    trace = ChurnTrace.poisson(50, 20, departure_rate=0.1, return_rate=0.5, seed=11)
    engine = SimulationEngine("rs-10-4", 5_000, 50, seed=7)
    run = engine.run_events(trace)
    assert len(run.steps) == len(trace.events)
    assert 0.0 <= run.min_availability <= run.mean_availability <= 1.0
    if print_tables:
        print("\nChurn replay (rs-10-4)\n" + format_table([run.as_row()]))
