"""Extension bench: availability under p2p churn (the paper's motivating setting).

Replays a synthetic peer-availability trace over the scheme models and
reports mean availability (in nines), outage block-hours and the data that
would be lost if the trace's final offline set never returned.  The shape to
reproduce is the combinatorial-effect argument of Sec. V-C: at equal storage
overhead, coded schemes reach far more nines than replication when peers are
reasonably available.
"""

from __future__ import annotations

import os

from repro.core.parameters import AEParameters
from repro.simulation.churn import ChurnConfig, ChurnSimulator
from repro.simulation.metrics import format_table
from repro.simulation.traces import TraceStatistics, p2p_session_trace

NODES = 40
HORIZON_HOURS = 240.0
DATA_BLOCKS = int(os.environ.get("REPRO_BENCH_CHURN_BLOCKS", "5000"))

SCHEMES = (
    AEParameters.single(),
    AEParameters.double(2, 5),
    AEParameters.triple(2, 5),
    "rs-8-2",
    "rs-5-5",
    "rep-2",
    "rep-3",
)


def run_churn_comparison():
    trace = p2p_session_trace(
        NODES,
        HORIZON_HOURS,
        mean_session_hours=18.0,
        mean_downtime_hours=6.0,
        seed=17,
    )
    simulator = ChurnSimulator(
        trace, ChurnConfig(data_blocks=DATA_BLOCKS, sample_every_hours=12.0, seed=1)
    )
    return trace, [result for result in simulator.run_many(SCHEMES)]


def test_churn_availability(benchmark, print_tables):
    trace, results = benchmark(run_churn_comparison)
    by_scheme = {result.scheme: result for result in results}
    # Equal-overhead comparison (100%): the coded schemes beat 2-way replication.
    assert by_scheme["RS(5,5)"].mean_availability >= by_scheme["2-way replication"].mean_availability
    assert by_scheme["AE(2,2,5)"].mean_availability >= by_scheme["2-way replication"].mean_availability
    # More entanglement never hurts availability.
    assert by_scheme["AE(3,2,5)"].mean_availability >= by_scheme["AE(1,-,-)"].mean_availability
    if print_tables:
        print("\nTrace statistics\n" + format_table([TraceStatistics.of(trace).as_row()]))
        print("\nAvailability under churn\n" + format_table([r.as_row() for r in results]))
