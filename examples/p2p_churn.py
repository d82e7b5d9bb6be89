#!/usr/bin/env python3
"""Peer-to-peer churn: availability of AE codes vs RS and replication.

The paper's motivating environment is a cooperative storage network whose
nodes join and leave continuously (Sec. IV-A and V-C).  This example builds a
synthetic peer-availability trace, replays it over the availability models of
several redundancy schemes and prints, per scheme, the achieved availability
(in nines), the outage volume and the data that would be lost if the nodes
offline at the end never came back.

Run with::

    python examples/p2p_churn.py
"""

from __future__ import annotations

from repro.core.parameters import AEParameters
from repro.simulation.churn import ChurnConfig, ChurnSimulator
from repro.simulation.metrics import format_table
from repro.simulation.traces import TraceStatistics, p2p_session_trace


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A community of 50 peers, observed for ten days.  Sessions last
    #    ~18 hours, downtimes ~6 hours, and 5% of departures are permanent.
    # ------------------------------------------------------------------
    trace = p2p_session_trace(
        node_count=50,
        horizon_hours=240.0,
        mean_session_hours=18.0,
        mean_downtime_hours=6.0,
        permanent_departure_probability=0.05,
        seed=42,
    )
    print("peer availability trace")
    print(format_table([TraceStatistics.of(trace).as_row()]))

    # ------------------------------------------------------------------
    # 2. Replay the trace over the schemes of Table IV (plus replication).
    # ------------------------------------------------------------------
    schemes = [
        AEParameters.single(),
        AEParameters.double(2, 5),
        AEParameters.triple(2, 5),
        "rs-10-4",
        "rs-5-5",
        "rs-4-12",
        "rep-2",
        "rep-3",
    ]
    simulator = ChurnSimulator(
        trace, ChurnConfig(data_blocks=10_000, sample_every_hours=12.0, seed=1)
    )
    results = simulator.run_many(schemes)
    print("\navailability under churn (10,000 data blocks)")
    print(format_table([result.as_row() for result in results]))

    # ------------------------------------------------------------------
    # 3. The headline comparisons.
    # ------------------------------------------------------------------
    by_scheme = {result.scheme: result for result in results}
    ae = by_scheme["AE(2,2,5)"]
    replication = by_scheme["2-way replication"]
    print("\nat ~100-200% additional storage:")
    print(f"  AE(2,2,5)          : {ae.mean_nines:.2f} nines, "
          f"{ae.final_data_loss} blocks lost if the final offline set never returns")
    print(f"  2-way replication  : {replication.mean_nines:.2f} nines, "
          f"{replication.final_data_loss} blocks lost")
    strongest = max(results, key=lambda result: result.mean_nines)
    print(f"\nmost available scheme on this trace: {strongest.scheme} "
          f"({strongest.mean_nines:.2f} nines)")


if __name__ == "__main__":
    main()
