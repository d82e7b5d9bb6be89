"""Extension bench: byte-level repair bandwidth per scheme.

Quantifies the claim behind Fig. 13 and Table IV: AE codes repair any single
failure with two block reads while RS(k, m) needs ``k``, so the repair traffic
after a disaster differs by a large factor at equal storage overhead.
"""

from __future__ import annotations

from repro.analysis.repair_cost import disaster_traffic_table, single_failure_table
from repro.core.parameters import AEParameters
from repro.simulation.metrics import PAPER_SCHEMES, format_table

BLOCK_SIZE = 4096
MISSING_BLOCKS = 100_000


def test_single_failure_repair_costs(benchmark, print_tables):
    rows = benchmark(single_failure_table, PAPER_SCHEMES, BLOCK_SIZE)
    by_scheme = {row["scheme"]: row for row in rows}
    assert by_scheme["AE(3,2,5)"]["blocks read"] == 2
    assert by_scheme["RS(10,4)"]["blocks read"] == 10
    # At equal overhead (300%), AE reads 2 blocks where RS(4,12) reads 4.
    assert by_scheme["AE(3,2,5)"]["blocks read"] < by_scheme["RS(4,12)"]["blocks read"]
    if print_tables:
        print("\nSingle-failure repair cost\n" + format_table(rows))


def test_disaster_repair_traffic(benchmark, print_tables):
    """Traffic to repair 100k missing blocks, using Fig. 13-like single-failure
    fractions (high for AE, low for RS in small disasters)."""
    fractions = {
        "AE(1,-,-)": 0.95,
        "AE(2,2,5)": 0.97,
        "AE(3,2,5)": 0.98,
        "RS(10,4)": 0.35,
        "RS(8,2)": 0.35,
        "RS(5,5)": 0.35,
        "RS(4,12)": 0.35,
    }
    rounds = {"AE(1,-,-)": 1.6, "AE(2,2,5)": 1.3, "AE(3,2,5)": 1.2}
    rows = benchmark(
        disaster_traffic_table,
        PAPER_SCHEMES,
        MISSING_BLOCKS,
        BLOCK_SIZE,
        fractions,
        rounds,
    )
    by_scheme = {row["scheme"]: row for row in rows}
    # The paper's shape: every AE setting moves less repair traffic than every
    # RS setting, because single failures dominate and cost a fixed 2 reads.
    ae_max = max(
        by_scheme[name]["bytes transferred"]
        for name in ("AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)")
    )
    rs_min = min(
        by_scheme[name]["bytes transferred"]
        for name in ("RS(10,4)", "RS(8,2)", "RS(5,5)", "RS(4,12)")
    )
    assert ae_max < rs_min
    if print_tables:
        print("\nDisaster repair traffic (100k missing blocks)\n" + format_table(rows))
