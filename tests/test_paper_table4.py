"""Table IV: additional storage and single-failure repair cost per scheme.

The analytic table must print the paper's values, and the live store must
measure them: every scheme writes one workload, loses one data block and
repairs it through its real decode path, reading exactly the analytic count.
"""

from __future__ import annotations

from repro.simulation.experiments import costs_table
from repro.system.compare import compare_schemes

#: The paper's Table IV: (additional storage %, blocks read per single failure).
TABLE4 = {
    "RS(10,4)": (40.0, 10),
    "RS(8,2)": (25.0, 8),
    "RS(5,5)": (100.0, 5),
    "RS(4,12)": (300.0, 4),
    "AE(1,-,-)": (100.0, 2),
    "AE(2,2,5)": (200.0, 2),
    "AE(3,2,5)": (300.0, 2),
    "2-way replication": (100.0, 1),
    "3-way replication": (200.0, 1),
    "4-way replication": (300.0, 1),
}


def test_table4_scheme_costs():
    table = {
        row["scheme"]: (
            row["additional storage (%)"],
            row["single-failure repair (blocks read)"],
        )
        for row in costs_table()
    }
    assert table == TABLE4


def test_table4_measured_repair_reads_match_analytics():
    """Single-failure repair reads measured on the live compare path.

    The same workload is written through every scheme's ``StorageService``,
    one data block is masked from the block source and repaired through the
    scheme's real decode path; the measured read count must equal the
    analytic ``CodeCosts`` row for single failures (AE reads 2 blocks
    regardless of the setting, RS(k,m) reads k, LRC reads its local group,
    replication reads one copy).
    """
    results = compare_schemes(
        ("ae-3-2-5", "ae-2-2-5", "rs-10-4", "rs-8-2", "lrc-azure",
         "lrc-xorbas", "rep-3", "xor-geo"),
        data_blocks=120,
        block_size=512,
        topology=50,
        fail_locations=2,
        seed=11,
    )
    for result in results:
        assert result.measured_single_failure_reads == result.analytic.single_failure_cost, (
            result.scheme_id,
            result.measured_single_failure_reads,
            result.analytic.single_failure_cost,
        )
        assert abs(
            result.measured_storage_percent - result.analytic.additional_storage_percent
        ) < 0.1, (result.scheme_id, result.measured_storage_percent)
