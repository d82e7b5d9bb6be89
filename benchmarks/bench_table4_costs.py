"""Table IV: additional storage and single-failure repair cost per scheme."""

from __future__ import annotations

from repro.simulation.experiments import costs_table
from repro.simulation.metrics import format_table


def test_table4_scheme_costs(benchmark, print_tables):
    rows = benchmark(costs_table)
    table = {row["scheme"]: row for row in rows}
    # Sanity of the regenerated table (the paper's Table IV rows).
    assert table["RS(10,4)"]["additional storage (%)"] == 40.0
    assert table["RS(8,2)"]["additional storage (%)"] == 25.0
    assert table["RS(5,5)"]["additional storage (%)"] == 100.0
    assert table["RS(4,12)"]["additional storage (%)"] == 300.0
    assert table["AE(1,-,-)"]["single-failure repair (blocks read)"] == 2
    assert table["AE(3,2,5)"]["single-failure repair (blocks read)"] == 2
    if print_tables:
        print("\nTable IV - redundancy scheme costs\n" + format_table(rows))


def test_table4_measured_repair_reads_match_analytics(print_tables):
    """Single-failure repair reads measured on the live compare path.

    The same workload is written through every scheme's ``StorageService``,
    one data block is masked from the block source and repaired through the
    scheme's real decode path; the measured read count must equal the
    analytic ``CodeCosts`` row for single failures (AE reads 2 blocks
    regardless of the setting, RS(k,m) reads k, LRC reads its local group,
    replication reads one copy).
    """
    from repro.system.compare import compare_schemes

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
    if print_tables:
        print(
            "\nTable IV - measured (live compare path) vs analytic\n"
            + format_table([result.as_row() for result in results])
        )
