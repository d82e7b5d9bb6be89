"""Extension bench: analytic (Markov) reliability cross-check of Sec. IV-B1.

Regenerates the entangled-mirror vs mirroring comparison with closed-form
CTMC models and reports MTTDL for the RS settings of Table IV, so the
Monte-Carlo results of ``tests/test_paper_entangled_mirror.py`` have an
independent analytic counterpart.
"""

from __future__ import annotations

from repro.analysis.markov import (
    HOURS_PER_YEAR,
    five_year_loss_table,
    kofn_chain,
    mttdl,
)
from repro.simulation.metrics import format_table

MTTF_HOURS = 50_000.0
MTTR_HOURS = 168.0


def test_five_year_markov_table(benchmark, print_tables):
    rows = benchmark(five_year_loss_table, MTTF_HOURS, MTTR_HOURS, 10)
    by_layout = {row["layout"]: row for row in rows}
    mirror = by_layout["mirroring"]["5-year loss probability"]
    entangled = by_layout["entangled mirror (open chain)"]["5-year loss probability"]
    # Section IV-B1 shape: the open entangled chain cuts the loss probability
    # by a large factor (the paper quotes ~90%).
    assert entangled < 0.5 * mirror
    if print_tables:
        print("\nMarkov 5-year loss probability\n" + format_table(rows))


def test_mttdl_by_rs_setting(benchmark, print_tables):
    def build_rows():
        rows = []
        for k, m in ((10, 4), (8, 2), (5, 5), (4, 12)):
            chain = kofn_chain(k, m, MTTF_HOURS, MTTR_HOURS)
            rows.append(
                {
                    "scheme": f"RS({k},{m})",
                    "tolerated failures": m,
                    "MTTDL (years)": round(mttdl(chain) / HOURS_PER_YEAR, 1),
                }
            )
        return rows

    rows = benchmark(build_rows)
    by_scheme = {row["scheme"]: row for row in rows}
    # More parity means a longer MTTDL; RS(4,12) dominates.
    assert by_scheme["RS(4,12)"]["MTTDL (years)"] > by_scheme["RS(10,4)"]["MTTDL (years)"]
    assert by_scheme["RS(10,4)"]["MTTDL (years)"] > by_scheme["RS(8,2)"]["MTTDL (years)"]
    if print_tables:
        print("\nMTTDL per RS setting (single-stripe chain)\n" + format_table(rows))
