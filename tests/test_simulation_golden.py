"""Golden evaluation output: Figs. 11-13, Table VI, churn, event timelines.

The digests below were recorded on the commit *before* the evaluation half was
put on one set of rails (PR 23's parent, ``00fec1e``): one timeline replay and
one sampling loop under ``run_events`` / ``ChurnSimulator.run``, one scheme x
disaster sweep under the four Sec. V-C experiments, and Tables I / II
tabulated once for ``plan_round`` and ``LatticeSimulation``.  They pin what
that change had to keep: every row of every table, every step of every
timeline, bit for bit.

Each section is the sha256 of the JSON of its rows (ints and floats enter
through ``repr``, so a last-digit float drift fails too).  Records are read
field by field rather than through ``dataclasses.asdict`` wherever the change
was allowed to merge or extend a record, so the digests do not depend on the
name or the extra fields of a step record.  ``PYTHONPATH=src:. python
tests/test_simulation_golden.py`` prints the table (record on the parent of a
change to ``repro.simulation`` or ``repro.core.rules`` only, never to make a
failing test pass).

Two digests were re-recorded on purpose since: ``sweep_budget`` and
``sweep_topology`` hash each row's ``blocks_read``, which for the AE lattice
now counts the distinct blocks the picked tuples read over a run (the
store's count) instead of two per repair.  Only those AE ``blocks_read``
cells moved; no figure or table of the paper reads them, and every data
loss, vulnerable-data, round and repair count is the recorded one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.simulation.churn import ChurnConfig, ChurnSimulator
from repro.simulation.engine import SimulationEngine, simulate_disasters
from repro.simulation.experiments import ExperimentConfig, run_all
from repro.simulation.traces import datacenter_disk_trace, p2p_session_trace
from repro.storage.failures import ChurnTrace
from repro.storage.maintenance import MaintenanceBudget, MaintenancePolicy

SWEEP_SCHEMES = ["ae-3-2-5", "ae-3-2-5-p75", "rs-10-4", "lrc-azure", "rep-3"]
#: The timeline sections take ``xor-geo`` as their pattern-path stripe code:
#: ``lrc-azure`` answers every unique failure pattern with a GF(256) rank
#: (``gf_pivot_rows``, ~160 us a pattern), which still adds up to seconds
#: per sampled instant.
TIMELINE_SCHEMES = ["ae-1", "ae-2-2-5", "ae-3-2-5", "ae-3-2-5-p75", "rs-10-4", "rs-5-5", "xor-geo", "rep-2", "rep-3"]


def _plain(value: object) -> object:
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON serialisable: {value!r}")


def _digest(rows: object) -> str:
    return hashlib.sha256(json.dumps(rows, default=_plain).encode("utf-8")).hexdigest()


def _experiments() -> Dict[str, object]:
    return dict(run_all(ExperimentConfig.quick(20_000)))


def _sweep_budget() -> object:
    budget = MaintenanceBudget(max_repairs_per_round=150, max_rounds=3)
    rows = []
    for policy in (MaintenancePolicy.FULL, MaintenancePolicy.MINIMAL):
        results = simulate_disasters(
            SWEEP_SCHEMES, data_blocks=2_000, location_count=50, seed=7,
            fractions=(0.10, 0.30, 0.50), policy=policy, budget=budget,
        )
        rows.append([[dataclasses.asdict(m), m.as_row()] for m in results])
    return rows


def _sweep_topology() -> object:
    results = simulate_disasters(
        SWEEP_SCHEMES, data_blocks=2_000, seed=7, topology="sites=4,nodes=10",
        fractions=(0.20, "site:0", 0.40, "site:3"),
    )
    return [[dataclasses.asdict(m), m.as_row()] for m in results]


def _churn(trace, sample_every_hours: float) -> object:
    config = ChurnConfig(data_blocks=3_000, sample_every_hours=sample_every_hours, seed=5)
    simulator = ChurnSimulator(trace, config)
    rows = []
    for result in simulator.run_many(TIMELINE_SCHEMES):
        samples = [
            [s.offline_locations, s.unavailable_data, s.data_blocks, s.availability]
            for s in result.samples
        ]
        rows.append([result.as_row(), result.final_data_loss, samples])
    return rows


def _churn_p2p() -> object:
    return _churn(p2p_session_trace(40, horizon_hours=48, seed=17), 4.0)


def _churn_datacenter() -> object:
    return _churn(datacenter_disk_trace(40, horizon_hours=480, mttf_hours=400.0, seed=23), 12.0)


def _run_events() -> object:
    trace = ChurnTrace.poisson(40, 30, 0.08, 0.25, seed=3)
    rows = []
    for scheme_id in TIMELINE_SCHEMES:
        for policy in MaintenancePolicy:
            run = SimulationEngine(scheme_id, 3_000, 40, seed=9, policy=policy).run_events(trace)
            steps = [
                [s.time, s.offline_locations, s.unavailable_data, s.data_blocks, s.availability]
                for s in run.steps
            ]
            rows.append([scheme_id, policy.value, run.as_row(), steps])
    budgeted = SimulationEngine(
        "ae-3-2-5", 3_000, 40, seed=9, budget=MaintenanceBudget(max_repairs_per_round=40, max_rounds=2)
    ).run_events(trace)
    rows.append([budgeted.as_row(), [s.unavailable_data for s in budgeted.steps]])
    return rows


SECTIONS: Dict[str, Callable[[], object]] = {
    "sweep_budget": _sweep_budget,
    "sweep_topology": _sweep_topology,
    "churn_p2p": _churn_p2p,
    "churn_datacenter": _churn_datacenter,
    "run_events": _run_events,
}


EXPERIMENT_TABLES = (
    "table4_costs",
    "fig11_data_loss",
    "fig12_vulnerable_data",
    "fig13_single_failures",
    "table6_repair_rounds",
    "placement_balance",
)

GOLDEN: Dict[str, str] = {
    'table4_costs': '7da8faeae1e831cec9452b3ccde71eb5768fc2f48534625928994df066a11edc',
    'fig11_data_loss': 'a8930d0f2b6ce6f2e2245483cb21da3bc8a93042e4c1c374081f8ec6bd612efe',
    'fig12_vulnerable_data': '898eb96a58814b847eee1d7c32186f81238467a593fe867012bd8e3a98d84f93',
    'fig13_single_failures': '11534c6d4d56edf8edca32e8c3f55bf6b7b1656972a16d0a06b8ff2481d0d322',
    'table6_repair_rounds': 'e219fb31ec00e63b6b34c04fe9701554fea5dfaa7285b9f05b39255e4ea2680d',
    'placement_balance': 'ae8b20d800e6f9a587d69cd453a1ce5110927f074f653eef83541b7bf53ff408',
    'sweep_budget': '1873c0f54ff24ab4bfb519d8a3dee7261827be3463d9fd423825a9112473dfe9',
    'sweep_topology': 'c1e04bd20bcb8b063457568055c50abe3fa195b50a433bc67cf20feeefab9ad7',
    'churn_p2p': '82a547d5834f3fbde7e8a805218e9f8e9ee7ebce232fb10b93c4d07083d5e65f',
    'churn_datacenter': '1c20c7a9b3cd2b6538b9ae99103e958056b921fdadaa4fec3bca0b77d19460c1',
    'run_events': '2b46f4b5215354ba07a2decbc2dd9b6829ff1cc0b477703d9c0bf40b1a2e97f8',
}

#: A few cells in the clear, so a failing digest can be read against numbers.
TABLE6_GOLDEN: List[Dict[str, object]] = [
    {'code': 'AE(1,-,-)', '10%': 4, '20%': 6, '30%': 6, '40%': 7, '50%': 9},
    {'code': 'AE(2,2,5)', '10%': 3, '20%': 7, '30%': 7, '40%': 12, '50%': 28},
    {'code': 'AE(3,2,5)', '10%': 3, '20%': 4, '30%': 6, '40%': 8, '50%': 16},
]


@pytest.fixture(scope="module")
def experiments() -> Dict[str, object]:
    return _experiments()


@pytest.mark.parametrize("table", EXPERIMENT_TABLES)
def test_experiment_table_is_unchanged(experiments, table: str) -> None:
    assert _digest(experiments[table]) == GOLDEN[table]


def test_table6_rows_in_the_clear(experiments) -> None:
    assert experiments["table6_repair_rounds"] == TABLE6_GOLDEN


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_section_is_unchanged(section: str) -> None:
    assert _digest(SECTIONS[section]()) == GOLDEN[section]


if __name__ == "__main__":  # pragma: no cover - recording helper
    tables = _experiments()
    print("GOLDEN: Dict[str, str] = {")
    for table in EXPERIMENT_TABLES:
        print(f"    {table!r}: {_digest(tables[table])!r},")
    for section, build in SECTIONS.items():
        print(f"    {section!r}: {_digest(build())!r},")
    print("}\n")
    print(f"TABLE6_GOLDEN: List[Dict[str, object]] = {tables['table6_repair_rounds']!r}")
