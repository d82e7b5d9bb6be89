"""Experiment runner for the disaster-recovery evaluation (Figs. 11-13, Tables IV & VI).

Each experiment follows the paper's setup:

* one million synthetically generated data blocks (configurable through
  ``scale`` so tests and quick runs stay fast);
* the corresponding encoded blocks for every redundancy scheme;
* blocks distributed over ``n = 100`` storage locations with random placement;
* disasters that take 10% to 50% of the locations offline at once;
* the repair process then rebuilds what it can, and the metrics are collected.

Every experiment routes through the scheme-agnostic
:class:`~repro.simulation.engine.SimulationEngine`, so the scheme lists below
are plain registry identifiers -- add ``"lrc-azure"`` or ``"xor-geo"`` to a
list (or call :func:`repro.simulation.engine.simulate_disasters` directly)
and the same experiment covers schemes the paper never plotted.  The
experiment functions return plain lists of dictionaries (one per table row),
so they can be printed with :func:`repro.simulation.metrics.format_table`,
asserted against in tests and re-used by the benchmark harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.parameters import AEParameters
from repro.exceptions import InvalidParametersError
from repro.simulation.engine import (
    SimulationEngine,
    sample_disaster_locations,
)
from repro.simulation.metrics import scheme_costs, scheme_id_for
from repro.storage.maintenance import MaintenancePolicy

#: Disaster sizes used throughout the paper.
DISASTER_FRACTIONS: Tuple[float, ...] = (0.10, 0.20, 0.30, 0.40, 0.50)

#: The redundancy schemes of the main comparison (Figs. 11 and 12).
RS_SETTINGS: Tuple[Tuple[int, int], ...] = ((10, 4), (8, 2), (5, 5), (4, 12))
AE_SETTINGS: Tuple[AEParameters, ...] = (
    AEParameters.single(),
    AEParameters.double(2, 5),
    AEParameters.triple(2, 5),
)
REPLICATION_FACTORS: Tuple[int, ...] = (2, 3, 4)

#: Schemes of the single-failure study (Fig. 13).
FIG13_SCHEMES: Tuple[str, ...] = ("RS(4,12)", "AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)")


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration of the disaster experiments."""

    data_blocks: int = 1_000_000
    location_count: int = 100
    seed: int = 7
    disaster_fractions: Tuple[float, ...] = DISASTER_FRACTIONS

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """The paper's setup: one million data blocks over 100 locations."""
        return cls()

    @classmethod
    def quick(cls, data_blocks: int = 50_000) -> "ExperimentConfig":
        """A reduced-scale configuration for tests and fast benchmark runs."""
        return cls(data_blocks=data_blocks)

    def scaled(self, data_blocks: int) -> "ExperimentConfig":
        return ExperimentConfig(
            data_blocks=data_blocks,
            location_count=self.location_count,
            seed=self.seed,
            disaster_fractions=self.disaster_fractions,
        )


def sample_disaster(
    config: ExperimentConfig, fraction: float, offset: int = 0
) -> np.ndarray:
    """Locations taken down by a disaster of the given size."""
    if not 0.0 <= fraction <= 1.0:
        raise InvalidParametersError("disaster fraction must lie in [0, 1]")
    return sample_disaster_locations(
        config.location_count, fraction, config.seed, offset
    )


# ----------------------------------------------------------------------
# Engine construction helpers
# ----------------------------------------------------------------------
def _engines(
    config: ExperimentConfig, scheme_ids: Sequence[str]
) -> List[SimulationEngine]:
    """One engine (placement built once, reused across fractions) per scheme."""
    return [
        SimulationEngine(
            scheme_id, config.data_blocks, config.location_count, config.seed
        )
        for scheme_id in scheme_ids
    ]


def _comparison_scheme_ids() -> List[str]:
    """The Figs. 11/12 comparison set, in the historical row order."""
    ids = [f"rs-{k}-{m}" for k, m in RS_SETTINGS]
    ids.extend(scheme_id_for(params) for params in AE_SETTINGS)
    ids.extend(f"rep-{copies}" for copies in REPLICATION_FACTORS)
    return ids


# ----------------------------------------------------------------------
# Figure 11: data loss after repairs
# ----------------------------------------------------------------------
def data_loss_experiment(
    config: Optional[ExperimentConfig] = None,
) -> List[Dict[str, object]]:
    """Data blocks the decoder failed to repair, per scheme and disaster size."""
    config = config or ExperimentConfig.quick()
    engines = _engines(config, _comparison_scheme_ids())
    rows: List[Dict[str, object]] = []
    for offset, fraction in enumerate(config.disaster_fractions):
        failed = sample_disaster(config, fraction, offset)
        for engine in engines:
            metrics = engine.run_disaster(failed, disaster_fraction=fraction)
            rows.append(
                _row(metrics.scheme, fraction, config, data_loss=metrics.data_loss)
            )
    return rows


# ----------------------------------------------------------------------
# Figure 12: vulnerable data under minimal maintenance
# ----------------------------------------------------------------------
def vulnerable_data_experiment(
    config: Optional[ExperimentConfig] = None,
) -> List[Dict[str, object]]:
    """Data blocks left without redundancy after minimal-maintenance repairs."""
    config = config or ExperimentConfig.quick()
    engines = _engines(config, _comparison_scheme_ids())
    rows: List[Dict[str, object]] = []
    for offset, fraction in enumerate(config.disaster_fractions):
        failed = sample_disaster(config, fraction, offset)
        for engine in engines:
            metrics = engine.run_disaster(
                failed, disaster_fraction=fraction, policy=MaintenancePolicy.MINIMAL
            )
            rows.append(
                _row(
                    metrics.scheme,
                    fraction,
                    config,
                    vulnerable=metrics.vulnerable_data,
                )
            )
    return rows


# ----------------------------------------------------------------------
# Figure 13: single-failure repairs
# ----------------------------------------------------------------------
def single_failure_experiment(
    config: Optional[ExperimentConfig] = None,
) -> List[Dict[str, object]]:
    """Share of repairs that were single-failure repairs (RS(4,12) vs AE codes)."""
    config = config or ExperimentConfig.quick()
    scheme_ids = ["rs-4-12"] + [scheme_id_for(params) for params in AE_SETTINGS]
    engines = _engines(config, scheme_ids)
    rows: List[Dict[str, object]] = []
    for offset, fraction in enumerate(config.disaster_fractions):
        failed = sample_disaster(config, fraction, offset)
        for engine in engines:
            metrics = engine.run_disaster(failed, disaster_fraction=fraction)
            rows.append(
                {
                    "scheme": metrics.scheme,
                    "disaster (%)": int(round(fraction * 100)),
                    "single failures (% of repairs)": round(
                        metrics.single_failure_fraction * 100.0, 1
                    ),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Table VI: repair rounds
# ----------------------------------------------------------------------
def repair_rounds_experiment(
    config: Optional[ExperimentConfig] = None,
) -> List[Dict[str, object]]:
    """Number of repair rounds needed by each AE setting per disaster size."""
    config = config or ExperimentConfig.quick()
    engines = _engines(config, [scheme_id_for(params) for params in AE_SETTINGS])
    rows: List[Dict[str, object]] = []
    for engine in engines:
        row: Dict[str, object] = {"code": engine.scheme_name}
        for offset, fraction in enumerate(config.disaster_fractions):
            failed = sample_disaster(config, fraction, offset)
            metrics = engine.run_disaster(failed, disaster_fraction=fraction)
            row[f"{int(round(fraction * 100))}%"] = metrics.repair_rounds
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table IV: analytic costs
# ----------------------------------------------------------------------
def costs_table() -> List[Dict[str, object]]:
    """Additional storage and single-failure cost per scheme (Table IV)."""
    return scheme_costs()


# ----------------------------------------------------------------------
# Placement balance (Sec. V-C, "Block Placements")
# ----------------------------------------------------------------------
def placement_balance_report(
    config: Optional[ExperimentConfig] = None,
) -> List[Dict[str, object]]:
    """Blocks-per-location statistics and the stripe-spreading observation."""
    config = config or ExperimentConfig.quick()
    rows: List[Dict[str, object]] = []
    rs_engine = SimulationEngine(
        "rs-10-4", config.data_blocks, config.location_count, config.seed
    )
    rs_placement = rs_engine.placement
    counts = rs_placement.blocks_per_location()
    rows.append(
        {
            "scheme": rs_placement.name,
            "blocks": int(counts.sum()),
            "mean blocks/location": round(float(counts.mean()), 1),
            "std blocks/location": round(float(counts.std(ddof=1)), 2),
            "stripes fully spread": rs_placement.stripes_fully_spread(),
            "stripes": rs_placement.stripes,
        }
    )
    ae_engine = SimulationEngine(
        "ae-3-2-5", config.data_blocks, config.location_count, config.seed
    )
    ae_counts = ae_engine.placement.blocks_per_location()
    rows.append(
        {
            "scheme": ae_engine.scheme_name,
            "blocks": int(ae_counts.sum()),
            "mean blocks/location": round(float(ae_counts.mean()), 1),
            "std blocks/location": round(float(ae_counts.std(ddof=1)), 2),
            "stripes fully spread": "n/a (no stripes)",
            "stripes": "n/a",
        }
    )
    return rows


# ----------------------------------------------------------------------
# Aggregate runner
# ----------------------------------------------------------------------
def run_all(config: Optional[ExperimentConfig] = None) -> Dict[str, List[Dict[str, object]]]:
    """Run every experiment and return the tables keyed by experiment id."""
    config = config or ExperimentConfig.quick()
    return {
        "table4_costs": costs_table(),
        "fig11_data_loss": data_loss_experiment(config),
        "fig12_vulnerable_data": vulnerable_data_experiment(config),
        "fig13_single_failures": single_failure_experiment(config),
        "table6_repair_rounds": repair_rounds_experiment(config),
        "placement_balance": placement_balance_report(config),
    }


def _row(
    scheme: str,
    fraction: float,
    config: ExperimentConfig,
    data_loss: Optional[int] = None,
    vulnerable: Optional[int] = None,
) -> Dict[str, object]:
    row: Dict[str, object] = {
        "scheme": scheme,
        "disaster (%)": int(round(fraction * 100)),
    }
    if data_loss is not None:
        row["data loss (blocks)"] = int(data_loss)
        row["data loss (% of data)"] = round(100.0 * data_loss / config.data_blocks, 3)
    if vulnerable is not None:
        row["vulnerable data (blocks)"] = int(vulnerable)
        row["vulnerable data (% of data)"] = round(
            100.0 * vulnerable / config.data_blocks, 2
        )
    return row
