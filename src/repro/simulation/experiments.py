"""Experiment runner for the disaster-recovery evaluation (Figs. 11-13, Tables IV & VI).

Each experiment follows the paper's setup:

* one million synthetically generated data blocks (configurable through
  ``scale`` so tests and quick runs stay fast);
* the corresponding encoded blocks for every redundancy scheme;
* blocks distributed over ``n = 100`` storage locations with random placement;
* disasters that take 10% to 50% of the locations offline at once;
* the repair process then rebuilds what it can, and the metrics are collected.

Every experiment is a projection of the one scheme x disaster sweep,
:func:`repro.simulation.engine.simulate_disasters`, so the scheme lists below
are plain registry identifiers -- add ``"lrc-azure"`` or ``"xor-geo"`` to a
list (or call the sweep directly) and the same experiment covers schemes the
paper never plotted.  The
experiment functions return plain lists of dictionaries (one per table row),
so they can be printed with :func:`repro.simulation.metrics.format_table`,
asserted against in tests and re-used by the benchmark harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.parameters import AEParameters
from repro.schemes import SchemeLike
from repro.simulation.engine import (
    StripeSimulation,
    build_simulation,
    simulate_disasters,
)
from repro.simulation.metrics import DisasterMetrics, scheme_costs
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


#: The Figs. 11/12 comparison set, in the historical row order.
_COMPARISON_SCHEMES: Tuple[SchemeLike, ...] = (
    *(f"rs-{k}-{m}" for k, m in RS_SETTINGS),
    *AE_SETTINGS,
    *(f"rep-{copies}" for copies in REPLICATION_FACTORS),
)


def _sweep(
    config: Optional[ExperimentConfig],
    scheme_ids: Sequence[SchemeLike],
    policy: MaintenancePolicy = MaintenancePolicy.FULL,
) -> Tuple[ExperimentConfig, List[DisasterMetrics]]:
    """The sweep's fraction-major cells for an experiment's scheme set."""
    config = config or ExperimentConfig.quick()
    cells = simulate_disasters(
        scheme_ids,
        config.data_blocks,
        config.location_count,
        config.seed,
        config.disaster_fractions,
        policy=policy,
    )
    return config, cells


# ----------------------------------------------------------------------
# Figure 11: data loss after repairs
# ----------------------------------------------------------------------
def data_loss_experiment(
    config: Optional[ExperimentConfig] = None,
) -> List[Dict[str, object]]:
    """Data blocks the decoder failed to repair, per scheme and disaster size."""
    config, cells = _sweep(config, _COMPARISON_SCHEMES)
    return [
        _row(cell.scheme, cell.disaster_fraction, config, data_loss=cell.data_loss)
        for cell in cells
    ]


# ----------------------------------------------------------------------
# Figure 12: vulnerable data under minimal maintenance
# ----------------------------------------------------------------------
def vulnerable_data_experiment(
    config: Optional[ExperimentConfig] = None,
) -> List[Dict[str, object]]:
    """Data blocks left without redundancy after minimal-maintenance repairs."""
    config, cells = _sweep(config, _COMPARISON_SCHEMES, MaintenancePolicy.MINIMAL)
    return [
        _row(cell.scheme, cell.disaster_fraction, config, vulnerable=cell.vulnerable_data)
        for cell in cells
    ]


# ----------------------------------------------------------------------
# Figure 13: single-failure repairs
# ----------------------------------------------------------------------
def single_failure_experiment(
    config: Optional[ExperimentConfig] = None,
) -> List[Dict[str, object]]:
    """Share of repairs that were single-failure repairs (RS(4,12) vs AE codes)."""
    _, cells = _sweep(config, ("rs-4-12", *AE_SETTINGS))
    return [
        {
            "scheme": cell.scheme,
            "disaster (%)": int(round(cell.disaster_fraction * 100)),
            "single failures (% of repairs)": round(
                cell.single_failure_fraction * 100.0, 1
            ),
        }
        for cell in cells
    ]


# ----------------------------------------------------------------------
# Table VI: repair rounds
# ----------------------------------------------------------------------
def repair_rounds_experiment(
    config: Optional[ExperimentConfig] = None,
) -> List[Dict[str, object]]:
    """Number of repair rounds needed by each AE setting per disaster size."""
    _, cells = _sweep(config, AE_SETTINGS)
    rows: Dict[str, Dict[str, object]] = {}
    for cell in cells:  # fraction-major: one column per pass over the codes
        row = rows.setdefault(cell.scheme, {"code": cell.scheme})
        row[f"{int(round(cell.disaster_fraction * 100))}%"] = cell.repair_rounds
    return list(rows.values())


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
    for scheme_id in ("rs-10-4", "ae-3-2-5"):
        placement = build_simulation(
            scheme_id, config.data_blocks, config.location_count, config.seed
        )
        counts = placement.blocks_per_location()
        striped = isinstance(placement, StripeSimulation)
        rows.append(
            {
                "scheme": placement.name,
                "blocks": int(counts.sum()),
                "mean blocks/location": round(float(counts.mean()), 1),
                "std blocks/location": round(float(counts.std(ddof=1)), 2),
                "stripes fully spread": (
                    placement.stripes_fully_spread() if striped else "n/a (no stripes)"
                ),
                "stripes": placement.stripes if striped else "n/a",
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
