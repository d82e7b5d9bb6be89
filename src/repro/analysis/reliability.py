"""Reliability models for entangled mirror arrays (paper, Sec. IV-B1).

The earlier work the paper recaps compares full-partition entangled mirrors
(open and closed chains) against plain mirroring over a 5-year horizon and
reports that entanglement reduces the probability of data loss by roughly 90%
(open chains) and 98% (closed chains).  This module reproduces that analysis
with a Monte-Carlo failure model and a small analytic helper:

* drives fail independently following an exponential lifetime (constant
  failure rate derived from an MTTF or an annualised failure rate);
* failed drives are replaced and rebuilt after an exponentially distributed
  repair time;
* a *data-loss event* occurs when the set of simultaneously failed drives is
  not survivable by the layout (for mirroring: a drive and its mirror; for an
  entangled chain: a pattern the chain cannot repair).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Tuple

import numpy as np

from repro.analysis.erasure_patterns import ErasurePattern, recoverable_blocks
from repro.core.blocks import DataId
from repro.core.parameters import AEParameters, StrandClass
from repro.exceptions import InvalidParametersError

HOURS_PER_YEAR = 24 * 365
_SINGLE = AEParameters.single()


@dataclass(frozen=True)
class DriveModel:
    """Failure/repair behaviour of one drive."""

    mttf_hours: float = 1_000_000.0
    repair_hours: float = 24.0

    @property
    def failure_rate(self) -> float:
        return 1.0 / self.mttf_hours

    @property
    def repair_rate(self) -> float:
        return 1.0 / self.repair_hours


@dataclass
class ReliabilityResult:
    """Outcome of a Monte-Carlo reliability estimate."""

    layout: str
    drives: int
    years: float
    trials: int
    loss_events: int

    @property
    def loss_probability(self) -> float:
        return self.loss_events / self.trials if self.trials else 0.0

    @property
    def reliability(self) -> float:
        return 1.0 - self.loss_probability

    def improvement_over(self, other: "ReliabilityResult") -> float:
        """Relative reduction of the loss probability versus ``other``."""
        if other.loss_probability == 0:
            return 0.0
        return 1.0 - self.loss_probability / other.loss_probability


# ----------------------------------------------------------------------
# Survivability predicates for the studied layouts
# ----------------------------------------------------------------------
def mirroring_survives(failed: Set[int], pairs: int) -> bool:
    """Mirrored array of ``pairs`` (data, copy) drives: loses data when both
    drives of any pair are simultaneously down."""
    for pair in range(pairs):
        if 2 * pair in failed and 2 * pair + 1 in failed:
            return False
    return True


def open_chain_survives(failed: Set[int], pairs: int) -> bool:
    """Full-partition entangled mirror with an open chain.

    Drive ``2i`` holds data block ``d_{i+1}`` and drive ``2i + 1`` holds
    parity ``p_{i+1}`` of the simple entanglement chain
    ``p_i = d_i XOR p_{i-1}`` -- the layout of
    :class:`~repro.system.raid.EntangledMirrorArray`.  The chain survives
    when the store's repair rounds over the ``pairs``-node AE(1) lattice
    (:func:`~repro.analysis.erasure_patterns.recoverable_blocks`) bring back
    every failed data drive's block.
    """
    data_nodes = frozenset(drive // 2 + 1 for drive in failed if drive % 2 == 0)
    if not data_nodes:
        return True
    pattern = ErasurePattern(
        data_nodes=data_nodes,
        parity_edges=frozenset(
            (drive // 2 + 1, StrandClass.HORIZONTAL) for drive in failed if drive % 2 == 1
        ),
    )
    recovered = recoverable_blocks(pattern, _SINGLE, lattice_size=pairs)
    return all(DataId(index) in recovered for index in data_nodes)


def closed_chain_survives(failed: Set[int], pairs: int) -> bool:
    """Closed-chain variant: the chain wraps around, removing weak extremities."""
    data_failed = {index // 2 for index in failed if index % 2 == 0}
    parity_failed = {index // 2 for index in failed if index % 2 == 1}
    if not data_failed:
        return True
    derivable = {i: i not in parity_failed for i in range(pairs)}
    changed = True
    while changed:
        changed = False
        for i in range(pairs):
            if derivable[i]:
                continue
            left = derivable[(i - 1) % pairs] and i not in data_failed
            right = derivable[(i + 1) % pairs] and ((i + 1) % pairs) not in data_failed
            if left or right:
                derivable[i] = True
                changed = True
    for i in data_failed:
        if not (derivable[(i - 1) % pairs] and derivable[i]):
            return False
    return True


LAYOUT_PREDICATES: Dict[str, Callable[[Set[int], int], bool]] = {
    "mirroring": mirroring_survives,
    "entangled-open": open_chain_survives,
    "entangled-closed": closed_chain_survives,
}


# ----------------------------------------------------------------------
# Monte-Carlo simulation
# ----------------------------------------------------------------------
def simulate_layout(
    layout: str,
    drive_pairs: int = 10,
    years: float = 5.0,
    drive: DriveModel = DriveModel(mttf_hours=50_000.0, repair_hours=168.0),
    trials: int = 2000,
    seed: int = 0,
) -> ReliabilityResult:
    """Estimate the probability of data loss over ``years`` for one layout.

    The simulation advances failure/repair events per drive; after every
    failure it evaluates the layout's survivability predicate on the set of
    currently failed drives.
    """
    if layout not in LAYOUT_PREDICATES:
        raise InvalidParametersError(
            f"unknown layout {layout!r}; choose from {sorted(LAYOUT_PREDICATES)}"
        )
    predicate = LAYOUT_PREDICATES[layout]
    drive_count = 2 * drive_pairs
    horizon = years * HOURS_PER_YEAR
    rng = np.random.default_rng(seed)
    losses = 0
    for _ in range(trials):
        failure_times = rng.exponential(drive.mttf_hours, size=drive_count)
        events: List[Tuple[float, int, str]] = [
            (float(t), index, "fail") for index, t in enumerate(failure_times) if t < horizon
        ]
        events.sort()
        failed: Set[int] = set()
        repairs: Dict[int, float] = {}
        lost = False
        pending = list(events)
        while pending and not lost:
            time, index, kind = pending.pop(0)
            # Complete any repairs that finished before this event.
            for drive_index, ready in list(repairs.items()):
                if ready <= time:
                    failed.discard(drive_index)
                    del repairs[drive_index]
                    next_failure = time + float(rng.exponential(drive.mttf_hours))
                    if next_failure < horizon:
                        pending.append((next_failure, drive_index, "fail"))
                        pending.sort()
            if kind == "fail":
                failed.add(index)
                repairs[index] = time + float(rng.exponential(drive.repair_hours))
                if not predicate(failed, drive_pairs):
                    lost = True
        if lost:
            losses += 1
    return ReliabilityResult(
        layout=layout, drives=drive_count, years=years, trials=trials, loss_events=losses
    )


def five_year_comparison(
    drive_pairs: int = 10,
    drive: DriveModel = DriveModel(mttf_hours=50_000.0, repair_hours=168.0),
    trials: int = 2000,
    seed: int = 0,
) -> Dict[str, ReliabilityResult]:
    """Compare mirroring vs entangled mirrors over 5 years (paper, Sec. IV-B1).

    Expected shape: the open chain cuts the loss probability by roughly an
    order of magnitude versus mirroring, and the closed chain by substantially
    more (the paper quotes 90% and 98% reductions).
    """
    return {
        layout: simulate_layout(layout, drive_pairs, 5.0, drive, trials, seed)
        for layout in LAYOUT_PREDICATES
    }


def analytic_mirror_loss(drive_pairs: int, years: float, drive: DriveModel) -> float:
    """First-order analytic loss probability of mirroring (independent pairs).

    For one pair, loss requires a second failure within the repair window of
    the first; over the horizon the per-pair probability is approximately
    ``2 * (T / MTTF) * (repair / MTTF)``; the array loses data when any pair
    does.
    """
    horizon = years * HOURS_PER_YEAR
    per_pair = 2.0 * (horizon / drive.mttf_hours) * (drive.repair_hours / drive.mttf_hours)
    per_pair = min(per_pair, 1.0)
    return 1.0 - (1.0 - per_pair) ** drive_pairs
