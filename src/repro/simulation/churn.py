"""Churn simulator: availability and durability under continuous instability.

The paper's main evaluation applies one-shot disasters (Section V-C); its
motivation, however, is the *continuously* unreliable environment -- a p2p
network where "nodes join and leave frequently" and "maintenance swallows up
most of the node's resources".  This module adds the missing dynamic view: a
time-stepped simulator that replays a :class:`~repro.simulation.traces.SessionTrace`
over the scheme-agnostic simulation engine and reports, per time step,

* **instantaneous availability** -- the fraction of data blocks that can be
  served right now, either directly or by decoding from online blocks;
* **unavailable data** -- blocks the decoder cannot reach at that instant;
* **durability** -- data permanently lost when the simulation ends and only
  the nodes still online (plus any that will eventually return) hold blocks.

Schemes are resolved through the :mod:`repro.schemes` registry (the same
placements as the disaster experiments), so any registered scheme --
including LRC and flat XOR -- can be put under churn.  Availability is
usually summarised in "nines" (``-log10(1 - availability)``); the Blake &
Rodrigues observation quoted in the paper -- replication needs enormous
overhead to reach high availability while erasure codes get there much more
cheaply -- falls out of this metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

import repro.schemes as schemes
from repro.exceptions import InvalidParametersError
from repro.schemes import SchemeLike
from repro.simulation.engine import (
    AvailabilitySeries,
    StepMetrics,
    build_simulation,
    sample_states,
)
from repro.simulation.traces import SessionTrace

__all__ = [
    "ChurnConfig",
    "ChurnResult",
    "ChurnSimulator",
    "availability_nines",
    "compare_schemes_under_churn",
]


def availability_nines(availability: float) -> float:
    """Express an availability fraction as a number of nines.

    ``0.999`` -> 3.0; a perfect 1.0 is capped at 9 nines to keep tables finite.
    """
    if not 0.0 <= availability <= 1.0:
        raise InvalidParametersError("availability must lie in [0, 1]")
    if availability >= 1.0:
        return 9.0
    return -math.log10(1.0 - availability)


@dataclass(frozen=True)
class ChurnConfig:
    """Size and sampling parameters of a churn simulation."""

    data_blocks: int = 20_000
    sample_every_hours: float = 6.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.data_blocks < 1:
            raise InvalidParametersError("data_blocks must be positive")
        if self.sample_every_hours <= 0:
            raise InvalidParametersError("sample_every_hours must be positive")


@dataclass
class ChurnResult(AvailabilitySeries):
    """Full time series plus summary metrics for one scheme."""

    scheme: str
    storage_overhead_percent: float
    samples: List[StepMetrics] = field(default_factory=list)
    final_data_loss: int = 0

    @property
    def steps(self) -> List[StepMetrics]:
        """The sampled instants (what :class:`AvailabilitySeries` summarises)."""
        return self.samples

    @property
    def data_blocks(self) -> int:
        return self.samples[0].data_blocks if self.samples else 0

    @property
    def mean_nines(self) -> float:
        return availability_nines(self.mean_availability)

    @property
    def unavailability_block_hours(self) -> float:
        """Integral of unavailable data over time (block-hours of outage)."""
        if len(self.samples) < 2:
            return 0.0
        total = 0.0
        for previous, current in zip(self.samples, self.samples[1:]):
            dt = current.time - previous.time
            total += previous.unavailable_data * dt
        return total

    def as_row(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "additional storage (%)": round(self.storage_overhead_percent, 1),
            "mean availability": round(self.mean_availability, 6),
            "mean nines": round(self.mean_nines, 2),
            "min availability": round(self.min_availability, 6),
            "outage (block-hours)": round(self.unavailability_block_hours, 1),
            "data loss at end": self.final_data_loss,
        }


class ChurnSimulator:
    """Replay a session trace against the engine's placement of each scheme."""

    def __init__(self, trace: SessionTrace, config: Optional[ChurnConfig] = None) -> None:
        self._trace = trace
        self._config = config or ChurnConfig()

    @property
    def trace(self) -> SessionTrace:
        return self._trace

    @property
    def config(self) -> ChurnConfig:
        return self._config

    def _sample_times(self) -> List[float]:
        step = self._config.sample_every_hours
        count = max(int(self._trace.horizon_hours // step), 1)
        return [step * index for index in range(count + 1) if step * index < self._trace.horizon_hours]

    def run(self, spec: SchemeLike) -> ChurnResult:
        """Simulate one scheme over the whole trace.

        The states are the trace's offline sets at the sample times, plus the
        one at the end of the horizon: whoever is offline then (including
        permanent departures) no longer contributes blocks, so what cannot be
        served there is the durability figure.
        """
        scheme = schemes.resolve(spec)
        capabilities = scheme.capabilities()
        model = build_simulation(
            scheme, self._config.data_blocks, self._trace.node_count, seed=self._config.seed
        )
        times = self._sample_times() + [self._trace.horizon_hours - 1e-9]
        states = [
            (time, np.flatnonzero(self._trace.offline_mask_at(time))) for time in times
        ]
        samples = sample_states(model, states).steps
        final = samples.pop()
        return ChurnResult(
            scheme=capabilities.name,
            storage_overhead_percent=capabilities.storage_overhead * 100.0,
            samples=samples,
            final_data_loss=final.unavailable_data,
        )

    def run_many(self, specs: Sequence[SchemeLike]) -> List[ChurnResult]:
        return [self.run(spec) for spec in specs]


def compare_schemes_under_churn(
    trace: SessionTrace,
    specs: Sequence[SchemeLike],
    config: Optional[ChurnConfig] = None,
) -> List[Dict[str, object]]:
    """One row per scheme: availability nines, outage block-hours, final loss."""
    simulator = ChurnSimulator(trace, config)
    return [result.as_row() for result in simulator.run_many(specs)]
