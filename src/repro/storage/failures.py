"""Failure models: disasters, correlated failures and churn.

The paper's evaluation applies *disasters*: a fraction of the storage
locations (10% to 50%) becomes unavailable at once, modelling catastrophic
correlated failures, massive peer departures or whole-rack outages.  This
module generates such scenarios (plus a few richer ones used by the examples
and the extension benchmarks) and applies them to a
:class:`repro.storage.cluster.StorageCluster`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import InvalidParametersError
from repro.storage.cluster import StorageCluster
from repro.storage.topology import Topology

#: Disaster sizes (fraction of unavailable locations) used throughout the paper.
PAPER_DISASTER_SIZES = (0.10, 0.20, 0.30, 0.40, 0.50)


@dataclass(frozen=True)
class Disaster:
    """A set of storage locations that become unavailable simultaneously.

    ``label`` carries the human-readable origin of a targeted disaster
    (``"site:0"``, ``"rack:eu/1"``); it stays empty for sampled disasters.
    """

    failed_locations: tuple
    destructive: bool = False
    label: str = ""

    @property
    def size(self) -> int:
        return len(self.failed_locations)

    def apply(self, cluster: StorageCluster) -> None:
        if self.destructive:
            cluster.wipe_locations(self.failed_locations)
        else:
            cluster.fail_locations(self.failed_locations)

    def revert(self, cluster: StorageCluster) -> None:
        """Bring the failed locations back (only meaningful when not destructive)."""
        if not self.destructive:
            cluster.restore_locations(self.failed_locations)


def disaster_for_fraction(
    location_count: int,
    fraction: float,
    rng: Optional[np.random.Generator] = None,
    destructive: bool = False,
) -> Disaster:
    """Sample a disaster hitting ``fraction`` of the locations uniformly at random."""
    if not 0.0 <= fraction <= 1.0:
        raise InvalidParametersError("disaster fraction must lie in [0, 1]")
    rng = rng or np.random.default_rng(0)
    count = int(round(location_count * fraction))
    failed = tuple(sorted(rng.choice(location_count, size=count, replace=False).tolist()))
    return Disaster(failed_locations=failed, destructive=destructive)


def disaster_series(
    location_count: int,
    fractions: Sequence[float] = PAPER_DISASTER_SIZES,
    seed: int = 0,
    destructive: bool = False,
) -> List[Disaster]:
    """One disaster per fraction, each drawn independently (paper, Figs. 11-13)."""
    disasters = []
    for offset, fraction in enumerate(fractions):
        rng = np.random.default_rng(seed + offset)
        disasters.append(
            disaster_for_fraction(location_count, fraction, rng, destructive)
        )
    return disasters


def disaster_for_target(
    topology: Topology, target: Union[str, Iterable[str]], destructive: bool = False
) -> Disaster:
    """A disaster taking down whole topology targets (sites, racks, nodes).

    ``target`` is one target string (``"site:0"``, ``"rack:eu/1"``,
    ``"node:5"``) or an iterable of them; the failed set is the union,
    resolved through :meth:`Topology.locations_for_target`.
    """
    targets = [target] if isinstance(target, str) else list(target)
    if not targets:
        raise InvalidParametersError("disaster_for_target needs at least one target")
    failed = set().union(*map(topology.locations_for_target, targets))
    return Disaster(
        failed_locations=tuple(sorted(failed)),
        destructive=destructive,
        label=",".join(targets),
    )


@dataclass
class ChurnEvent:
    """One step of a churn trace: locations leaving and returning."""

    time: int
    departures: tuple = ()
    arrivals: tuple = ()


@dataclass
class ChurnTrace:
    """A sequence of churn events, modelling a p2p network's instability.

    Used by the extension benchmarks to study redundancy decay under
    continuous, uncorrelated unavailability (as opposed to the one-shot
    disasters of the paper's main evaluation).
    """

    events: List[ChurnEvent] = field(default_factory=list)

    @classmethod
    def poisson(
        cls,
        location_count: int,
        steps: int,
        departure_rate: float,
        return_rate: float,
        seed: int = 0,
    ) -> "ChurnTrace":
        if departure_rate < 0 or return_rate < 0:
            raise InvalidParametersError("rates must be non-negative")
        rng = np.random.default_rng(seed)
        offline: set = set()
        events: List[ChurnEvent] = []
        for time in range(steps):
            online = [loc for loc in range(location_count) if loc not in offline]
            departures = tuple(
                int(loc) for loc in online if rng.random() < departure_rate
            )
            arrivals = tuple(
                int(loc) for loc in list(offline) if rng.random() < return_rate
            )
            offline.update(departures)
            offline.difference_update(arrivals)
            events.append(ChurnEvent(time=time, departures=departures, arrivals=arrivals))
        return cls(events=events)

    def replay(self, cluster: StorageCluster, until: Optional[int] = None) -> None:
        """Apply the trace to a cluster, event by event."""
        for event in self.events:
            if until is not None and event.time >= until:
                break
            cluster.fail_locations(event.departures)
            cluster.restore_locations(event.arrivals)

    # ------------------------------------------------------------------
    # Serialisation (consumed by `repro-experiments simulate --churn`)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise the trace as JSON (one object per event)."""
        import json

        return json.dumps(
            {
                "events": [
                    {
                        "time": event.time,
                        "departures": list(event.departures),
                        "arrivals": list(event.arrivals),
                    }
                    for event in self.events
                ]
            },
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "ChurnTrace":
        """Parse a trace serialised with :meth:`to_json`."""
        import json

        try:
            document = json.loads(text)
            events = [
                ChurnEvent(
                    time=event["time"],
                    departures=tuple(int(loc) for loc in event.get("departures", ())),
                    arrivals=tuple(int(loc) for loc in event.get("arrivals", ())),
                )
                for event in document["events"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParametersError(f"malformed churn trace JSON: {exc}") from exc
        # Hand-edited traces may list events out of order; replay semantics
        # (and the engine's event loop) assume a time-sorted timeline.
        events.sort(key=lambda event: event.time)
        return cls(events=events)

    def save(self, path: str) -> None:
        """Write the trace to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ChurnTrace":
        """Read a JSON trace written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as stream:
            return cls.from_json(stream.read())
