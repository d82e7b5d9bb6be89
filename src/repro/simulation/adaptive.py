"""Adaptive maintenance: deciding *when* to change the redundancy scheme.

The dynamic-redundancy subsystem (:mod:`repro.system.transitions`) can
migrate a live service between schemes -- raise alpha in place, puncture or
restore parities, or re-encode across families.  This module supplies the
control loop that decides when such a transition is worth running.

An :class:`AdaptiveMaintenancePolicy` watches a sliding window of health
samples -- served availability, the vulnerable-data fraction and a read-rate
"temperature" -- and recommends one of three actions:

* **hot-data promotion** (``strengthen``): reads run hot, availability dips
  or too much data sits vulnerable, so climb the redundancy ladder -- restore
  a punctured lattice to its plain setting, raise alpha (up to the lattice's
  alpha=3 ceiling), or re-encode a non-AE scheme into the default lattice;
* **cold-archive demotion** (``weaken``): the window shows nothing but
  healthy, cold data, so puncture the lattice and reclaim parity storage
  (the code-collapsing direction of the paper's Sec. VII discussion);
* **hold**: neither signal is decisive, or a transition just ran and the
  cooldown keeps the controller from flapping.

:func:`run_adaptive` replays an event timeline (churn, disasters) through
the engine's one replay and one sampling loop, feeds the per-step health
into the policy and applies each recommendation by rebuilding the placement
under the new scheme id -- the simulation counterpart of
:meth:`repro.system.service.StorageService.transition_to`.  The
:func:`cold_archive_demotion` and :func:`hot_data_promotion` scenarios wire
both directions end to end with fixed seeds and fixed read schedules, so
every run is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import repro.schemes as schemes
from repro.codes.entanglement import (
    EntanglementScheme,
    PuncturedEntanglementScheme,
    punctured_scheme_id,
)
from repro.exceptions import InvalidParametersError
from repro.simulation.engine import (
    AvailabilitySeries,
    EventSource,
    SimulatedPlacement,
    SimulationEvent,
    StepMetrics,
    build_simulation,
    replay_timeline,
    sample_states,
)
from repro.storage.maintenance import MaintenanceBudget, MaintenancePolicy

__all__ = [
    "ACTION_HOLD",
    "ACTION_STRENGTHEN",
    "ACTION_WEAKEN",
    "AdaptiveDecision",
    "AdaptiveMaintenancePolicy",
    "AdaptiveRun",
    "AdaptiveSample",
    "AdaptiveStep",
    "cold_archive_demotion",
    "hot_data_promotion",
    "run_adaptive",
]

#: The three recommendations a policy can emit.
ACTION_HOLD = "hold"
ACTION_STRENGTHEN = "strengthen"
ACTION_WEAKEN = "weaken"

#: Default scheme a non-AE deployment is promoted into (the paper's
#: recommended setting).
DEFAULT_PROMOTION_TARGET = "ae-3-2-5"


@dataclass(frozen=True)
class AdaptiveSample:
    """One observation of the deployment's health.

    ``availability`` is the fraction of data blocks the scheme can still
    serve (degraded reads included), ``vulnerable_fraction`` the share of
    data blocks left without a complete repair tuple, and ``read_rate`` the
    workload temperature in reads per data block per step.
    """

    time: float
    availability: float
    vulnerable_fraction: float
    read_rate: float


@dataclass(frozen=True)
class AdaptiveDecision:
    """One recommendation: what to do, to which scheme, and why."""

    time: float
    action: str
    scheme_id: str
    target_id: Optional[str]
    reason: str


class AdaptiveMaintenancePolicy:
    """Sliding-window controller recommending live scheme transitions.

    The policy is observation-driven and scheme-aware: it knows the
    redundancy ladder (punctured lattice < plain lattice < higher alpha,
    topping out at alpha=3) and never recommends a transition the
    :mod:`repro.system.transitions` engine would reject.

    ``observe`` returns a decision for every sample; a non-``hold`` decision
    advances the policy's own notion of the current scheme (the caller is
    expected to apply it, e.g. via ``StorageService.transition_to``) and
    starts a ``cooldown`` of held samples so back-to-back migrations cannot
    flap.
    """

    def __init__(
        self,
        scheme_id: str,
        *,
        window: int = 4,
        cooldown: Optional[int] = None,
        availability_floor: float = 0.999,
        vulnerable_ceiling: float = 0.01,
        hot_read_rate: float = 1.0,
        cold_read_rate: float = 0.1,
        demote_keep_percent: int = 75,
        promotion_target: str = DEFAULT_PROMOTION_TARGET,
        block_size: int = 4096,
    ) -> None:
        if window < 1:
            raise InvalidParametersError("window must be at least 1 sample")
        if not 0 < demote_keep_percent < 100:
            raise InvalidParametersError(
                "demote_keep_percent must lie strictly between 0 and 100"
            )
        if cold_read_rate >= hot_read_rate:
            raise InvalidParametersError(
                "cold_read_rate must be below hot_read_rate"
            )
        self._block_size = block_size
        self._scheme_id = self._resolve(scheme_id).scheme_id
        self._window_size = window
        self._cooldown_steps = window if cooldown is None else cooldown
        self._availability_floor = availability_floor
        self._vulnerable_ceiling = vulnerable_ceiling
        self._hot_read_rate = hot_read_rate
        self._cold_read_rate = cold_read_rate
        self._demote_keep_percent = demote_keep_percent
        self._promotion_target = self._resolve(promotion_target).scheme_id
        self._window: List[AdaptiveSample] = []
        self._cooldown_left = 0
        self._decisions: List[AdaptiveDecision] = []

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def scheme_id(self) -> str:
        """The scheme the policy currently assumes is deployed."""
        return self._scheme_id

    @property
    def decisions(self) -> List[AdaptiveDecision]:
        """Every non-``hold`` decision issued so far."""
        return list(self._decisions)

    # ------------------------------------------------------------------
    # The redundancy ladder
    # ------------------------------------------------------------------
    def _resolve(self, scheme_id: str) -> schemes.RedundancyScheme:
        return schemes.get(scheme_id, block_size=self._block_size)

    def strengthen_target(self) -> Optional[str]:
        """Next rung up, or ``None`` when already at the strongest setting."""
        current = self._resolve(self._scheme_id)
        if isinstance(current, PuncturedEntanglementScheme):
            return current.params.scheme_id
        if isinstance(current, EntanglementScheme):
            params = current.params
            if params.alpha >= 3:
                return None  # the helical lattice tops out at alpha=3
            return params.with_alpha(params.alpha + 1).scheme_id
        if self._promotion_target != self._scheme_id:
            return self._promotion_target
        return None

    def weaken_target(self) -> Optional[str]:
        """Next rung down, or ``None`` when there is nothing left to shed."""
        current = self._resolve(self._scheme_id)
        if isinstance(current, PuncturedEntanglementScheme):
            return None  # already punctured; do not erode protection further
        if isinstance(current, EntanglementScheme):
            return punctured_scheme_id(
                current.params, self._demote_keep_percent / 100.0
            )
        return None  # demotion is an AE-lattice feature (puncturing)

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def observe(self, sample: AdaptiveSample) -> AdaptiveDecision:
        """Fold one health sample in and return the recommendation."""
        self._window.append(sample)
        if len(self._window) > self._window_size:
            self._window.pop(0)

        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return self._hold(sample, "cooling down after a transition")
        if len(self._window) < self._window_size:
            return self._hold(sample, "warming up the observation window")

        min_availability = min(s.availability for s in self._window)
        mean_vulnerable = sum(s.vulnerable_fraction for s in self._window) / len(
            self._window
        )
        mean_read_rate = sum(s.read_rate for s in self._window) / len(self._window)

        unhealthy = (
            min_availability < self._availability_floor
            or mean_vulnerable > self._vulnerable_ceiling
        )
        if unhealthy or mean_read_rate >= self._hot_read_rate:
            target = self.strengthen_target()
            if target is None:
                return self._hold(sample, "already at the strongest setting")
            reason = (
                f"availability {min_availability:.6f} below floor"
                if min_availability < self._availability_floor
                else f"vulnerable fraction {mean_vulnerable:.6f} above ceiling"
                if mean_vulnerable > self._vulnerable_ceiling
                else f"read rate {mean_read_rate:.3f} is hot"
            )
            return self._transition(sample, ACTION_STRENGTHEN, target, reason)

        if mean_read_rate <= self._cold_read_rate:
            target = self.weaken_target()
            if target is None:
                return self._hold(sample, "cold, but nothing left to shed")
            return self._transition(
                sample,
                ACTION_WEAKEN,
                target,
                f"read rate {mean_read_rate:.3f} is cold and the window is healthy",
            )

        return self._hold(sample, "within the hold band")

    def _hold(self, sample: AdaptiveSample, reason: str) -> AdaptiveDecision:
        return AdaptiveDecision(
            time=sample.time,
            action=ACTION_HOLD,
            scheme_id=self._scheme_id,
            target_id=None,
            reason=reason,
        )

    def _transition(
        self, sample: AdaptiveSample, action: str, target: str, reason: str
    ) -> AdaptiveDecision:
        decision = AdaptiveDecision(
            time=sample.time,
            action=action,
            scheme_id=self._scheme_id,
            target_id=target,
            reason=reason,
        )
        self._decisions.append(decision)
        self._scheme_id = target
        self._window.clear()
        self._cooldown_left = self._cooldown_steps
        return decision


# ----------------------------------------------------------------------
# Driving the policy against the availability engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdaptiveStep:
    """State of the adaptive run after one timeline event."""

    time: float
    scheme_id: str
    availability: float
    vulnerable_fraction: float
    read_rate: float
    stored_blocks: int
    action: str


@dataclass
class AdaptiveRun(AvailabilitySeries):
    """Full result of :func:`run_adaptive`."""

    initial_scheme: str
    final_scheme: str
    data_blocks: int
    steps: List[AdaptiveStep] = field(default_factory=list)
    decisions: List[AdaptiveDecision] = field(default_factory=list)

    @property
    def stored_blocks_saved(self) -> int:
        """Stored-block delta between the first and last step (demotion win)."""
        if not self.steps:
            return 0
        return self.steps[0].stored_blocks - self.steps[-1].stored_blocks

    def as_row(self) -> dict:
        return {
            "initial scheme": self.initial_scheme,
            "final scheme": self.final_scheme,
            "events": len(self.steps),
            "transitions": len(self.decisions),
            "mean availability": round(self.mean_availability, 6),
            "min availability": round(self.min_availability, 6),
            "stored blocks saved": self.stored_blocks_saved,
        }


def run_adaptive(
    policy: AdaptiveMaintenancePolicy,
    events: EventSource,
    read_rates: Sequence[float],
    *,
    data_blocks: int = 2000,
    location_count: int = 50,
    seed: int = 0,
    maintenance: MaintenancePolicy = MaintenancePolicy.FULL,
    budget: Optional[MaintenanceBudget] = None,
    block_size: int = 4096,
) -> AdaptiveRun:
    """Replay a timeline, let the policy steer the scheme, record everything.

    The timeline goes through :func:`~repro.simulation.engine.replay_timeline`
    and :func:`~repro.simulation.engine.sample_states`, exactly like
    :meth:`~repro.simulation.engine.SimulationEngine.run_events`: each step
    *evaluates* (without persisting) what the current scheme could repair.
    The step's availability and vulnerable fraction, together with the
    aligned ``read_rates`` entry, form the policy's health sample.  A
    non-``hold`` decision rebuilds the placement under the recommended
    scheme id with the same block population, seed and location count --
    the availability-study analogue of a live, zero-downtime transition.
    """
    states = replay_timeline(events, location_count)
    if len(read_rates) != len(states):
        raise InvalidParametersError(
            f"read_rates has {len(read_rates)} entries for {len(states)} events; "
            "provide one read-rate sample per timeline event"
        )
    run = AdaptiveRun(
        initial_scheme=policy.scheme_id,
        final_scheme=policy.scheme_id,
        data_blocks=data_blocks,
    )
    rates = iter(read_rates)

    def steer(step: StepMetrics, placement: SimulatedPlacement) -> SimulatedPlacement:
        read_rate = float(next(rates))
        decision = policy.observe(
            AdaptiveSample(
                time=step.time,
                availability=step.availability,
                vulnerable_fraction=step.vulnerable_fraction,
                read_rate=read_rate,
            )
        )
        run.steps.append(
            AdaptiveStep(
                time=step.time,
                scheme_id=decision.scheme_id,
                availability=step.availability,
                vulnerable_fraction=step.vulnerable_fraction,
                read_rate=read_rate,
                stored_blocks=placement.total_blocks,
                action=decision.action,
            )
        )
        if decision.action == ACTION_HOLD:
            return placement
        run.decisions.append(decision)
        return build_simulation(
            policy.scheme_id, data_blocks, location_count, seed, block_size
        )

    placement = build_simulation(
        policy.scheme_id, data_blocks, location_count, seed, block_size
    )
    sample_states(placement, states, maintenance, budget, steer)
    run.final_scheme = policy.scheme_id
    return run


# ----------------------------------------------------------------------
# Canonical scenarios
# ----------------------------------------------------------------------
def _churn_timeline(
    steps: int, location_count: int, churn_every: int = 3
) -> List[SimulationEvent]:
    """A gentle, fully deterministic churn pattern: one location bounces."""
    events: List[SimulationEvent] = []
    bouncing = 0
    down = False
    for step in range(steps):
        fail: tuple = ()
        restore: tuple = ()
        if step % churn_every == churn_every - 1:
            if down:
                restore = (bouncing,)
                bouncing = (bouncing + 1) % location_count
            else:
                fail = (bouncing,)
            down = not down
        events.append(
            SimulationEvent(time=float(step), fail=fail, restore=restore, label="churn")
        )
    return events


def _scenario(
    scheme_id: str,
    early_rate: float,
    late_rate: float,
    data_blocks: int,
    location_count: int,
    seed: int,
    window: int,
) -> AdaptiveRun:
    """Gentle churn under a read schedule that switches temperature after
    two windows: ``early_rate`` reads per block per step, then ``late_rate``."""
    policy = AdaptiveMaintenancePolicy(
        scheme_id,
        window=window,
        cooldown=window,
        hot_read_rate=1.0,
        cold_read_rate=0.1,
    )
    steps = 4 * window + 2
    early_steps = 2 * window
    return run_adaptive(
        policy,
        _churn_timeline(steps, location_count),
        [early_rate] * early_steps + [late_rate] * (steps - early_steps),
        data_blocks=data_blocks,
        location_count=location_count,
        seed=seed,
    )


def cold_archive_demotion(
    *,
    data_blocks: int = 1500,
    location_count: int = 40,
    seed: int = 11,
    window: int = 3,
) -> AdaptiveRun:
    """Hot data cools into an archive: the plain lattice is punctured.

    Starts on the paper's recommended ``ae-3-2-5`` with a hot read schedule
    that decays to near zero.  Once the window is both cold and healthy the
    policy demotes to ``ae-3-2-5-p75``, shedding a quarter of the parities.
    """
    return _scenario("ae-3-2-5", 2.0, 0.02, data_blocks, location_count, seed, window)


def hot_data_promotion(
    *,
    data_blocks: int = 1500,
    location_count: int = 40,
    seed: int = 11,
    window: int = 3,
) -> AdaptiveRun:
    """An archive turns hot again: the punctured lattice is restored.

    Starts on ``ae-3-2-5-p75`` with a cold read schedule that ramps up past
    the hot threshold; the policy promotes back to the plain ``ae-3-2-5``
    and then holds (the lattice already sits at the alpha=3 ceiling).
    """
    return _scenario("ae-3-2-5-p75", 0.02, 3.0, data_blocks, location_count, seed, window)
