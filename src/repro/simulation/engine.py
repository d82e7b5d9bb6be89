"""Scheme-agnostic discrete-event disaster & churn simulation engine.

The paper's headline results (Figs. 11-13, Tables IV & VI) are
disaster-recovery and churn simulations; this engine runs them for every
scheme the :mod:`repro.schemes` registry can serve:

* :class:`SimulatedPlacement` tracks block->location liveness for one scheme
  without materialising a single payload byte -- exactly like the paper's
  table-driven simulation of Table V, which is what lets the experiments run
  at the paper's scale (one million data blocks, 100 locations) in seconds;
* two adapters cover every registered scheme: :class:`LatticeSimulation`
  (the vectorised AE(alpha, s, p) lattice) and :class:`StripeSimulation`
  (any :class:`~repro.codes.base.StripeCode` -- Reed-Solomon, LRC, flat
  XOR, replication -- driven by the code's *own* decodability test and
  cheapest repair plan, ``can_decode`` / ``repair_read_positions``);
* one timeline replay (:func:`replay_timeline`: events in, offline sets out,
  fail before restore, every id range-checked first) and one sampling loop
  (:func:`sample_states`: ``(time, offline)`` states in, an
  :class:`EngineRun` of :class:`StepMetrics` out) sit under every study over
  time -- :meth:`SimulationEngine.run_events` and the churn simulator;
* one scheme x disaster sweep (:func:`simulate_disasters`) sits under every
  Sec. V-C experiment, honouring
  :class:`~repro.storage.maintenance.MaintenancePolicy` and
  :class:`~repro.storage.maintenance.MaintenanceBudget`.

The engine reproduces the fixed-seed metrics of the three per-scheme models
it replaced (same placement draws, same repair semantics); they are pinned
as literals in ``tests/test_engine.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

import repro.schemes as schemes
from repro.codes.base import StripeCode
from repro.codes.entanglement import EntanglementScheme, PuncturedEntanglementScheme
from repro.codes.replication import ReplicationCode
from repro.core.parameters import AEParameters
from repro.core.rules import rule_offsets
from repro.exceptions import InvalidParametersError
from repro.schemes import SchemeLike
from repro.simulation.metrics import DisasterMetrics
from repro.storage.failures import ChurnTrace, Disaster
from repro.storage.maintenance import MaintenanceBudget, MaintenancePolicy
from repro.storage.topology import Topology

if TYPE_CHECKING:
    from repro.simulation.traces import SessionTrace

__all__ = [
    "EngineOutcome",
    "EngineRun",
    "LatticeSimulation",
    "SimulatedPlacement",
    "SimulationEngine",
    "SimulationEvent",
    "StepMetrics",
    "StripeSimulation",
    "build_simulation",
    "normalise_events",
    "replay_timeline",
    "sample_disaster_locations",
    "sample_states",
    "simulate_disasters",
]

#: Anything :meth:`SimulationEngine.run_disaster` accepts as a disaster: a
#: :class:`Disaster`, a topology target string (``"site:0"``), a fraction in
#: ``[0, 1]`` or an explicit array/sequence of location ids.
DisasterLike = Union[Disaster, str, float, np.ndarray, Sequence[int]]



# ----------------------------------------------------------------------
# Outcome of one disaster + repair pass
# ----------------------------------------------------------------------
@dataclass
class EngineOutcome:
    """Unified result of one disaster + repair pass over any scheme.

    ``initially_missing_redundancy`` counts missing parity/copy blocks,
    ``repaired_redundancy`` the ones the maintenance policy restored.
    ``single_failure_repairs`` is the scheme's own notion of a cheap repair:
    first-round repairs for the AE lattice (Fig. 13), repairs of a stripe's
    only missing block for stripe codes.  ``deferred_data`` counts data
    blocks that were repairable but left missing because the
    :class:`~repro.storage.maintenance.MaintenanceBudget` ran out -- they are
    *not* data loss.
    """

    scheme: str
    scheme_id: str
    data_blocks: int
    initially_missing_data: int = 0
    initially_missing_redundancy: int = 0
    repaired_data: int = 0
    repaired_redundancy: int = 0
    single_failure_repairs: int = 0
    rounds: int = 0
    repaired_per_round: List[int] = field(default_factory=list)
    data_loss: int = 0
    vulnerable_data: int = 0
    blocks_read: int = 0
    deferred_data: int = 0

    @property
    def single_failure_fraction(self) -> float:
        """Share of repaired data blocks fixed by the cheap single-failure path."""
        if self.repaired_data == 0:
            return 0.0
        return self.single_failure_repairs / self.repaired_data

    def metrics(self, disaster_fraction: float, label: str = "") -> DisasterMetrics:
        """Condense into the table-friendly :class:`DisasterMetrics` cell."""
        return DisasterMetrics(
            scheme=self.scheme,
            disaster_fraction=disaster_fraction,
            data_blocks=self.data_blocks,
            data_loss=self.data_loss,
            vulnerable_data=self.vulnerable_data,
            repair_rounds=self.rounds,
            single_failure_fraction=self.single_failure_fraction,
            repaired_data=self.repaired_data,
            blocks_read=self.blocks_read,
            deferred_data=self.deferred_data,
            label=label,
        )


# ----------------------------------------------------------------------
# The liveness-tracking placements
# ----------------------------------------------------------------------
class SimulatedPlacement(ABC):
    """Block->location liveness of one scheme, without materialised bytes.

    Subclasses lay the scheme's blocks out over ``location_count`` locations
    (random placement, like the paper's Sec. V-C setup) and answer one
    question: given a set of failed locations and a maintenance policy, what
    happens to the data?
    """

    def __init__(
        self, scheme_id: str, name: str, data_blocks: int, location_count: int, seed: int
    ) -> None:
        if data_blocks < 1:
            raise InvalidParametersError("data_blocks must be positive")
        if location_count < 1:
            raise InvalidParametersError("location_count must be positive")
        #: Registry identifier of the simulated scheme (e.g. ``"rs-10-4"``).
        self.scheme_id = scheme_id
        #: Display name of the scheme (e.g. ``"RS(10,4)"``).
        self.name = name
        self.data_blocks = data_blocks
        self.location_count = location_count
        self.seed = seed

    @property
    @abstractmethod
    def redundancy_blocks(self) -> int:
        """Parity / copy blocks stored next to the data blocks."""

    @property
    def total_blocks(self) -> int:
        return self.data_blocks + self.redundancy_blocks

    @abstractmethod
    def blocks_per_location(self) -> np.ndarray:
        """Histogram of blocks per location (placement balance check)."""

    @abstractmethod
    def run_repair(
        self,
        failed_locations: np.ndarray,
        policy: MaintenancePolicy = MaintenancePolicy.FULL,
        budget: Optional[MaintenanceBudget] = None,
        max_rounds: int = 200,
    ) -> EngineOutcome:
        """Apply a disaster, run policy-driven repair, collect the metrics."""

    def _failed_mask(self, failed_locations: np.ndarray) -> np.ndarray:
        mask = np.zeros(self.location_count, dtype=bool)
        mask[np.asarray(failed_locations, dtype=np.int64)] = True
        return mask


class LatticeSimulation(SimulatedPlacement):
    """Availability-only simulation of an AE(alpha, s, p) helical lattice.

    The lattice is kept as a handful of numpy arrays (``data_location``,
    ``parity_location``, the input/output wiring) and repair rounds are
    whole-array operations -- the scheme's own repair plan, vectorised:
    a data block is repairable when some strand still has both adjacent
    parities (a pp-tuple), a parity when an adjacent dp-tuple survives.
    """

    def __init__(
        self,
        params: AEParameters,
        data_blocks: int,
        location_count: int = 100,
        seed: int = 0,
        scheme_id: Optional[str] = None,
        punctured: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(
            scheme_id or params.scheme_id, params.spec(), data_blocks, location_count, seed
        )
        self._params = params
        rng = np.random.default_rng(seed)
        alpha = params.alpha
        #: Random placement: every block (data and parity) gets a location.
        self.data_location = rng.integers(0, location_count, size=data_blocks, dtype=np.int64)
        self.parity_location = rng.integers(
            0, location_count, size=(data_blocks, alpha), dtype=np.int64
        )
        #: (n, alpha) mask of punctured parities: never stored, so missing at
        #: time zero -- but regenerable, so FULL maintenance may rebuild them.
        if punctured is None:
            self.punctured = np.zeros((data_blocks, alpha), dtype=bool)
        else:
            self.punctured = np.asarray(punctured, dtype=bool)
            if self.punctured.shape != (data_blocks, alpha):
                raise InvalidParametersError(
                    f"punctured mask shape {self.punctured.shape} does not "
                    f"match (data_blocks, alpha) = ({data_blocks}, {alpha})"
                )
        #: Lattice wiring, (n, alpha): Tables I and II for nodes ``1..n`` in
        #: strand-class order.  ``input_creator`` 0 means "virtual zero
        #: parity" (the strand starts at that node).
        indices = np.arange(1, data_blocks + 1, dtype=np.int64)
        rows = (indices - 1) % params.s
        offsets = rule_offsets(params).values()
        self.input_creator = np.stack(
            [np.maximum(indices + np.asarray(inputs)[rows], 0) for inputs, _ in offsets],
            axis=1,
        )
        self.output_node = np.stack(
            [indices + np.asarray(outputs)[rows] for _, outputs in offsets], axis=1
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def params(self) -> AEParameters:
        return self._params

    @property
    def parity_blocks(self) -> int:
        """Parities actually stored (punctured ones are never written)."""
        return self.data_blocks * self._params.alpha - int(self.punctured.sum())

    @property
    def redundancy_blocks(self) -> int:
        return self.parity_blocks

    def blocks_per_location(self) -> np.ndarray:
        counts = np.bincount(self.data_location, minlength=self.location_count)
        counts = counts + np.bincount(
            self.parity_location[~self.punctured], minlength=self.location_count
        )
        return counts

    # ------------------------------------------------------------------
    # Disaster + repair
    # ------------------------------------------------------------------
    def availability_after(self, failed_locations: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Initial availability arrays after the given locations fail.

        Punctured parities start out missing regardless of location health --
        they were never stored.  The repair rounds may still regenerate them
        (they are ordinary XOR parities), which mirrors how the storage layer
        materialises punctured parities on demand during repair.
        """
        failed_mask = self._failed_mask(failed_locations)
        data_available = ~failed_mask[self.data_location]
        parity_available = ~failed_mask[self.parity_location] & ~self.punctured
        return data_available, parity_available

    def _input_parity_available(self, parity_available: np.ndarray) -> np.ndarray:
        """Availability of the input parity of every (node, class) pair.

        Virtual zero parities (strand starts) are always available.
        """
        alpha = self._params.alpha
        result = np.ones((self.data_blocks, alpha), dtype=bool)
        for c in range(alpha):
            creators = self.input_creator[:, c]
            has_input = creators >= 1
            idx = np.clip(creators - 1, 0, self.data_blocks - 1)
            result[:, c] = np.where(has_input, parity_available[idx, c], True)
        return result

    @staticmethod
    def _clip_repairs(repairable: np.ndarray, allowed: int) -> np.ndarray:
        """Deterministically keep the first ``allowed`` repairable entries."""
        flat = repairable.ravel()
        over = int(flat.sum()) - allowed
        if over <= 0:
            return repairable
        kept = flat.copy()
        chosen = np.flatnonzero(flat)[allowed:]
        kept[chosen] = False
        return kept.reshape(repairable.shape)

    def run_repair(
        self,
        failed_locations: np.ndarray,
        policy: MaintenancePolicy = MaintenancePolicy.FULL,
        budget: Optional[MaintenanceBudget] = None,
        max_rounds: int = 200,
    ) -> EngineOutcome:
        """Round-based repair until a fixpoint, ``max_rounds`` or the budget.

        ``MaintenancePolicy.MINIMAL`` rebuilds data blocks only (the Fig. 12
        regime); ``NONE`` measures raw exposure without any repairs.
        """
        budget = budget or MaintenanceBudget.unlimited()
        repair_parities = policy.repairs_parities()
        data_available, parity_available = self.availability_after(failed_locations)
        outcome = EngineOutcome(
            scheme=self.name,
            scheme_id=self.scheme_id,
            data_blocks=self.data_blocks,
            initially_missing_data=int((~data_available).sum()),
            initially_missing_redundancy=int((~parity_available).sum()),
        )
        alpha = self._params.alpha

        if policy is not MaintenancePolicy.NONE:
            for round_number in range(1, max_rounds + 1):
                if not budget.allows_round(round_number):
                    break
                input_avail = self._input_parity_available(parity_available)
                # Data block repair: some strand has both adjacent parities.
                data_repairable = (~data_available) & np.any(
                    input_avail & parity_available, axis=1
                )
                # Parity repair (two dp-tuples).
                if repair_parities:
                    left_ok = data_available[:, None] & input_avail
                    successor = self.output_node  # (n, alpha)
                    successor_exists = successor <= self.data_blocks
                    succ_idx = np.clip(successor - 1, 0, self.data_blocks - 1)
                    right_data = data_available[succ_idx]
                    right_parity = parity_available[succ_idx, np.arange(alpha)[None, :]]
                    right_ok = successor_exists & right_data & right_parity
                    parity_repairable = (~parity_available) & (left_ok | right_ok)
                else:
                    parity_repairable = np.zeros_like(parity_available)

                if budget.max_repairs_per_round is not None:
                    allowed = budget.clip_round(
                        int(data_repairable.sum()) + int(parity_repairable.sum())
                    )
                    data_repairable = self._clip_repairs(data_repairable, allowed)
                    allowed -= int(data_repairable.sum())
                    parity_repairable = self._clip_repairs(parity_repairable, allowed)

                repaired_now = int(data_repairable.sum()) + int(parity_repairable.sum())
                if repaired_now == 0:
                    break
                if round_number == 1:
                    outcome.single_failure_repairs = int(data_repairable.sum())
                outcome.repaired_data += int(data_repairable.sum())
                outcome.repaired_redundancy += int(parity_repairable.sum())
                outcome.repaired_per_round.append(repaired_now)
                data_available = data_available | data_repairable
                parity_available = parity_available | parity_repairable
            outcome.rounds = len(outcome.repaired_per_round)

        outcome.data_loss = int((~data_available).sum())
        outcome.vulnerable_data = self._vulnerable_data(data_available, parity_available)
        # Every lattice repair XORs exactly two surviving blocks (Sec. V-C3).
        outcome.blocks_read = 2 * (outcome.repaired_data + outcome.repaired_redundancy)
        budget_limited = (
            budget.max_repairs_per_round is not None or budget.max_rounds is not None
        )
        if budget_limited and policy is not MaintenancePolicy.NONE:
            # Blocks still repairable when the budget ran out are deferred,
            # not lost (under NONE nothing would ever repair them).
            outcome.deferred_data = self._deferred_data(data_available, parity_available)
            outcome.data_loss -= outcome.deferred_data
        return outcome

    def _deferred_data(
        self, data_available: np.ndarray, parity_available: np.ndarray
    ) -> int:
        """Missing data blocks that are still repairable (budget ran out)."""
        input_avail = self._input_parity_available(parity_available)
        repairable = (~data_available) & np.any(input_avail & parity_available, axis=1)
        return int(repairable.sum())

    def _vulnerable_data(
        self, data_available: np.ndarray, parity_available: np.ndarray
    ) -> int:
        """Data blocks present but no longer protected by any complete pp-tuple."""
        input_avail = self._input_parity_available(parity_available)
        protected = np.any(input_avail & parity_available, axis=1)
        return int((data_available & ~protected).sum())


@dataclass
class StripeDisasterState:
    """Raw per-stripe evaluation of one disaster over a stripe population.

    All arrays are per stripe; ``vulnerable_*`` count vulnerable *data*
    blocks under the respective maintenance policy.
    """

    unavailable: np.ndarray  # (stripes, n) bool; padding forced available
    data_missing: np.ndarray  # (stripes, k) bool, masked to real data
    decodable: np.ndarray  # (stripes,) bool, via the code's can_decode
    missing_count: np.ndarray  # (stripes,) missing blocks (padding excluded)
    data_missing_count: np.ndarray  # (stripes,)
    redundancy_missing_count: np.ndarray  # (stripes,)
    stripe_reads: np.ndarray  # (stripes,) reads of the cheapest repair plan
    single_failure: np.ndarray  # (stripes,) bool: only failure is one data block
    vulnerable_none: np.ndarray  # (stripes,)
    vulnerable_minimal: np.ndarray  # (stripes,)
    vulnerable_full: np.ndarray  # (stripes,)


class StripeSimulation(SimulatedPlacement):
    """Availability-only simulation of any :class:`StripeCode` population.

    Data blocks are packed ``k`` per stripe (the final stripe is completed
    with always-available zero padding) and every stripe's ``n`` blocks get
    random locations.  Decodability and repair-read costs are *delegated to
    the code*: stripes are grouped by their failure pattern and each unique
    pattern is answered once through ``can_decode`` (the scheme's erasure
    tolerance, a rank test) and ``repair_read_positions`` (the scheme's
    cheapest repair plan -- ``k`` blocks for RS, the local group for LRC,
    the smallest parity equation for flat XOR, one copy for replication).
    Codes that declare ``mds`` (RS, replication) take a closed-form fast
    path that skips the pattern loop entirely.
    """

    def __init__(
        self,
        code: StripeCode,
        data_blocks: int,
        location_count: int = 100,
        seed: int = 0,
        scheme_id: Optional[str] = None,
    ) -> None:
        super().__init__(
            scheme_id or f"stripe-{code.name}", code.name, data_blocks, location_count, seed
        )
        self._code = code
        self.stripes = -(-data_blocks // code.k)
        rng = np.random.default_rng(seed)
        #: Locations of every block, shape (stripes, k + m); data first.
        self.block_location = rng.integers(
            0, location_count, size=(self.stripes, code.n), dtype=np.int64
        )
        #: Mask of data positions that actually hold data (the last stripe may
        #: be partially filled with zero padding).
        self.data_mask = np.zeros((self.stripes, code.k), dtype=bool)
        self.data_mask.ravel()[:data_blocks] = True
        self._is_replication = isinstance(code, ReplicationCode)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def code(self) -> StripeCode:
        return self._code

    @property
    def encoded_blocks(self) -> int:
        return self.stripes * self._code.m

    @property
    def redundancy_blocks(self) -> int:
        return self.encoded_blocks

    def blocks_per_location(self) -> np.ndarray:
        return np.bincount(self.block_location.ravel(), minlength=self.location_count)

    def stripes_fully_spread(self) -> int:
        """Stripes whose n blocks all landed on distinct locations.

        Reproduces the placement-skew observation of Sec. V-C ("only 38,429
        stripes had their 14 blocks distributed to different locations").
        """
        sorted_locations = np.sort(self.block_location, axis=1)
        distinct = (np.diff(sorted_locations, axis=1) != 0).sum(axis=1) + 1
        return int((distinct == self._code.n).sum())

    # ------------------------------------------------------------------
    # Disaster evaluation
    # ------------------------------------------------------------------
    def evaluate(self, failed_locations: np.ndarray) -> StripeDisasterState:
        """Evaluate one disaster: decodability, repair reads, vulnerability."""
        code = self._code
        k, n = code.k, code.n
        failed_mask = self._failed_mask(failed_locations)
        unavailable = failed_mask[self.block_location]  # (stripes, n)
        # Padding blocks are zero by construction, hence always recoverable:
        # treat them as available.
        unavailable[:, :k] &= self.data_mask
        data_missing = unavailable[:, :k]
        data_missing_count = data_missing.sum(axis=1)
        redundancy_missing_count = unavailable[:, k:].sum(axis=1)
        missing_count = data_missing_count + redundancy_missing_count

        if self._is_replication:
            per_pattern = None
            available_count = n - missing_count
            decodable = available_count >= 1
            # The cheapest plan copies one surviving replica.
            stripe_reads = np.where(decodable & (data_missing_count > 0), 1, 0)
            single_failure = (missing_count == 1) & (data_missing_count == 1)
            primary_up = ~data_missing[:, 0]
            # Legacy semantics: minimal maintenance restores nothing beyond
            # the primary copy, so a block is vulnerable when a single copy
            # survives the disaster.
            vulnerable_minimal = (available_count == 1).astype(np.int64)
            vulnerable_none = ((available_count == 1) & primary_up).astype(np.int64)
            vulnerable_full = np.zeros(self.stripes, dtype=np.int64)
        elif code.mds:  # any k blocks decode: a closed form
            per_pattern = None
            m = code.m
            decodable = missing_count <= m
            stripe_reads = np.where(decodable & (data_missing_count > 0), k, 0)
            single_failure = (missing_count == 1) & (data_missing_count == 1)
            present_none = self.data_mask & ~data_missing
            present_after = self.data_mask & (~data_missing | decodable[:, None])
            # A data block is vulnerable when the remaining blocks no longer
            # determine it: fewer than k other blocks available.
            residual_minimal = np.where(decodable, redundancy_missing_count, missing_count)
            vulnerable_minimal = np.where(
                residual_minimal >= m, present_after.sum(axis=1), 0
            )
            vulnerable_none = np.where(missing_count >= m, present_none.sum(axis=1), 0)
            vulnerable_full = np.where(decodable, 0, present_none.sum(axis=1))
        else:
            per_pattern = self._evaluate_patterns(unavailable)
            (decodable, stripe_reads, single_failure,
             vulnerable_none, vulnerable_minimal, vulnerable_full) = per_pattern

        return StripeDisasterState(
            unavailable=unavailable,
            data_missing=data_missing,
            decodable=decodable,
            missing_count=missing_count,
            data_missing_count=data_missing_count,
            redundancy_missing_count=redundancy_missing_count,
            stripe_reads=stripe_reads,
            single_failure=single_failure,
            vulnerable_none=vulnerable_none,
            vulnerable_minimal=vulnerable_minimal,
            vulnerable_full=vulnerable_full,
        )

    def _evaluate_patterns(self, unavailable: np.ndarray) -> StripeDisasterState:
        """Generic path: answer each unique failure pattern through the code."""
        code = self._code
        k, n = code.k, code.n
        packed = np.packbits(unavailable, axis=1)
        patterns, inverse = np.unique(packed, axis=0, return_inverse=True)
        count = patterns.shape[0]
        decodable_u = np.zeros(count, dtype=bool)
        reads_u = np.zeros(count, dtype=np.int64)
        single_u = np.zeros(count, dtype=bool)
        vuln_none_u = np.zeros((count, k), dtype=bool)
        vuln_minimal_u = np.zeros((count, k), dtype=bool)
        vuln_full_u = np.zeros((count, k), dtype=bool)

        def vulnerable_positions(available_after: set) -> np.ndarray:
            out = np.zeros(k, dtype=bool)
            for position in available_after:
                if position >= k:
                    continue
                plan = code.repair_read_positions(
                    position, sorted(available_after - {position})
                )
                out[position] = plan is None
            return out

        for index in range(count):
            pattern = np.unpackbits(patterns[index])[:n].astype(bool)
            missing = np.flatnonzero(pattern)
            available = [int(p) for p in np.flatnonzero(~pattern)]
            decodable = code.can_decode(available)
            decodable_u[index] = decodable
            missing_data = [int(p) for p in missing if p < k]
            if decodable and missing_data:
                # Union of the cheapest plans: a block fetched for one repair
                # is cached for the next (the live StripeScheme's semantics).
                union: set = set()
                for position in missing_data:
                    plan = code.repair_read_positions(position, available)
                    if plan is None:
                        union = set(available)
                        break
                    union.update(plan)
                reads_u[index] = len(union)
            single_u[index] = len(missing) == 1 and bool(missing[0] < k)
            available_set = set(available)
            vuln_none_u[index] = vulnerable_positions(available_set)
            after_minimal = (
                available_set | set(missing_data) if decodable else available_set
            )
            vuln_minimal_u[index] = vulnerable_positions(after_minimal)
            after_full = set(range(n)) if decodable else available_set
            vuln_full_u[index] = vulnerable_positions(after_full)

        def per_stripe(vuln: np.ndarray) -> np.ndarray:
            return (vuln[inverse] & self.data_mask).sum(axis=1)

        return (
            decodable_u[inverse],
            reads_u[inverse],
            single_u[inverse],
            per_stripe(vuln_none_u),
            per_stripe(vuln_minimal_u),
            per_stripe(vuln_full_u),
        )

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def run_repair(
        self,
        failed_locations: np.ndarray,
        policy: MaintenancePolicy = MaintenancePolicy.FULL,
        budget: Optional[MaintenanceBudget] = None,
        max_rounds: int = 200,
    ) -> EngineOutcome:
        """Apply a disaster and collect the stripe metrics for ``policy``.

        Stripe repair is single-round (every decodable stripe is restored in
        one decode); ``budget.max_repairs_per_round`` caps the number of data
        blocks repaired, in stripe order, leaving the rest *deferred*.
        """
        budget = budget or MaintenanceBudget.unlimited()
        state = self.evaluate(failed_locations)
        outcome = EngineOutcome(
            scheme=self.name,
            scheme_id=self.scheme_id,
            data_blocks=self.data_blocks,
            initially_missing_data=int(state.data_missing_count.sum()),
            initially_missing_redundancy=int(state.redundancy_missing_count.sum()),
        )
        repairable = state.decodable & (state.data_missing_count > 0)
        unrecoverable = int(state.data_missing_count[~state.decodable].sum())

        if policy is MaintenancePolicy.NONE:
            outcome.data_loss = outcome.initially_missing_data
            outcome.vulnerable_data = int(state.vulnerable_none.sum())
            return outcome

        repaired_per_stripe = np.where(repairable, state.data_missing_count, 0)
        reads_per_stripe = np.where(repairable, state.stripe_reads, 0)
        repairable_redundancy = (
            int(state.redundancy_missing_count[state.decodable].sum())
            if policy.repairs_parities()
            else 0
        )
        if not budget.allows_round(1):
            outcome.deferred_data = int(repaired_per_stripe.sum())
            repaired_per_stripe = np.zeros_like(repaired_per_stripe)
            reads_per_stripe = np.zeros_like(reads_per_stripe)
            repairable_redundancy = 0
        elif budget.max_repairs_per_round is not None:
            allowed = budget.clip_round(int(repaired_per_stripe.sum()))
            cumulative = np.cumsum(repaired_per_stripe)
            over = cumulative > allowed
            outcome.deferred_data = int(repaired_per_stripe[over].sum())
            repaired_per_stripe = np.where(over, 0, repaired_per_stripe)
            reads_per_stripe = np.where(over, 0, reads_per_stripe)
            # Data repairs take priority; leftover allowance goes to parities.
            allowance_left = budget.clip_round(
                int(repaired_per_stripe.sum()) + repairable_redundancy
            ) - int(repaired_per_stripe.sum())
            repairable_redundancy = min(repairable_redundancy, max(allowance_left, 0))

        outcome.repaired_data = int(repaired_per_stripe.sum())
        outcome.repaired_redundancy = repairable_redundancy
        outcome.single_failure_repairs = int(
            (state.single_failure & (repaired_per_stripe > 0)).sum()
        )
        outcome.blocks_read = int(reads_per_stripe.sum())
        outcome.rounds = 1 if outcome.repaired_data or outcome.repaired_redundancy else 0
        if outcome.rounds:
            outcome.repaired_per_round = [
                outcome.repaired_data + outcome.repaired_redundancy
            ]
        outcome.data_loss = unrecoverable
        vulnerable = (
            state.vulnerable_full
            if policy.repairs_parities()
            else state.vulnerable_minimal
        )
        outcome.vulnerable_data = int(vulnerable.sum())
        return outcome


# ----------------------------------------------------------------------
# Placement construction
# ----------------------------------------------------------------------
def build_simulation(
    scheme: SchemeLike,
    data_blocks: int,
    location_count: int = 100,
    seed: int = 0,
    block_size: int = 4096,
) -> SimulatedPlacement:
    """Build the availability simulation of any scheme.

    ``scheme`` is anything :func:`repro.schemes.resolve` names a scheme by: a
    registry identifier (``"ae-3-2-5"``, ``"rs-10-4"``, ``"lrc-azure"``,
    ``"rep-3"``, ``"xor-geo"``, ...), an :class:`AEParameters` setting, a
    bare :class:`~repro.codes.base.StripeCode` or a live
    :class:`~repro.schemes.base.RedundancyScheme` instance.
    """
    resolved = schemes.resolve(scheme, block_size)
    if isinstance(resolved, EntanglementScheme):
        # The store's own punctured set: column ``c`` follows
        # ``params.strand_classes``, as the parity-location columns do.
        punctured = (
            resolved.punctured_code.mask(data_blocks)
            if isinstance(resolved, PuncturedEntanglementScheme)
            else None
        )
        return LatticeSimulation(
            resolved.params,
            data_blocks,
            location_count,
            seed,
            scheme_id=resolved.scheme_id,
            punctured=punctured,
        )
    if isinstance(resolved, schemes.StripeScheme):
        return StripeSimulation(
            resolved.code, data_blocks, location_count, seed, scheme_id=resolved.scheme_id
        )
    raise InvalidParametersError(
        f"no availability model for {resolved!r}: neither an entanglement "
        "lattice nor a stripe code"
    )


# ----------------------------------------------------------------------
# The event loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimulationEvent:
    """One step of the discrete-event timeline: locations failing/returning."""

    time: float
    fail: Tuple[int, ...] = ()
    restore: Tuple[int, ...] = ()
    label: str = ""


#: Anything :func:`normalise_events` turns into an event timeline.
EventSource = Union[
    Disaster, ChurnTrace, SimulationEvent, "SessionTrace", Iterable[object]
]


def normalise_events(source: EventSource) -> List[SimulationEvent]:
    """Normalise any failure source into a list of :class:`SimulationEvent`.

    Accepts a :class:`Disaster` (one-shot, including whole-domain disasters
    from :func:`~repro.storage.failures.disaster_for_target`), a :class:`ChurnTrace`,
    a :class:`~repro.simulation.traces.SessionTrace` (discretised first), a
    ready list of events, or any iterable mixing them.
    """
    from repro.simulation.traces import SessionTrace

    if isinstance(source, (str, bytes)):
        raise InvalidParametersError(
            f"cannot interpret {source!r} as simulation events; load trace "
            "files first (ChurnTrace.load(path))"
        )
    if isinstance(source, SimulationEvent):
        return [source]
    if isinstance(source, Disaster):
        return [
            SimulationEvent(time=0.0, fail=tuple(source.failed_locations), label="disaster")
        ]
    if isinstance(source, ChurnTrace):
        return [
            SimulationEvent(
                time=float(event.time),
                fail=tuple(event.departures),
                restore=tuple(event.arrivals),
                label="churn",
            )
            for event in source.events
        ]
    if isinstance(source, SessionTrace):
        return normalise_events(source.to_churn_trace())
    if isinstance(source, Iterable):
        events: List[SimulationEvent] = []
        for item in source:
            events.extend(normalise_events(item))
        return events
    raise InvalidParametersError(f"cannot interpret {source!r} as simulation events")


def replay_timeline(
    events: EventSource, location_count: int
) -> List[Tuple[float, np.ndarray]]:
    """The ``(time, offline location ids)`` state after every event of a timeline.

    An event takes its ``fail`` locations down and *then* brings its
    ``restore`` locations back -- the order :meth:`ChurnTrace.poisson
    <repro.storage.failures.ChurnTrace.poisson>` builds its events in and
    :meth:`ChurnTrace.replay <repro.storage.failures.ChurnTrace.replay>`
    applies them to a live cluster in.  Every id of both tuples is checked
    against ``0..location_count-1`` before the first state is produced.
    """
    timeline = normalise_events(events)
    out_of_range = {
        location
        for event in timeline
        for location in (*event.fail, *event.restore)
        if not 0 <= location < location_count
    }
    if out_of_range:
        raise InvalidParametersError(
            f"event locations {sorted(out_of_range)[:5]} lie outside "
            f"0..{location_count - 1}; the trace needs at least "
            f"{max(out_of_range) + 1} locations"
        )
    offline: set = set()
    states: List[Tuple[float, np.ndarray]] = []
    for event in timeline:
        offline.update(event.fail)
        offline.difference_update(event.restore)
        states.append(
            (event.time, np.fromiter(sorted(offline), dtype=np.int64, count=len(offline)))
        )
    return states


@dataclass(frozen=True)
class StepMetrics:
    """State of one scheme at one instant of a timeline.

    ``unavailable_data`` counts data blocks the scheme cannot serve given the
    offline locations -- under ``FULL`` / ``MINIMAL`` a block counts as
    available when it can still be decoded from online blocks (degraded
    reads), ``NONE`` reports raw exposure -- and ``vulnerable_data`` the data
    blocks left without a complete repair tuple.
    """

    time: float
    offline_locations: int
    unavailable_data: int
    data_blocks: int
    vulnerable_data: int = 0

    @property
    def availability(self) -> float:
        if self.data_blocks == 0:
            return 1.0
        return 1.0 - self.unavailable_data / self.data_blocks

    @property
    def vulnerable_fraction(self) -> float:
        if self.data_blocks == 0:
            return 0.0
        return self.vulnerable_data / self.data_blocks


class AvailabilitySeries:
    """Mean / minimum availability over ``self.steps``, whose records each
    carry an ``availability``; 1.0 for an empty series."""

    steps: Sequence

    @property
    def mean_availability(self) -> float:
        if not self.steps:
            return 1.0
        return float(np.mean([step.availability for step in self.steps]))

    @property
    def min_availability(self) -> float:
        if not self.steps:
            return 1.0
        return float(np.min([step.availability for step in self.steps]))


@dataclass
class EngineRun(AvailabilitySeries):
    """Full timeline result for one scheme."""

    scheme: str
    scheme_id: str
    data_blocks: int
    steps: List[StepMetrics] = field(default_factory=list)

    @property
    def max_offline(self) -> int:
        return max((step.offline_locations for step in self.steps), default=0)

    @property
    def final_unavailable(self) -> int:
        return self.steps[-1].unavailable_data if self.steps else 0

    def as_row(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "events": len(self.steps),
            "max offline": self.max_offline,
            "mean availability": round(self.mean_availability, 6),
            "min availability": round(self.min_availability, 6),
            "unavailable at end": self.final_unavailable,
        }


def sample_states(
    placement: SimulatedPlacement,
    states: Iterable[Tuple[float, np.ndarray]],
    policy: MaintenancePolicy = MaintenancePolicy.FULL,
    budget: Optional[MaintenanceBudget] = None,
) -> EngineRun:
    """Sample what ``placement`` can serve at every ``(time, offline)`` state.

    Repairs are *evaluated* per state but not persisted: like the paper's
    availability study, the question is what the scheme can serve at each
    instant, not where rebuilt blocks would land.  Every state goes through
    ``run_repair``, a healthy one too: a punctured lattice under ``MINIMAL``
    or ``NONE`` maintenance holds vulnerable data with nothing offline.
    """
    run = EngineRun(placement.name, placement.scheme_id, placement.data_blocks)
    for time, offline in states:
        outcome = placement.run_repair(offline, policy=policy, budget=budget)
        run.steps.append(
            StepMetrics(
                time,
                int(offline.size),
                outcome.data_loss,
                placement.data_blocks,
                outcome.vulnerable_data,
            )
        )
    return run


class SimulationEngine:
    """Discrete-event disaster & churn simulation of one scheme.

    One engine wraps one :class:`SimulatedPlacement` (built from any registry
    scheme id) and runs one-shot disasters or event timelines against it with
    a maintenance policy and budget.

    Passing ``topology=`` (a :class:`~repro.storage.topology.Topology`, a
    compact spec string or a JSON file path) sizes the simulation from the
    topology and lets disasters target whole failure domains by name:
    ``engine.run_disaster("site:0")``.
    """

    def __init__(
        self,
        scheme: SchemeLike,
        data_blocks: int = 100_000,
        location_count: int = 100,
        seed: int = 0,
        policy: MaintenancePolicy = MaintenancePolicy.FULL,
        budget: Optional[MaintenanceBudget] = None,
        block_size: int = 4096,
        topology: Optional[Union[Topology, int, str]] = None,
    ) -> None:
        self._topology = Topology.resolve(topology)
        if self._topology is not None:
            location_count = self._topology.node_count
        self._placement = build_simulation(
            scheme, data_blocks, location_count, seed, block_size
        )
        self._policy = policy
        self._budget = budget

    @property
    def placement(self) -> SimulatedPlacement:
        return self._placement

    @property
    def topology(self) -> Optional[Topology]:
        """The explicit topology of the simulated cluster, if one was given."""
        return self._topology

    @property
    def scheme_name(self) -> str:
        return self._placement.name

    # ------------------------------------------------------------------
    def _disaster_locations(self, disaster: DisasterLike) -> np.ndarray:
        if isinstance(disaster, Disaster):
            return np.asarray(disaster.failed_locations, dtype=np.int64)
        if isinstance(disaster, str):
            if self._topology is None:
                raise InvalidParametersError(
                    f"disaster target {disaster!r} needs a topology; build "
                    "the engine with topology='sites=...,racks=...,nodes=...'"
                )
            return np.asarray(
                self._topology.locations_for_target(disaster), dtype=np.int64
            )
        if isinstance(disaster, float):
            return sample_disaster_locations(
                self._placement.location_count, disaster, self._placement.seed
            )
        return np.asarray(disaster, dtype=np.int64)

    def run_disaster(
        self,
        disaster: DisasterLike,
        disaster_fraction: Optional[float] = None,
        policy: Optional[MaintenancePolicy] = None,
        budget: Optional[MaintenanceBudget] = None,
    ) -> DisasterMetrics:
        """One-shot disaster: fail, repair per policy, report the metrics.

        ``disaster`` may be a :class:`Disaster`, a topology target string
        (``"site:0"``, needs ``topology=``), an array of location ids or a
        fraction in ``[0, 1]`` (sampled with the placement's seed).  Target
        strings (and labelled :class:`Disaster` instances) carry their label
        into the reported metrics row.
        """
        failed = self._disaster_locations(disaster)
        outcome = self.run_outcome(failed, policy, budget)
        if disaster_fraction is None:
            disaster_fraction = failed.size / self._placement.location_count
        if isinstance(disaster, str):
            label = disaster
        else:
            label = disaster.label if isinstance(disaster, Disaster) else ""
        return outcome.metrics(disaster_fraction, label=label)

    def run_outcome(
        self,
        disaster: DisasterLike,
        policy: Optional[MaintenancePolicy] = None,
        budget: Optional[MaintenanceBudget] = None,
    ) -> EngineOutcome:
        """Like :meth:`run_disaster` but returning the full outcome."""
        return self._placement.run_repair(
            self._disaster_locations(disaster),
            policy=policy or self._policy,
            budget=budget or self._budget,
        )

    def run_events(self, events: EventSource) -> EngineRun:
        """Replay an event timeline, sampling data availability per event
        (:func:`replay_timeline`, then :func:`sample_states` under the
        engine's policy and budget)."""
        states = replay_timeline(events, self._placement.location_count)
        return sample_states(self._placement, states, self._policy, self._budget)


# ----------------------------------------------------------------------
# Batch drivers
# ----------------------------------------------------------------------
def sample_disaster_locations(
    location_count: int, fraction: float, seed: int, offset: int = 0
) -> np.ndarray:
    """Locations taken down by a disaster of the given size (paper, Sec. V-C).

    Uses the same draw as the legacy experiment runner
    (``default_rng(seed + 1000 * offset)``), so engine results line up with
    the historical fixed-seed figures.
    """
    if not 0.0 <= fraction <= 1.0:
        raise InvalidParametersError("disaster fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed + 1000 * offset)
    count = int(round(location_count * fraction))
    return np.sort(rng.choice(location_count, size=count, replace=False))


def simulate_disasters(
    scheme_ids: Sequence[SchemeLike],
    data_blocks: int = 20_000,
    location_count: int = 100,
    seed: int = 7,
    fractions: Sequence[Union[float, str]] = (0.10, 0.20, 0.30, 0.40, 0.50),
    policy: MaintenancePolicy = MaintenancePolicy.FULL,
    budget: Optional[MaintenanceBudget] = None,
    topology: Optional[Union[Topology, int, str]] = None,
) -> List[DisasterMetrics]:
    """Disaster-recovery metrics for every scheme at every disaster size.

    The one scheme x disaster sweep: one placement per scheme (built once,
    reused across fractions) and one independently drawn disaster per
    fraction, ``sample_disaster_locations(location_count, fraction, seed,
    offset)`` with the fraction's position as ``offset``.  ``fractions``
    entries may also be topology target strings (``"site:0"``,
    ``"rack:eu/1"``), resolved against ``topology`` -- those disasters are
    deterministic whole-domain outages rather than random draws.  Returns one
    :class:`DisasterMetrics` per (scheme, fraction) cell, fraction-major so
    the rows print like Figs. 11-13; the Sec. V-C experiments are projections
    of these rows.
    """
    resolved_topology = Topology.resolve(topology)
    if resolved_topology is not None:
        location_count = resolved_topology.node_count
    engines = [
        SimulationEngine(
            scheme_id,
            data_blocks,
            location_count,
            seed,
            policy=policy,
            budget=budget,
            topology=resolved_topology,
        )
        for scheme_id in scheme_ids
    ]
    results: List[DisasterMetrics] = []
    for offset, fraction in enumerate(fractions):
        if isinstance(fraction, str):
            # The engine resolves the target and labels the row with it.
            disaster: DisasterLike = fraction
            size = None
        else:
            disaster = sample_disaster_locations(location_count, fraction, seed, offset)
            size = fraction
        results.extend(
            engine.run_disaster(disaster, disaster_fraction=size) for engine in engines
        )
    return results
