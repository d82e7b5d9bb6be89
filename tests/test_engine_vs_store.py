"""The availability engine checked against the live store (ROADMAP 4e).

The simulation engine never moves a byte: it decides what a disaster costs
from block -> location arrays and its own vectorised repair rules.  The store
repairs real payloads through ``StorageService.repair()``.  Here both see the
*same* placement -- the engine's public location arrays are overwritten with
the live cluster's ``location_of`` -- and the same failed locations, and must
agree on data loss, repair rounds and the number of blocks repaired.

For a punctured setting ``rounds`` is only ordered: the engine regenerates
all 466 never-stored parities on paper from round one; the store regenerates
only what a stuck target needs, once it is stuck, so it finishes later (PR 24:
5 | 7, 7 | 14 and 5 | 11 rounds on the three disasters below).

``blocks_read`` is deliberately not asserted equal: the engine counts two
reads per lattice repair and a stripe's cheapest plan, the store counts the
distinct payloads it actually fetched (a block feeding several dependent
repairs once; a whole-stripe decode for every stripe it touches).  Only the
direction is pinned; ``docs/performance.md`` (PR 23) has both definitions and
the measured numbers.

The engine's array round and the store's id-level planner
(:func:`~repro.core.batch_repair.plan_round`) are two forms of one rule,
kept apart because the array form costs the small lattices of the chain
predicates and the id form the engine's large ones (``docs/performance.md``,
"one scrub on the live service", "Sized and left out").  ``TestOneRoundRule``
pins them equal round by round over random availability masks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import open_service
from repro.core.batch_repair import plan_round
from repro.core.blocks import DataId, ParityId, is_data
from repro.core.lattice import HelicalLattice
from repro.core.parameters import AEParameters
from repro.schemes.stripe import StripeBlockId
from repro.simulation.engine import (
    LatticeSimulation,
    build_simulation,
    sample_disaster_locations,
)
from repro.storage.maintenance import MaintenancePolicy
from repro.storage.topology import Topology

BLOCK_SIZE = 64
DATA_BLOCKS = 600
SCHEMES = ("ae-3-2-5", "ae-2-2-5", "ae-3-2-5-p75", "rs-10-4", "rs-4-12", "rep-3")
#: (topology, disaster): two random draws on 20 flat locations, one whole site.
DISASTERS = (
    (20, (0.20, 0)),
    (20, (0.30, 1)),
    ("sites=4,nodes=5", "site:1"),
)


def _filled_service(scheme_id: str, topology):
    service = open_service(scheme=scheme_id, block_size=BLOCK_SIZE, topology=topology)
    payload = np.random.default_rng(23).integers(
        0, 256, size=DATA_BLOCKS * BLOCK_SIZE, dtype=np.uint8
    )
    service.put("archive", payload.tobytes())
    return service


def _mirror_placement(service, simulation) -> None:
    """Overwrite the engine's random placement with the live cluster's."""
    location_of = service.cluster.location_of
    if isinstance(simulation, LatticeSimulation):
        classes = simulation.params.strand_classes
        for index in range(1, DATA_BLOCKS + 1):
            simulation.data_location[index - 1] = location_of(DataId(index))
            for column, strand_class in enumerate(classes):
                if not simulation.punctured[index - 1, column]:
                    simulation.parity_location[index - 1, column] = location_of(
                        ParityId(index, strand_class)
                    )
    else:
        for stripe in range(simulation.stripes):
            for position in range(simulation.code.n):
                simulation.block_location[stripe, position] = location_of(
                    StripeBlockId(stripe, position)
                )


def _failed_locations(topology, disaster) -> np.ndarray:
    if isinstance(disaster, str):
        locations = Topology.resolve(topology).locations_for_target(disaster)
        return np.asarray(sorted(locations), dtype=np.int64)
    fraction, offset = disaster
    return sample_disaster_locations(20, fraction, seed=5, offset=offset)


@pytest.mark.parametrize("topology,disaster", DISASTERS)
@pytest.mark.parametrize("scheme_id", SCHEMES)
def test_engine_repair_matches_the_store(scheme_id: str, topology, disaster) -> None:
    service = _filled_service(scheme_id, topology)
    simulation = build_simulation(scheme_id, DATA_BLOCKS, 20, block_size=BLOCK_SIZE)
    assert service.status().blocks == simulation.total_blocks
    _mirror_placement(service, simulation)
    failed = _failed_locations(topology, disaster)

    predicted = simulation.run_repair(failed, MaintenancePolicy.FULL)
    service.fail_locations(failed.tolist())
    report = service.repair()

    punctured = scheme_id.endswith("-p75")
    assert report.data_loss == predicted.data_loss
    if punctured:
        assert report.rounds >= predicted.rounds
    else:
        assert report.rounds == predicted.rounds
    # Never-stored (punctured) parities are missing at time zero in the engine
    # and FULL maintenance regenerates every one of them on paper; the store
    # never writes them, so they are no repair of its.
    regenerated = int(simulation.punctured.sum()) if punctured else 0
    assert (
        len(report.repaired) + regenerated
        == predicted.repaired_data + predicted.repaired_redundancy
    )
    if scheme_id.startswith("ae"):
        assert report.blocks_read <= predicted.blocks_read
    else:
        assert report.blocks_read >= predicted.blocks_read


def _planner_rounds(params, data_lost, parity_lost, policy):
    """Per-round repair counts and data loss of ``plan_round`` run round
    after round, as the store's ``RepairRun`` does."""
    classes = params.strand_classes
    unavailable = {DataId(i + 1) for i in np.flatnonzero(data_lost)}
    unavailable |= {ParityId(i + 1, classes[c]) for i, c in np.argwhere(parity_lost)}
    pending = {b for b in unavailable if policy is MaintenancePolicy.FULL or is_data(b)}
    lattice = HelicalLattice(params, len(data_lost))
    counts = []
    while True:
        steps = plan_round(lattice, sorted(pending), lambda b: b not in unavailable)
        if not steps:
            return counts, sum(map(is_data, pending))
        counts.append(len(steps))
        for step in steps:
            pending.discard(step.target)
            unavailable.discard(step.target)


class TestOneRoundRule:
    """``LatticeSimulation.run_repair`` and ``plan_round`` rounds agree on
    every round's repair count and on data loss; each block sits on a
    location of its own, so a failed set is an availability mask."""

    @pytest.mark.parametrize("policy", [MaintenancePolicy.FULL, MaintenancePolicy.MINIMAL])
    @pytest.mark.parametrize("spec", ["AE(1,-,-)", "AE(2,2,2)", "AE(3,2,5)", "AE(3,5,5)"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_engine_round_is_the_planner_round(self, spec, policy, data):
        params = AEParameters.parse(spec)
        n = data.draw(st.integers(1, 40), label="nodes")
        lost = np.array(
            data.draw(st.lists(st.booleans(), min_size=n + n * params.alpha,
                               max_size=n + n * params.alpha), label="lost"),
            dtype=bool,
        )
        data_lost, parity_lost = lost[:n], lost[n:].reshape(n, params.alpha)
        simulation = LatticeSimulation(params, n, location_count=lost.size)
        simulation.data_location[:] = np.arange(n)
        simulation.parity_location[:] = n + np.arange(n * params.alpha).reshape(n, -1)
        predicted = simulation.run_repair(np.flatnonzero(lost), policy)
        counts, loss = _planner_rounds(params, data_lost, parity_lost, policy)
        assert (predicted.repaired_per_round, predicted.data_loss) == (counts, loss)
