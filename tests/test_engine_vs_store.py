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

``blocks_read`` is the distinct blocks a run read on both sides for the AE
lattice, so it is equal for the plain settings.  For the punctured one the
engine reads what its up-front regeneration reads; for a stripe code it
counts a stripe's cheapest plan where the store decodes the whole stripe,
so only the direction is pinned there.

The round rule has two evaluators in :mod:`repro.core.batch_repair`: the
per-id :func:`~repro.core.batch_repair.plan_round` and the array
:func:`~repro.core.batch_repair.pick_round` (the engine's every round, the
store's rounds of at least ``ARRAY_ROUND_MIN`` pending blocks).
``TestOneRoundRule`` holds both to :class:`~repro.core.decoder.Decoder` at
depth 0 over random availability masks, and drives ``RepairRun`` through the
check that replans around a block that is unavailable but not pending.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import open_service
from repro.core import batch_repair
from repro.core.batch_repair import ARRAY_ROUND_MIN, RepairRun, pick_round, plan_round
from repro.core.blocks import DataId, ParityId, is_data
from repro.core.decoder import Decoder
from repro.core.encoder import Entangler
from repro.core.lattice import HelicalLattice
from repro.core.parameters import AEParameters, StrandClass
from repro.exceptions import RepairFailedError
from repro.schemes.stripe import StripeBlockId
from repro.simulation.engine import (
    LatticeSimulation,
    build_simulation,
    sample_disaster_locations,
)
from repro.storage.maintenance import MaintenancePolicy
from repro.storage.topology import Topology
from tests.conftest import DictSource, RefusingSource

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
    if punctured:
        assert report.blocks_read <= predicted.blocks_read
    elif scheme_id.startswith("ae"):
        assert report.blocks_read == predicted.blocks_read
    else:
        assert report.blocks_read >= predicted.blocks_read


def _random_blocks(params, n, seed):
    """An independent random payload per block of an ``n``-node lattice --
    no code, so every tuple XORs to a payload of its own and a rebuilt
    block names the tuple that rebuilt it."""
    rng = np.random.default_rng(seed)
    ids = [DataId(i) for i in range(1, n + 1)]
    ids += [ParityId(i, c) for i in range(1, n + 1) for c in params.strand_classes]
    return {b: rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8) for b in ids}


def _xor(payloads, first, second) -> bytes:
    zero = np.zeros(BLOCK_SIZE, dtype=np.uint8)
    left = zero if first is None else payloads[first]
    right = zero if second is None else payloads[second]
    return bytes(left ^ right)


def _member(classes, node, column):
    if node == 0:
        return None
    return DataId(node) if column < 0 else ParityId(node, classes[column])


class TestOneRoundRule:
    """Both evaluators of the round rule pick the tuple
    :class:`~repro.core.decoder.Decoder` takes at depth 0, and ``RepairRun``
    plans on each and checks what it picked."""

    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("policy", [MaintenancePolicy.FULL, MaintenancePolicy.MINIMAL])
    @pytest.mark.parametrize("spec", ["AE(1,-,-)", "AE(2,2,2)", "AE(3,2,5)", "AE(3,5,5)"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), loss=st.floats(0.0, 1.0))
    def test_both_evaluators_pick_the_decoders_tuple(self, spec, policy, side, seed, loss):
        """Random loss masks, every lost block unavailable; under
        ``MINIMAL`` only the lost data blocks are pending, so a lost parity
        is unavailable without being pending.  ``side`` draws pending sets
        below or at least ``ARRAY_ROUND_MIN``, the two sides of the store's
        choice of evaluator."""
        params = AEParameters.parse(spec)
        rng = np.random.default_rng(seed)
        # Blocks a lost node can put in the pending set.
        per_node = 1 + params.alpha if policy is MaintenancePolicy.FULL else 1
        if side == "below":
            n = int(rng.integers(1, max(2, ARRAY_ROUND_MIN // (1 + params.alpha))))
        else:
            low = -(-ARRAY_ROUND_MIN * 5 // (3 * per_node))  # a loss of 0.6 reaches it
            n = int(rng.integers(low, low + low // 2))
            loss = 0.6 + 0.4 * loss
        lattice = HelicalLattice(params, n)
        payloads = _random_blocks(params, n, seed)
        lost = {b for b in payloads if rng.random() < loss}
        pending = sorted(
            b for b in lost if policy is MaintenancePolicy.FULL or is_data(b)
        )
        assume((len(pending) >= ARRAY_ROUND_MIN) == (side == "above"))

        decoder = Decoder(
            lattice, lambda b: None if b in lost else payloads[b], BLOCK_SIZE, max_depth=0
        )
        expected = {}
        for target in pending:
            try:
                expected[target] = bytes(decoder.repair(target))
            except RepairFailedError:
                pass

        steps = plan_round(lattice, pending, lambda b: b not in lost)
        assert {s.target: _xor(payloads, s.first, s.second) for s in steps} == expected

        classes = params.strand_classes
        column = {c: k for k, c in enumerate(classes)}
        data_ok = np.array([DataId(i) not in lost for i in range(1, n + 1)])
        parity_ok = np.array(
            [[ParityId(i, c) not in lost for c in classes] for i in range(1, n + 1)]
        ).reshape(n, params.alpha)
        nodes = np.array([b.index for b in pending], dtype=np.int64)
        columns = np.array(
            [-1 if is_data(b) else column[b.strand_class] for b in pending], dtype=np.int64
        )
        picks = pick_round(params, n, 1, data_ok, parity_ok, nodes, columns)
        picked = {
            pending[k]: _xor(
                payloads,
                _member(classes, picks.first_node[k], picks.first_column[k]),
                _member(classes, picks.second_node[k], picks.second_column[k]),
            )
            for k in np.flatnonzero(picks.picked)
        }
        assert picked == expected

        source = DictSource({b: p for b, p in payloads.items() if b not in lost})
        run = RepairRun(lattice, pending, BLOCK_SIZE, source)
        first_round = next(run.rounds(), ({}, 0))[0]
        rebuilt = {} if run.grew else {b: bytes(p) for b, p in first_round.items()}
        assert rebuilt == expected

    @pytest.mark.parametrize("evaluator", ["plan_round", "masks"])
    def test_a_neighbour_unavailable_but_not_pending_is_replanned_around(
        self, evaluator, monkeypatch
    ):
        """Every fourth data block is lost and pending; the first strand's
        output parity of each is gone too, but not pending.  The plan takes
        it (everything not pending looks available), the exact check finds
        it missing, and the target is planned again on its next strand in
        the same round: one round, nothing asked of the source that it
        lacks, two reads per target."""
        params = AEParameters(3, 2, 5)
        targets = 8 if evaluator == "plan_round" else 2 * ARRAY_ROUND_MIN
        n = 4 * targets + 8
        encoder = Entangler(params, block_size=BLOCK_SIZE)
        store = {}
        rng = np.random.default_rng(7)
        for _ in range(n):
            encoded = encoder.entangle(rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8))
            for block in encoded.all_blocks():
                store[block.block_id] = block.payload
        lost = [DataId(i) for i in range(8, 8 + 4 * targets, 4)]
        gone = [ParityId(b.index, StrandClass.HORIZONTAL) for b in lost]
        originals = {b: bytes(store.pop(b)) for b in lost}
        for b in gone:
            store.pop(b)
        calls = {"plan_round": 0, "masks": 0}
        real_plan_round, real_masks_plan = batch_repair.plan_round, batch_repair._RoundMasks.plan

        def counted_plan_round(*args, **kwargs):
            calls["plan_round"] += 1
            return real_plan_round(*args, **kwargs)

        def counted_masks_plan(self, ids):
            calls["masks"] += 1
            return real_masks_plan(self, ids)

        monkeypatch.setattr(batch_repair, "plan_round", counted_plan_round)
        monkeypatch.setattr(batch_repair._RoundMasks, "plan", counted_masks_plan)
        source = RefusingSource(store)
        run = RepairRun(encoder.lattice, lost, BLOCK_SIZE, source)
        rounds = list(run.rounds())
        assert len(rounds) == 1 and not run.pending
        assert {b: bytes(p) for b, p in rounds[0][0].items()} == originals
        assert not set(gone) & set(source.requests)
        assert run.blocks_read == 2 * targets
        assert calls[evaluator] == 2 and sum(calls.values()) == 2
