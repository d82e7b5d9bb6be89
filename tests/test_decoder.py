"""Tests for the decoder: single-block repair, recursion and repair rounds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blocks import DataId, ParityId
from repro.core.batch_repair import RepairRun
from repro.core.decoder import Decoder
from repro.core.encoder import Entangler
from repro.core.parameters import AEParameters, StrandClass
from repro.core.xor import payloads_equal
from repro.exceptions import RepairFailedError

from tests.conftest import DictSource, make_payload

BLOCK_SIZE = 32


def build_store(params: AEParameters, count: int):
    """Encode ``count`` blocks and return (encoder, payload map)."""
    encoder = Entangler(params, block_size=BLOCK_SIZE)
    store = {}
    for index in range(1, count + 1):
        encoded = encoder.entangle(make_payload(index, BLOCK_SIZE))
        for block in encoded.all_blocks():
            store[block.block_id] = block.payload
    return encoder, store


class TestSingleRepairs:
    def test_repair_data_block_via_any_strand(self, any_params):
        encoder, store = build_store(any_params, 60)
        decoder = Decoder(encoder.lattice, store.get, BLOCK_SIZE)
        original = store[DataId(30)]
        del store[DataId(30)]
        assert payloads_equal(decoder.repair(DataId(30)), original)

    def test_repair_parity_block_both_directions(self, hec_params):
        encoder, store = build_store(hec_params, 60)
        decoder = Decoder(encoder.lattice, store.get, BLOCK_SIZE)
        for parity_id in [ParityId(30, StrandClass.HORIZONTAL), ParityId(30, StrandClass.LEFT_HANDED)]:
            original = store[parity_id]
            del store[parity_id]
            assert payloads_equal(decoder.repair(parity_id), original)
            store[parity_id] = original

    def test_get_fetches_before_repairing(self, hec_params):
        encoder, store = build_store(hec_params, 10)
        calls = []

        def source(block_id):
            calls.append(block_id)
            return store.get(block_id)

        decoder = Decoder(encoder.lattice, source, BLOCK_SIZE)
        payload = decoder.get(DataId(5))
        assert payloads_equal(payload, store[DataId(5)])
        assert calls == [DataId(5)]

    def test_single_failure_costs_two_blocks(self, hec_params):
        """Any single failure is repaired by XORing exactly two blocks."""
        encoder, store = build_store(hec_params, 60)
        reads = []

        def source(block_id):
            payload = store.get(block_id)
            if payload is not None:
                reads.append(block_id)
            return payload

        original = store.pop(DataId(30))
        decoder = Decoder(encoder.lattice, source, BLOCK_SIZE, max_depth=0)
        assert payloads_equal(decoder.repair(DataId(30)), original)
        assert len(reads) == 2

    def test_unrepairable_when_everything_is_gone(self, hec_params):
        encoder, store = build_store(hec_params, 30)
        decoder = Decoder(encoder.lattice, lambda block_id: None, BLOCK_SIZE, max_depth=2)
        with pytest.raises(RepairFailedError):
            decoder.repair(DataId(15))


class TestRecursiveRepair:
    def test_repair_through_missing_parity(self, hec_params):
        """When both adjacent parities of one strand are gone, the decoder
        recurses: it rebuilds the parity from its dp-tuple first (Fig. 2)."""
        encoder, store = build_store(hec_params, 80)
        target = DataId(40)
        original = store.pop(target)
        # Remove one parity of every strand except the horizontal output,
        # forcing at least one recursive step.
        removed = [
            ParityId(40, StrandClass.RIGHT_HANDED),
            ParityId(40, StrandClass.LEFT_HANDED),
            encoder.lattice.input_parity(40, StrandClass.HORIZONTAL),
        ]
        for parity in removed:
            store.pop(parity, None)
        decoder = Decoder(encoder.lattice, store.get, BLOCK_SIZE, max_depth=3)
        assert payloads_equal(decoder.repair(target), original)

    def test_depth_zero_cannot_recurse(self, hec_params):
        encoder, store = build_store(hec_params, 80)
        target = DataId(40)
        original = store.pop(target)
        for strand_class in hec_params.strand_classes:
            store.pop(encoder.lattice.input_parity(40, strand_class), None)
        shallow = Decoder(encoder.lattice, store.get, BLOCK_SIZE, max_depth=0)
        with pytest.raises(RepairFailedError):
            shallow.repair(target)
        deep = Decoder(encoder.lattice, store.get, BLOCK_SIZE, max_depth=4)
        assert payloads_equal(deep.repair(target), original)


def run_rounds(lattice, store, missing, listed=None):
    """Drive :class:`RepairRun` over ``store`` (reported available: the
    blocks in ``listed``, by default its own): the finished run, its
    ``(recovered, new_reads)`` rounds and ``store`` plus what it rebuilt."""
    source = DictSource(store)
    if listed is not None:
        source.is_available = listed.__contains__
    run = RepairRun(lattice, missing, BLOCK_SIZE, source)
    rounds = list(run.rounds())
    repaired = dict(store)
    for recovered, _ in rounds:
        repaired.update(recovered)
    return run, rounds, repaired


class TestIterativeRepair:
    @given(
        st.sampled_from([(1, 1, 0), (2, 2, 5), (3, 2, 5)]),
        st.sets(st.integers(min_value=1, max_value=50), min_size=1, max_size=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_scattered_data_failures_always_recover(self, spec, victims):
        """Isolated data-block failures are always repaired in one round."""
        params = AEParameters(*spec)
        encoder, store = build_store(params, 60)
        originals = {}
        for index in victims:
            originals[DataId(index)] = store.pop(DataId(index))
        run, rounds, repaired_store = run_rounds(encoder.lattice, store, list(originals))
        assert not run.pending
        assert len(rounds) == 1
        for block_id, payload in originals.items():
            assert payloads_equal(repaired_store[block_id], payload)

    def test_mixed_failures_need_multiple_rounds(self, hec_params):
        encoder, store = build_store(hec_params, 100)
        missing = []
        originals = {}
        # Remove a contiguous region: data and all their parities.
        for index in range(40, 44):
            for block_id in [DataId(index)] + encoder.lattice.output_parities(index):
                originals[block_id] = store.pop(block_id)
                missing.append(block_id)
        run, rounds, repaired_store = run_rounds(encoder.lattice, store, missing)
        assert not run.pending
        assert len(rounds) > 1
        # Later rounds consume what earlier rounds rebuilt.
        assert set(rounds[0][0]) < set(missing)
        for block_id, payload in originals.items():
            assert payloads_equal(repaired_store[block_id], payload)

    def test_minimal_maintenance_skips_parities(self, hec_params):
        """Data-only repair is the caller's filter: a parity left out of the
        work list is neither rebuilt nor needed to rebuild the data."""
        encoder, store = build_store(hec_params, 60)
        data_victim = DataId(30)
        parity_victim = ParityId(20, StrandClass.HORIZONTAL)
        original = store.pop(data_victim)
        store.pop(parity_victim)
        run, _, repaired_store = run_rounds(encoder.lattice, store, [data_victim])
        assert not run.pending
        assert payloads_equal(repaired_store[data_victim], original)
        assert parity_victim not in repaired_store

    def test_unrecoverable_remainder_stays_pending(self):
        """AE(1): two adjacent nodes and the parity between them determine
        one another and nothing else does (the chain's minimal erasure)."""
        encoder, store = build_store(AEParameters.single(), 30)
        stuck = {DataId(10), ParityId(10, StrandClass.HORIZONTAL), DataId(11)}
        lost = sorted(stuck, key=str) + [DataId(20)]
        original = store[DataId(20)]
        for block_id in lost:
            store.pop(block_id)
        run, rounds, repaired_store = run_rounds(encoder.lattice, store, lost)
        assert run.pending == stuck
        assert [set(recovered) for recovered, _ in rounds] == [{DataId(20)}]
        assert payloads_equal(repaired_store[DataId(20)], original)

    def test_single_victim_costs_one_round_and_two_reads(self, hec_params):
        encoder, store = build_store(hec_params, 30)
        victim = DataId(10)
        store.pop(victim)
        run, rounds, _ = run_rounds(encoder.lattice, store, [victim])
        assert [(set(recovered), reads) for recovered, reads in rounds] == [({victim}, 2)]
        assert run.blocks_read == 2

    def test_input_vanishing_after_the_plan_is_planned_around(self, hec_params):
        """An oracle's stale "available" only defers the target: its step is
        dropped and the next plan avoids the block that never came."""
        encoder, store = build_store(hec_params, 30)
        victim = DataId(10)
        original = store.pop(victim)
        liar = encoder.lattice.output_parities(10)[0]
        listed = set(store)
        del store[liar]
        run, rounds, repaired_store = run_rounds(
            encoder.lattice, store, [victim], listed=listed
        )
        assert len(rounds) == 1 and not run.pending
        assert payloads_equal(repaired_store[victim], original)
