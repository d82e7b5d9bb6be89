"""Tests for the code extensions: puncturing, anti-tampering and dynamic upgrades."""

from __future__ import annotations

import random

import pytest

from repro.core.blocks import DataId, ParityId
from repro.core.decoder import Decoder
from repro.core.dynamic import EpochHistory
from repro.core.encoder import Entangler
from repro.core.lattice import HelicalLattice
from repro.core.parameters import AEParameters, StrandClass
from repro.core.puncturing import (
    PuncturedCode,
    no_puncturing,
    parity_survivors,
    puncture_periodic,
    puncture_rate,
    puncture_strand_class,
)
from repro.core.tamper import average_tamper_cost, detection_probability, tamper_cost, tampered_parities
from repro.core.xor import payloads_equal
from repro.exceptions import InvalidParametersError, RepairFailedError
from repro.storage.cluster import StorageCluster
from repro.system.service import StorageConfig, StorageService

from tests.conftest import make_payload

BLOCK_SIZE = 32


class TestPuncturing:
    def test_no_puncturing_keeps_everything(self):
        code = no_puncturing(AEParameters.triple(2, 5))
        assert code.effective_overhead() == pytest.approx(3.0)
        assert not code.is_punctured(ParityId(1, StrandClass.HORIZONTAL))

    def test_strand_class_puncturing_reduces_overhead_by_one(self):
        params = AEParameters.triple(2, 5)
        code = puncture_strand_class(params, StrandClass.HORIZONTAL)
        assert code.effective_overhead() == pytest.approx(2.0)
        assert code.is_punctured(ParityId(7, StrandClass.HORIZONTAL))
        assert not code.is_punctured(ParityId(7, StrandClass.RIGHT_HANDED))
        with pytest.raises(InvalidParametersError):
            puncture_strand_class(AEParameters.single(), StrandClass.RIGHT_HANDED)

    def test_periodic_puncturing_rate(self):
        code = puncture_periodic(AEParameters.double(2, 5), period=4)
        overhead = code.effective_overhead(sample_size=4000)
        assert overhead == pytest.approx(2.0 * 0.75, rel=0.01)
        with pytest.raises(InvalidParametersError):
            puncture_periodic(AEParameters.double(2, 5), period=1)

    def test_rate_puncturing_approximates_target(self):
        code = puncture_rate(AEParameters.triple(2, 5), keep_fraction=0.8)
        overhead = code.effective_overhead(sample_size=5000)
        assert overhead == pytest.approx(3.0 * 0.8, rel=0.1)
        with pytest.raises(InvalidParametersError):
            puncture_rate(AEParameters.triple(2, 5), keep_fraction=0.0)

    def test_punctured_lattice_still_decodes_data(self):
        """Dropping one strand class still leaves alpha-1 recovery paths."""
        params = AEParameters.triple(2, 5)
        code = puncture_strand_class(params, StrandClass.HORIZONTAL)
        encoder = Entangler(params, block_size=BLOCK_SIZE)
        store = {}
        for index in range(1, 41):
            encoded = encoder.entangle(make_payload(index, BLOCK_SIZE))
            store[encoded.data_id] = encoded.data.payload
            for parity in encoded.parities:
                if not code.is_punctured(parity.block_id):
                    store[parity.block_id] = parity.payload
        original = store.pop(DataId(20))
        decoder = Decoder(encoder.lattice, store.get, BLOCK_SIZE)
        assert payloads_equal(decoder.repair(DataId(20)), original)

    def test_parity_survivors_helper(self):
        params = AEParameters.triple(2, 5)
        code = puncture_strand_class(params, StrandClass.LEFT_HANDED)
        survivors = parity_survivors(code, [1, 2, 3])
        assert len(survivors) == 6  # 2 of 3 classes survive for 3 nodes

    def test_effective_overhead_matches_exact_enumeration(self):
        """The estimate is an exact count over the sampled prefix, not a guess."""
        params = AEParameters.triple(2, 5)
        code = puncture_rate(params, keep_fraction=0.75)
        sample = 600
        dropped = sum(
            1
            for index in range(1, sample + 1)
            for strand_class in params.strand_classes
            if code.is_punctured(ParityId(index, strand_class))
        )
        total = sample * len(params.strand_classes)
        exact = params.alpha * (1.0 - dropped / total)
        assert code.effective_overhead(sample_size=sample) == pytest.approx(exact, abs=1e-12)

    def test_effective_overhead_on_empty_sample_is_alpha(self):
        code = no_puncturing(AEParameters.triple(2, 5))
        assert code.effective_overhead(sample_size=0) == pytest.approx(3.0)

    def test_rate_puncturing_is_monotone_in_keep_fraction(self):
        """Tightening the keep fraction only ever punctures *more* parities.

        The repuncture deletion pass of the transition engine relies on
        this: the target policy's punctured set covers every source set
        with a higher keep fraction, so one pass deletes everything.
        """
        params = AEParameters.triple(2, 5)
        loose = puncture_rate(params, keep_fraction=0.75)
        tight = puncture_rate(params, keep_fraction=0.5)
        for index in range(1, 301):
            for strand_class in params.strand_classes:
                parity = ParityId(index, strand_class)
                if loose.is_punctured(parity):
                    assert tight.is_punctured(parity)


class TestPuncturedServiceMutations:
    """A delete and an overwriting put decide no parity beyond their own.

    Before the punctured set was a mask, ``capabilities()`` re-estimated the
    overhead on every call, and ``delete`` / ``_reclaim`` call it for
    ``erasable``: one delete cost 3 000 policy evaluations (2.6 ms against
    0.004 ms unpunctured) and one overwrite 3 012.
    """

    @staticmethod
    def count_decisions(code) -> list:
        """Wrap ``code``'s policy; the list collects each call's node count."""
        evaluated: list = []
        policy = code.policy

        def counting(indexes, *rest):
            evaluated.append(len(indexes))
            return policy(indexes, *rest)

        object.__setattr__(code, "policy", counting)
        return evaluated

    def test_delete_and_overwrite_evaluate_no_overhead_estimate(self, monkeypatch):
        service = StorageService.open(
            StorageConfig(
                scheme="ae-3-2-5-p80", topology="sites=4,racks=2,nodes=2",
                placement="spread-domains", block_size=512, seed=1,
            )
        )
        rng = random.Random(1)
        for number in range(20):
            service.put(f"doc-{number:02d}", rng.randbytes(2048))
        evaluated = self.count_decisions(service.scheme.punctured_code)
        estimates: list = []
        estimate = PuncturedCode.effective_overhead
        monkeypatch.setattr(
            PuncturedCode,
            "effective_overhead",
            lambda code, *args: estimates.append(code) or estimate(code, *args),
        )
        service.delete("doc-03")
        assert evaluated == [] and estimates == []
        replacement = rng.randbytes(2048)
        service.put("doc-04", replacement)
        # One mask over the new 4-node batch.
        assert evaluated == [4] and estimates == []
        assert service.get("doc-04") == replacement


class TestAntiTampering:
    def test_tampered_parities_follow_strands_to_the_end(self):
        params = AEParameters(3, 5, 5)
        lattice = HelicalLattice(params, size=60)
        horizontal = tampered_parities(lattice, 26, StrandClass.HORIZONTAL)
        assert [parity.index for parity in horizontal] == [26, 31, 36, 41, 46, 51, 56]

    def test_tamper_cost_grows_with_alpha(self):
        """With the same lattice geometry, every extra strand class is one more
        chain of parities the attacker must rewrite."""
        lattice_double = HelicalLattice(AEParameters.double(2, 5), size=100)
        lattice_triple = HelicalLattice(AEParameters.triple(2, 5), size=100)
        assert (
            tamper_cost(lattice_triple, 50).total_parities
            > tamper_cost(lattice_double, 50).total_parities
        )
        assert len(tamper_cost(lattice_triple, 50).parities_per_strand) == 3

    def test_tamper_cost_decreases_towards_the_tail(self):
        lattice = HelicalLattice(AEParameters(3, 2, 5), size=200)
        assert (
            tamper_cost(lattice, 10).total_parities
            > tamper_cost(lattice, 190).total_parities
        )

    def test_average_cost_and_detection_probability(self):
        params = AEParameters(3, 2, 5)
        assert average_tamper_cost(params, 200) > 0
        assert detection_probability(params, 0.5) > detection_probability(
            AEParameters.single(), 0.5
        )
        assert detection_probability(params, 0.0) == 0.0

    def test_summary_mentions_block(self):
        lattice = HelicalLattice(AEParameters(3, 5, 5), size=60)
        assert "d26" in tamper_cost(lattice, 26).summary()


class TestDynamicUpgrade:
    """An alpha raise is an encode: ``transition_to`` writes exactly the new
    strand class a from-scratch encoder of the raised setting produces."""

    @staticmethod
    def archive():
        """50 nodes of AE(2,2,5) read back 7 at a time: the last batch is short."""
        service = StorageService.open(
            StorageConfig(
                scheme="ae-2-2-5", topology=12, block_size=BLOCK_SIZE, seed=4, batch_blocks=7
            )
        )
        for index in range(5):
            service.put(f"doc-{index}", make_payload(index, 9 * BLOCK_SIZE + 1 + index))
        assert service.scheme.lattice.size == 50
        return service

    def test_raise_writes_what_a_fresh_encoder_produces(self, monkeypatch):
        service = self.archive()
        cluster = service.cluster
        size = service.scheme.lattice.size
        data = [cluster.try_get_many([DataId(index)])[0] for index in range(1, size + 1)]
        lost = [DataId(3), DataId(17), DataId(18)]
        cluster.delete_blocks(lost)
        written = []
        put_many = StorageCluster.put_many

        def recording(self, items):
            items = list(items)
            written.extend(block_id for block_id, _ in items)
            return put_many(self, items)

        monkeypatch.setattr(StorageCluster, "put_many", recording)
        report = service.transition_to("ae-3-2-5")
        new_class = {ParityId(index, StrandClass.LEFT_HANDED) for index in range(1, size + 1)}
        assert report.parities_written == len(written) == size
        assert set(written) == new_class  # no d- or old-class block gets a write
        assert not any(map(cluster.knows, lost))

        direct = Entangler(AEParameters.triple(2, 5), block_size=BLOCK_SIZE)
        late = make_payload(99, 3 * BLOCK_SIZE)
        service.put("late", late)
        chunks = [late[start : start + BLOCK_SIZE] for start in range(0, len(late), BLOCK_SIZE)]
        for payload in data + chunks:
            for parity in direct.entangle(payload).parities:
                assert payloads_equal(cluster.try_get_many([parity.block_id])[0], parity.payload)
        assert service.get("late") == late

    def test_a_raise_needs_every_data_block(self):
        """Nodes 1..21 lost, data and parities: the first batch's data has no
        repair path, so the raise stops before writing and the source stays."""
        service = self.archive()
        cluster = service.cluster
        cluster.delete_blocks([block for block in cluster.block_ids() if block.index <= 21])
        with pytest.raises(RepairFailedError):
            service.transition_to("ae-3-2-5")
        assert service.scheme.scheme_id == "ae-2-2-5"
        assert not any(
            block_id.strand_class is StrandClass.LEFT_HANDED
            for block_id in cluster.block_ids()
            if isinstance(block_id, ParityId)
        )

    def test_lowering_alpha_is_refused_live(self):
        service = StorageService.open(
            StorageConfig(scheme="ae-3-2-5", topology=12, block_size=BLOCK_SIZE, seed=4)
        )
        service.put("doc", make_payload(1, 4 * BLOCK_SIZE))
        with pytest.raises(InvalidParametersError, match="cannot lower alpha"):
            service.transition_to("ae-2-2-5")
        assert service.transition is None and service.scheme.scheme_id == "ae-3-2-5"

    def test_epoch_history(self):
        history = EpochHistory.starting_with(AEParameters.double(2, 5))
        history.change(101, AEParameters.triple(2, 5))
        assert history.params_at(50) == AEParameters.double(2, 5)
        assert history.params_at(101) == AEParameters.triple(2, 5)
        assert history.params_at(500).alpha == 3
        with pytest.raises(InvalidParametersError):
            history.change(50, AEParameters.triple(2, 5))
        assert len(list(history)) == 2

    def test_params_at_epoch_boundaries(self):
        history = EpochHistory.starting_with(AEParameters.double(2, 5))
        history.change(101, AEParameters.triple(2, 5))
        assert history.params_at(1) == AEParameters.double(2, 5)  # first covered
        assert history.params_at(100).alpha == 2  # last index of the old epoch
        assert history.params_at(101).alpha == 3  # exactly at the switch
        with pytest.raises(InvalidParametersError):
            history.params_at(0)  # below the first epoch's start

    def test_params_at_on_empty_history_raises(self):
        with pytest.raises(InvalidParametersError):
            EpochHistory([]).params_at(1)
        with pytest.raises(InvalidParametersError):
            EpochHistory().params_at(1)
