"""Accounting tests for the batched repair pipeline.

Every repair of a cluster (``StorageService.repair``) plans each round,
bulk-fetches the surviving inputs and rebuilds every target in one matrix XOR
pass.  These tests pin the contract around it:

* one pairwise XOR pass over a plan equals the per-block
  :class:`~repro.core.decoder.Decoder`, the independent check of the planner
  (the batched output itself is frozen as parent-recorded literals in
  ``test_ae_repair_golden.py`` and ``test_placement_golden.py``);
* every registered scheme survives a location and a whole ``site:0`` disaster
  under ``spread-domains`` placement;
* the read accounting matches the analytic costs of
  :mod:`repro.analysis.repair_cost`, and a surviving block feeding several
  dependent repairs is fetched and counted once per run;
* segment-log bulk reads stay zero-copy (mmap-backed views), and a torn log
  tail still round-trips documents through the degraded read path after
  reopen.
"""

from __future__ import annotations

import glob
import mmap
import os

import numpy as np
import pytest

from repro.analysis.repair_cost import repair_model_for
from repro.codes.entanglement import EntanglementScheme
from repro.core.batch_repair import execute_plan, plan_round
from repro.core.blocks import DataId, ParityId, is_data, is_parity
from repro.core.decoder import Decoder
from repro.core.encoder import Entangler
from repro.core.parameters import AEParameters
from repro.core.xor import payloads_equal
from repro.storage.backends import SegmentLogBackend
from repro.storage.block_store import BlockStore
from repro.storage.cluster import StorageCluster
from repro.storage.failures import disaster_for_target
from repro.storage.placement import DictionaryPlacement
from repro.system.service import StorageConfig, StorageService

from tests.conftest import make_payload, segment_records
from tests.test_schemes import REQUIRED_IDS

BLOCK_SIZE = 64


class TestExecutePlan:
    """One pairwise XOR pass over a plan equals the per-block decoder."""

    @pytest.mark.parametrize("spec", ["AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)"])
    def test_mixed_plan_equals_per_block_decoder(self, spec):
        params = AEParameters.parse(spec)
        encoder = Entangler(params, block_size=BLOCK_SIZE)
        originals = {}
        for index in range(1, 41):
            for block in encoder.entangle(make_payload(index, BLOCK_SIZE)).all_blocks():
                originals[block.block_id] = block.payload
        first, last = params.strand_classes[0], params.strand_classes[-1]
        # Data and parity targets in one plan, a strand start (virtual zero
        # input) and the lattice tail included, far enough apart that every
        # target keeps a whole tuple.
        missing = {
            DataId(1),
            ParityId(2, first),
            DataId(10),
            ParityId(15, last),
            DataId(20),
            ParityId(40, first),
        }
        survivors = {b: blob for b, blob in originals.items() if b not in missing}
        steps = plan_round(encoder.lattice, sorted(missing), survivors.__contains__)
        assert {step.target for step in steps} == missing
        assert any(step.first is None or step.second is None for step in steps)
        assert any(is_data(step.target) for step in steps)
        assert any(is_parity(step.target) for step in steps)

        recovered = execute_plan(steps, survivors.__getitem__, BLOCK_SIZE)
        decoder = Decoder(encoder.lattice, survivors.get, BLOCK_SIZE)
        assert set(recovered) == missing
        for block_id in missing:
            assert payloads_equal(recovered[block_id], decoder.repair(block_id))
            assert payloads_equal(recovered[block_id], originals[block_id])

    def test_empty_plan(self):
        assert execute_plan([], {}.__getitem__, BLOCK_SIZE) == {}


class TestServiceRepairAcrossSchemes:
    """The batched fetch/relocate path behind ``StorageService.repair``."""

    @staticmethod
    def document(block_size: int, blocks: int = 24) -> bytes:
        return bytes((7 * i + 3) % 251 for i in range(block_size * blocks))

    @pytest.mark.parametrize("scheme_id", REQUIRED_IDS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_single_location_disaster_round_trip(self, scheme_id, seed):
        service = StorageService.open(
            StorageConfig(
                scheme=scheme_id,
                topology=20,
                block_size=256,
                # Never co-locate a stripe's blocks: one lost location then
                # costs every stripe at most one position, which every
                # registered code tolerates.
                placement="spread-domains",
                seed=seed,
            )
        )
        payload = self.document(256)
        service.put("doc", payload)
        service.fail_locations([0])
        report = service.repair()
        assert report.data_loss == 0
        assert service.status().unavailable_blocks == 0
        assert service.get("doc") == payload

    #: One setting per family that provably survives the loss of one of
    #: seven sites when every stripe (or AE neighbourhood) is spread across
    #: domains: each site holds at most ceil(width / 7) blocks per stripe,
    #: within every code's parity budget.
    SITE_LOSS_SCHEMES = ["ae-2-2-5", "ae-3-2-5", "rs-10-4", "rs-8-2", "lrc-azure", "rep-3", "xor-raid5-5"]

    @pytest.mark.parametrize("scheme_id", SITE_LOSS_SCHEMES)
    def test_site_zero_loss_under_spread_domains(self, scheme_id):
        service = StorageService.open(
            StorageConfig(
                scheme=scheme_id,
                block_size=256,
                topology="sites=7,racks=2,nodes=2",
                placement="spread-domains",
                seed=5,
            )
        )
        payload = self.document(256)
        service.put("doc", payload)
        disaster = disaster_for_target(service.topology, "site:0")
        service.fail_locations(disaster.failed_locations)
        report = service.repair()
        assert report.data_loss == 0, f"{scheme_id}: site loss must not lose data"
        assert service.status().unavailable_blocks == 0
        assert service.get("doc") == payload

    @pytest.mark.parametrize("scheme_id", ["ae-3-2-5", "rs-10-4"])
    def test_degraded_read_without_repair(self, scheme_id):
        service = StorageService.open(
            StorageConfig(scheme=scheme_id, topology=20, block_size=256, seed=9)
        )
        payload = self.document(256)
        service.put("doc", payload)
        service.fail_locations([0, 1])
        # No repair: the read path reconstructs the missing blocks in flight.
        assert service.get("doc") == payload
        assert b"".join(service.get_stream("doc")) == payload


class TestReadAccounting:
    """Measured reads versus the analytic model of ``analysis.repair_cost``."""

    @staticmethod
    def service_with_victims_alone(params: AEParameters, victims, blocks, locations=12):
        """A service whose location 0 holds ``victims`` and nothing else."""
        scheme = EntanglementScheme(params, BLOCK_SIZE)
        payloads = [make_payload(index, BLOCK_SIZE) for index in range(1, blocks + 1)]
        encoded = scheme.encode(payloads).blocks
        mapping = {}
        spot = 1
        for block_id, _ in encoded:
            if block_id in victims:
                mapping[block_id] = 0
            else:
                mapping[block_id] = 1 + spot % (locations - 1)
                spot += 1
        cluster = StorageCluster(locations, DictionaryPlacement(locations, mapping))
        cluster.put_many(encoded)
        return StorageService(scheme, cluster)

    def test_single_failure_reads_match_analytic_cost(self):
        victim = DataId(30)
        service = self.service_with_victims_alone(AEParameters.triple(2, 5), {victim}, 60)
        cluster = service.cluster
        cluster.fail_locations([0])
        assert cluster.unavailable_blocks() == {victim}

        before = sum(store.read_count for store in cluster.locations())
        report = service.repair()
        after = sum(store.read_count for store in cluster.locations())

        analytic = repair_model_for("ae-3-2-5").single_failure_cost(BLOCK_SIZE).blocks_read
        assert analytic == 2
        assert report.repaired == [victim]
        assert report.blocks_read == analytic
        # The report's read bill is exactly what the stores served.
        assert after - before == report.blocks_read

    def test_shared_input_is_fetched_once(self):
        """AE(1): d2 and d3 both consume p(2,3); a repair round reads it once.

        Block by block the two repairs cost ``2 + 2`` reads (each target
        fetches its own inputs); the round gathers the union ``{p(1,2),
        p(2,3), p(3,4)}`` in one bulk read.
        """
        victims = {DataId(2), DataId(3)}
        service = self.service_with_victims_alone(AEParameters.single(), victims, 40)
        service.cluster.fail_locations([0])
        report = service.repair()
        assert set(report.repaired) == victims
        per_block = repair_model_for("ae-1").single_failure_cost(BLOCK_SIZE).blocks_read
        # The shared parity p(2,3) is counted once, so one read is saved.
        assert report.blocks_read == per_block * len(victims) - 1
        for index in (2, 3):
            assert payloads_equal(
                service.cluster.try_get_many([DataId(index)])[0], make_payload(index, BLOCK_SIZE)
            )


class TestSegmentLogZeroCopy:
    """Bulk segment-log reads hand out mmap-backed views, not copies."""

    def test_get_many_returns_mmap_backed_views(self, tmp_path):
        store = BlockStore(0, backend=SegmentLogBackend(str(tmp_path)), cache_blocks=0)
        blocks = {DataId(i): make_payload(i, 256) for i in range(1, 9)}
        store.put_many(blocks.items())

        def backing_map(payload: np.ndarray) -> mmap.mmap:
            base = payload.base
            if isinstance(base, memoryview):
                base = base.obj
            assert isinstance(base, mmap.mmap)
            return base

        payloads = store.try_get_many(list(blocks))
        for block_id, payload in zip(blocks, payloads):
            assert isinstance(payload, np.ndarray)
            assert not payload.flags.owndata
            assert not payload.flags.writeable
            backing_map(payload)
            assert payload.tobytes() == blocks[block_id]
        # All eight records landed in the same segment: one shared map.
        assert len({id(backing_map(payload)) for payload in payloads}) == 1

        # The batched-repair entry point rides the same zero-copy path.
        maybe = store.try_get_many([DataId(1), DataId(99)])
        assert backing_map(maybe[0]) is backing_map(payloads[0])
        assert maybe[1] is None
        store.close()

    @staticmethod
    def closed_service(tmp_path, scheme="ae-3-2-5", deleted_bytes=0):
        """A closed segment service holding ``doc`` (close ended every log
        with an index); with ``deleted_bytes`` a bigger document was put and
        deleted first, so under an erasable scheme the logs are mostly dead."""
        config = StorageConfig(
            scheme=scheme,
            topology=12,
            block_size=512,
            backend="segment",
            data_dir=str(tmp_path),
            seed=7,
        )
        payload = bytes((5 * i + 1) % 251 for i in range(512 * 30))
        service = StorageService.open(config)
        if deleted_bytes:
            service.put("gone", bytes(range(256)) * (deleted_bytes // 256))
            service.delete("gone")
        service.put("doc", payload)
        blocks_before = sum(len(store) for store in service.cluster.locations())
        service.close()
        logs = sorted(glob.glob(os.path.join(str(tmp_path), "loc-*", "segments", "*.log")))
        return config, payload, blocks_before, max(logs, key=os.path.getsize)

    def test_torn_tail_reopen_round_trips_via_batched_repair(self, tmp_path):
        config, payload, blocks_before, victim_log = self.closed_service(tmp_path)

        # Simulate a crash mid-append: tear the last block record of one
        # location's newest segment.  Recovery must drop exactly that record.
        offset, _, _, record_len = [
            record for record in segment_records(victim_log) if record[1] and record[2] >= 0
        ][-1]
        with open(victim_log, "r+b") as handle:
            handle.truncate(offset + record_len - 3)

        reopened = StorageService.open(config)
        blocks_after = sum(len(store) for store in reopened.cluster.locations())
        assert blocks_after == blocks_before - 1
        # The torn block is rebuilt in flight by the batched degraded-read
        # path; the document stays byte-exact.
        assert reopened.get("doc") == payload
        assert b"".join(reopened.get_stream("doc")) == payload
        # The service keeps accepting writes after recovery.
        reopened.put("more", payload[:1024])
        assert reopened.get("more") == payload[:1024]
        reopened.close()

    def test_torn_index_record_reopens_through_the_scan(self, tmp_path):
        config, payload, blocks_before, victim_log = self.closed_service(
            tmp_path, scheme="rs-10-4", deleted_bytes=512 * 60
        )
        offset, key, _, record_len = segment_records(victim_log)[-1]
        assert key == ""  # close ended the log with its index
        with open(victim_log, "r+b") as handle:
            handle.truncate(offset + record_len // 2)

        reopened = StorageService.open(config)
        # A torn index loses nothing: the scan finds every block record.
        assert sum(len(store) for store in reopened.cluster.locations()) == blocks_before
        assert os.path.getsize(victim_log) == offset
        assert reopened.get("doc") == payload
        reopened.put("more", payload[:1024])
        assert reopened.get("more") == payload[:1024]
        reopened.close()


def test_required_ids_cover_every_family():
    """The equivalence matrix spans all registered scheme families."""
    families = {scheme_id.split("-", 1)[0] for scheme_id in REQUIRED_IDS}
    assert {"ae", "rs", "lrc", "rep", "xor"} <= families
