"""Equivalence and accounting tests for the batched repair pipeline.

The batched cluster repair path (``ClusterRepairManager.repair``, the
default) plans each round, bulk-fetches the surviving inputs and rebuilds
every target in one matrix XOR pass.  These tests pin the contract that makes
the speedup safe to ship:

* batched and per-block repair recover bit-identical payloads onto identical
  locations, across code settings, seeds and failure patterns (including a
  whole ``site:0`` disaster under ``spread-domains`` placement);
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
from repro.storage.placement import RandomPlacement
from repro.storage.repair import ClusterRepairManager
from repro.system.service import StorageConfig, StorageService

from tests.conftest import make_payload
from tests.test_schemes import REQUIRED_IDS

BLOCK_SIZE = 64


def entangled_cluster(params: AEParameters, blocks: int, locations: int, seed: int):
    """Encode ``blocks`` payloads onto a fresh cluster; returns (encoder, cluster, originals)."""
    encoder = Entangler(params, block_size=BLOCK_SIZE)
    cluster = StorageCluster(locations, RandomPlacement(locations, seed=seed))
    originals = {}
    for index in range(1, blocks + 1):
        encoded = encoder.entangle(make_payload(index, BLOCK_SIZE))
        for block in encoded.all_blocks():
            originals[block.block_id] = block.payload
            cluster.put_block(block)
    return encoder, cluster, originals


def repaired_ids(report):
    return {block_id for round_ in report.rounds for block_id in round_.repaired}


class TestBatchedSequentialEquivalence:
    """``repair(batched=True)`` must be indistinguishable from the per-block loop."""

    @pytest.mark.parametrize("spec", ["AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)"])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_identical_payloads_and_locations(self, spec, seed):
        params = AEParameters.parse(spec)
        runs = {}
        for batched in (False, True):
            encoder, cluster, originals = entangled_cluster(params, 80, 24, seed=seed)
            cluster.fail_locations(range(4))
            manager = ClusterRepairManager(encoder.lattice, cluster, BLOCK_SIZE)
            missing = manager.missing_blocks()
            report = manager.repair(batched=batched)
            runs[batched] = (cluster, missing, report, originals)
        seq_cluster, missing, seq_report, originals = runs[False]
        bat_cluster, bat_missing, bat_report, _ = runs[True]

        # Same placement seed, same disaster: both paths saw the same work
        # list and must agree on what was recoverable.
        assert bat_missing == missing
        assert repaired_ids(bat_report) == repaired_ids(seq_report)
        assert bat_report.unrecovered == seq_report.unrecovered

        for block_id in repaired_ids(bat_report):
            assert payloads_equal(bat_cluster.get_block(block_id), originals[block_id])
            assert payloads_equal(seq_cluster.get_block(block_id), originals[block_id])
            # Relocation targets are a pure function of the block and the
            # healthy candidate set, so the paths land on the same location.
            assert bat_cluster.location_of(block_id) == seq_cluster.location_of(block_id)

        # Deduplicated bulk fetches can only reduce the read bill.
        assert bat_report.blocks_read <= seq_report.blocks_read

    def test_agreement_on_unrecoverable_blocks(self):
        """A disaster beyond the code's strength: both paths report the same loss."""
        params = AEParameters.single()
        runs = {}
        for batched in (False, True):
            encoder, cluster, _ = entangled_cluster(params, 60, 10, seed=13)
            cluster.fail_locations(range(6))
            manager = ClusterRepairManager(encoder.lattice, cluster, BLOCK_SIZE)
            runs[batched] = manager.repair(batched=batched)
        assert runs[True].unrecovered == runs[False].unrecovered
        assert repaired_ids(runs[True]) == repaired_ids(runs[False])
        assert runs[True].data_loss == runs[False].data_loss


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
                location_count=20,
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
            StorageConfig(scheme=scheme_id, location_count=20, block_size=256, seed=9)
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
    def isolated_block_cluster(params: AEParameters, victim, blocks=60, locations=12):
        """A cluster where ``victim`` is the only block at location 0."""
        encoder = Entangler(params, block_size=BLOCK_SIZE)
        cluster = StorageCluster(locations, RandomPlacement(locations, seed=2))
        spot = 1
        for index in range(1, blocks + 1):
            encoded = encoder.entangle(make_payload(index, BLOCK_SIZE))
            for block in encoded.all_blocks():
                if block.block_id == victim:
                    cluster.put_block(block, location_id=0)
                else:
                    cluster.put_block(block, location_id=1 + spot % (locations - 1))
                    spot += 1
        return encoder, cluster

    def test_single_failure_reads_match_analytic_cost(self):
        params = AEParameters.triple(2, 5)
        victim = DataId(30)
        encoder, cluster = self.isolated_block_cluster(params, victim)
        cluster.fail_locations([0])
        manager = ClusterRepairManager(encoder.lattice, cluster, BLOCK_SIZE)
        assert manager.missing_blocks() == {victim}

        before = sum(store.read_count for store in cluster.locations())
        report = manager.repair()
        after = sum(store.read_count for store in cluster.locations())

        analytic = repair_model_for("ae-3-2-5").single_failure_cost(BLOCK_SIZE).blocks_read
        assert analytic == 2
        assert report.blocks_read == analytic
        # The report's read bill is exactly what the stores served.
        assert after - before == report.blocks_read

    def test_shared_input_is_fetched_once(self):
        """AE(1): d2 and d3 both consume p(2,3); batched repair reads it once.

        Per-block repair pays ``2 + 2`` reads (each target re-fetches its own
        inputs); the batched round gathers the union ``{p(1,2), p(2,3),
        p(3,4)}`` in one bulk read.
        """
        params = AEParameters.single()
        encoder = Entangler(params, block_size=BLOCK_SIZE)
        cluster = StorageCluster(12, RandomPlacement(12, seed=2))
        spot = 1
        victims = {DataId(2), DataId(3)}
        for index in range(1, 41):
            encoded = encoder.entangle(make_payload(index, BLOCK_SIZE))
            for block in encoded.all_blocks():
                if block.block_id in victims:
                    cluster.put_block(block, location_id=0)
                else:
                    cluster.put_block(block, location_id=1 + spot % 11)
                    spot += 1
        cluster.fail_locations([0])

        sequential_cluster = StorageCluster(12, RandomPlacement(12, seed=2))
        # Re-run the same layout for the per-block reference.
        encoder_seq = Entangler(params, block_size=BLOCK_SIZE)
        spot = 1
        for index in range(1, 41):
            encoded = encoder_seq.entangle(make_payload(index, BLOCK_SIZE))
            for block in encoded.all_blocks():
                if block.block_id in victims:
                    sequential_cluster.put_block(block, location_id=0)
                else:
                    sequential_cluster.put_block(block, location_id=1 + spot % 11)
                    spot += 1
        sequential_cluster.fail_locations([0])

        batched_report = ClusterRepairManager(
            encoder.lattice, cluster, BLOCK_SIZE
        ).repair(batched=True)
        sequential_report = ClusterRepairManager(
            encoder_seq.lattice, sequential_cluster, BLOCK_SIZE
        ).repair(batched=False)

        assert repaired_ids(batched_report) == victims
        assert repaired_ids(sequential_report) == victims
        per_block = repair_model_for("ae-1").single_failure_cost(BLOCK_SIZE).blocks_read
        assert sequential_report.blocks_read == per_block * len(victims)
        # The shared parity p(2,3) is counted once, so one read is saved.
        assert batched_report.blocks_read == per_block * len(victims) - 1
        for block_id in victims:
            assert payloads_equal(
                cluster.get_block(block_id), sequential_cluster.get_block(block_id)
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

        payloads = store.get_many(list(blocks))
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

    def test_torn_tail_reopen_round_trips_via_batched_repair(self, tmp_path):
        config = StorageConfig(
            scheme="ae-3-2-5",
            location_count=12,
            block_size=512,
            backend="segment",
            data_dir=str(tmp_path),
            seed=7,
        )
        payload = bytes((5 * i + 1) % 251 for i in range(512 * 30))
        service = StorageService.open(config)
        service.put("doc", payload)
        blocks_before = sum(len(store) for store in service.cluster.locations())
        service.close()

        # Simulate a crash mid-append: tear the tail record of one location's
        # newest segment.  Recovery must drop exactly that record.
        logs = sorted(glob.glob(os.path.join(str(tmp_path), "loc-*", "segments", "*.log")))
        victim_log = max(logs, key=os.path.getsize)
        with open(victim_log, "r+b") as handle:
            handle.truncate(os.path.getsize(victim_log) - 3)

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


def test_required_ids_cover_every_family():
    """The equivalence matrix spans all registered scheme families."""
    families = {scheme_id.split("-", 1)[0] for scheme_id in REQUIRED_IDS}
    assert {"ae", "rs", "lrc", "rep", "xor"} <= families
