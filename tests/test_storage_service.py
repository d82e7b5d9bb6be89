"""Tests for the scheme-agnostic StorageService front-end.

The core property (issue acceptance): for every registered scheme family,
write → fail locations → repair → byte-exact read holds through the same
API.  Plus delete with placement-index cleanup and the multi-scheme compare
path.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import RepairFailedError, UnknownBlockError
from repro.schemes.stripe import StripeBlockId
from repro.storage.cluster import StorageCluster
from repro.system import open_service
from repro.system.compare import compare_schemes, single_failure_reads_measured
from repro.system.service import (
    ServiceRepairReport,
    StorageConfig,
    StorageService,
)

from tests.conftest import DictSource


def make_service(scheme_id: str, **overrides) -> StorageService:
    config = StorageConfig(
        scheme=scheme_id, topology=48, block_size=256, seed=5
    )
    return StorageService.open(config, **overrides)


def seeded_payload(seed: int, length: int) -> bytes:
    return random.Random(seed).randbytes(length)


#: (scheme id, locations to fail) - failure counts each scheme's redundancy
#: and the seeded placement can absorb.
ROUNDTRIP_CASES = [
    ("ae-3-2-5", 6),
    ("ae-2-2-5", 3),
    ("ae-1", 1),
    ("rs-10-4", 2),
    ("rs-8-2", 1),
    ("lrc-azure", 2),
    ("lrc-xorbas", 3),
    ("rep-3", 2),
    ("rep-2", 1),
    ("xor-raid5-5", 1),
    ("xor-geo", 1),
]


class TestCrossSchemeRoundTrips:
    """Property-style seeded write → fail → repair → byte-exact read."""

    @pytest.mark.parametrize("scheme_id,fail_count", ROUNDTRIP_CASES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_write_fail_repair_read(self, scheme_id, fail_count, seed):
        service = make_service(scheme_id, seed=seed)
        rng = random.Random(seed * 1000 + fail_count)
        # Unaligned length: exercises final-block padding for every family.
        payload = rng.randbytes(256 * 40 + rng.randrange(1, 256))
        service.put("doc", payload)

        failed = rng.sample(range(48), fail_count)
        service.fail_locations(failed)
        report = service.repair()
        assert isinstance(report, ServiceRepairReport)
        assert report.scheme == scheme_id
        assert report.data_loss == 0, report.summary()

        # Byte-exact with the failed locations still down (repair moved the
        # payloads to healthy locations; anything left rides degraded reads).
        assert service.get("doc") == payload
        service.restore_locations()
        assert service.get("doc") == payload

    @pytest.mark.parametrize("scheme_id", ["ae-3-2-5", "rs-10-4", "lrc-azure", "rep-3"])
    def test_stream_roundtrip_unaligned(self, scheme_id):
        service = make_service(scheme_id, batch_blocks=8)
        chunks = [b"a" * 100, b"b" * 2048, b"c" * 77, b"", b"d" * 513]
        document = service.put_stream("stream", iter(chunks))
        assert document.length == sum(len(c) for c in chunks)
        assert b"".join(service.get_stream("stream")) == b"".join(chunks)

    @pytest.mark.parametrize("scheme_id", ["ae-3-2-5", "rs-10-4", "rep-3"])
    def test_empty_document(self, scheme_id):
        service = make_service(scheme_id)
        service.put("empty", b"")
        assert service.get("empty") == b""

    def test_unknown_document_raises(self):
        service = make_service("rep-2")
        with pytest.raises(UnknownBlockError):
            service.get("nope")


class TestRepairAccounting:
    @pytest.mark.parametrize("scheme_id", ["ae-3-2-5", "rs-10-4", "lrc-azure", "rep-3", "xor-geo"])
    def test_measured_single_failure_reads_match_analytics(self, scheme_id):
        service = make_service(scheme_id)
        document = service.put("doc", seeded_payload(9, 256 * 60))
        reads = single_failure_reads_measured(service, document.data_ids, victims=3)
        expected = service.capabilities.single_failure_reads
        assert reads == [expected] * len(reads)

    def test_repair_report_counts_reads(self):
        service = make_service("rs-10-4")
        service.put("doc", seeded_payload(3, 256 * 40))
        service.fail_locations([0, 1])
        report = service.repair()
        if report.repaired_count:
            assert report.blocks_read > 0
            assert report.rounds >= 1
        assert service.status().unavailable_blocks == 0  # relocated off the failed nodes

    def test_compare_rows_match_table4(self):
        results = compare_schemes(
            ("ae-3-2-5", "rs-10-4", "lrc-azure", "rep-3"),
            data_blocks=60,
            block_size=256,
            topology=40,
            fail_locations=2,
            seed=7,
            victims=2,
        )
        for result in results:
            assert result.reads_match_analytic
            row = result.as_row()
            assert row["1-failure reads (measured)"] == row["1-failure reads (analytic)"]


class TestDelete:
    def test_stripe_delete_removes_blocks_and_placement_index(self):
        service = make_service("rs-10-4")
        payload = seeded_payload(21, 256 * 25)  # 25 blocks: padded final stripe
        document = service.put("doc", payload)
        cluster = service.cluster
        before = cluster.stats().blocks
        assert before == 3 * 14  # 3 stripes of n=14, padding stored

        removed = service.delete("doc")
        assert len(removed) == before
        assert cluster.stats().blocks == 0
        assert cluster.stats().bytes_stored == 0
        for block_id in document.data_ids:
            assert not cluster.knows(block_id)
        with pytest.raises(UnknownBlockError):
            service.get("doc")

    def test_delete_only_touches_the_named_document(self):
        service = make_service("lrc-azure")
        keep = seeded_payload(4, 256 * 24)
        service.put("keep", keep)
        service.put("drop", seeded_payload(5, 256 * 24))
        service.delete("drop")
        assert service.get("keep") == keep

    def test_entanglement_delete_is_metadata_only(self):
        service = make_service("ae-3-2-5")
        service.put("doc", seeded_payload(6, 256 * 10))
        blocks_before = service.cluster.stats().blocks
        removed = service.delete("doc")
        assert removed == []  # lattice is append-only
        assert service.cluster.stats().blocks == blocks_before
        with pytest.raises(UnknownBlockError):
            service.get("doc")

    def test_delete_unknown_document_raises(self):
        service = make_service("rep-3")
        with pytest.raises(UnknownBlockError):
            service.delete("ghost")

    def test_cluster_delete_block_with_downed_location(self):
        cluster = StorageCluster(4)
        from repro.core.blocks import Block

        block = Block(StripeBlockId(0, 0), b"\x01" * 16)
        location = cluster.put_block(block)
        cluster.fail_locations([location])
        # Directory entry goes away even though the store is unreachable.
        assert cluster.delete_block(block.block_id) == location
        assert not cluster.knows(block.block_id)
        with pytest.raises(UnknownBlockError):
            cluster.delete_block(block.block_id)

    def test_cluster_delete_blocks_bulk(self):
        cluster = StorageCluster(4)
        from repro.core.blocks import Block

        ids = [StripeBlockId(0, position) for position in range(6)]
        for block_id in ids:
            cluster.put_block(Block(block_id, b"\x02" * 8))
        assert cluster.delete_blocks(ids + [StripeBlockId(9, 9)]) == 6
        assert len(cluster) == 0


class TestConfigAndStatus:
    def test_open_accepts_scheme_instance(self):
        import repro.schemes as schemes

        instance = schemes.get("rs-8-2", block_size=128)
        service = StorageService.open(StorageConfig(scheme=instance, topology=10))
        assert service.scheme is instance
        assert service.block_size == 128

    def test_open_keyword_overrides(self):
        service = StorageService.open(scheme="rep-2", topology=7, block_size=64)
        assert service.cluster.location_count == 7
        assert service.block_size == 64
        assert service.capabilities.kind == "replication"

    def test_invalid_batch_blocks(self):
        with pytest.raises(ValueError):
            StorageService.open(scheme="rep-2", batch_blocks=0)

    def test_status_snapshot(self):
        service = make_service("lrc-xorbas")
        service.put("doc", seeded_payload(8, 256 * 20))
        status = service.status()
        assert status.scheme == "lrc-xorbas"
        assert status.documents == 1
        assert status.blocks == 2 * 16  # 2 stripes of n=16
        assert status.unavailable_blocks == 0
        assert "lrc-xorbas" in status.summary()


class TestReviewRegressions:
    def test_padding_blocks_are_not_data_loss(self):
        # rs-4-2: 5 data blocks -> stripe 1 holds 1 real block + 3 padding.
        service = make_service("rs-4-2")
        payload = seeded_payload(31, 256 * 5)
        service.put("doc", payload)
        scheme = service.scheme
        padded = [StripeBlockId(1, position) for position in range(1, 4)]
        assert not any(scheme.is_data_block(block_id) for block_id in padded)
        assert all(scheme.is_data_block(block_id) for block_id in [StripeBlockId(1, 0)])
        # Losing the padding blocks outright must not register as data loss:
        # mask them from the repair path and check the report directly.
        outcome = scheme.repair(set(padded), DictSource({}))
        assert sorted(outcome.unrecovered) == padded
        report_loss = sum(1 for b in outcome.unrecovered if scheme.is_data_block(b))
        assert report_loss == 0
        assert service.get("doc") == payload

    def test_put_same_name_reclaims_old_blocks(self):
        service = make_service("rs-4-2")
        service.put("doc", seeded_payload(1, 256 * 8))
        blocks_after_first = service.cluster.stats().blocks
        service.put("doc", seeded_payload(2, 256 * 8))
        # Same footprint: the first version's stripes were deleted.
        assert service.cluster.stats().blocks == blocks_after_first
        service.delete("doc")
        assert service.cluster.stats().blocks == 0

    def test_put_stream_same_name_reclaims_old_blocks(self):
        service = make_service("lrc-azure", batch_blocks=4)
        service.put_stream("doc", [seeded_payload(3, 256 * 12)])
        blocks_after_first = service.cluster.stats().blocks
        service.put_stream("doc", [seeded_payload(4, 256 * 12)])
        assert service.cluster.stats().blocks == blocks_after_first

    def test_ae_put_same_name_keeps_lattice(self):
        service = make_service("ae-2-2-5")
        service.put("doc", seeded_payload(5, 256 * 4))
        before = service.cluster.stats().blocks
        service.put("doc", seeded_payload(6, 256 * 4))
        assert service.cluster.stats().blocks == before + 4 * 3  # append-only


class TestReadableHasOneDefinition:
    """A degraded ``get`` and ``repair()`` run the same pass, so they agree
    on what is lost: a document reads exactly when a repair of the same
    failed set would not list one of its blocks as unrecovered (PR 24: the
    read path used to give up where the repair path went on)."""

    @staticmethod
    def degraded(scheme_id: str, failed: int):
        service = open_service(scheme=scheme_id, block_size=64, topology=20, seed=0)
        documents = {
            f"doc{i}": bytes((i * 7 + j) % 251 for j in range(2048)) for i in range(40)
        }
        for name, data in documents.items():
            service.put(name, data)
        service.fail_locations(range(failed))
        return service, documents

    @staticmethod
    def unreadable(service, documents):
        """The documents ``get`` refuses; the others must be byte-exact."""
        raised = set()
        for name, data in documents.items():
            try:
                assert service.get(name) == data
            except RepairFailedError:
                raised.add(name)
        return raised

    @pytest.mark.parametrize(
        "scheme_id,failed,readable,lost",
        [
            ("ae-3-2-5", 10, {"doc12", "doc26"}, {"doc35"}),
            ("ae-3-2-5-p75", 8, {"doc8", "doc12", "doc22", "doc36"}, {"doc39"}),
        ],
    )
    def test_what_repair_would_save_reads_degraded(self, scheme_id, failed, readable, lost):
        service, documents = self.degraded(scheme_id, failed)
        assert self.unreadable(service, documents) == lost
        for name in readable:
            assert b"".join(service.get_stream(name)) == documents[name]

    @pytest.mark.parametrize("failed", range(4, 11))
    @pytest.mark.parametrize("scheme_id", ["ae-3-2-5", "ae-2-2-5", "ae-3-2-5-p75", "ae-1"])
    def test_get_raises_iff_repair_would_lose_a_block(self, scheme_id, failed):
        service, documents = self.degraded(scheme_id, failed)
        twin, _ = self.degraded(scheme_id, failed)
        unrecovered = set(twin.repair().unrecovered)
        lost = {
            name
            for name, document in twin.documents.items()
            if unrecovered.intersection(document.data_ids)
        }
        assert self.unreadable(service, documents) == lost
        # ... and what repair saved reads with the locations still down.
        assert self.unreadable(twin, documents) == lost
