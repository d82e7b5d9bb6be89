"""Tests for the archival file store (repro.system.archive)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocks import DataId, ParityId
from repro.core.parameters import AEParameters, StrandClass
from repro.exceptions import IntegrityError, UnknownBlockError
from repro.storage.maintenance import MaintenancePolicy
from repro.system.archive import ArchiveEntry, ArchiveStore, ChecksumManifest


def make_archive(spec: str = "AE(3,2,5)", block_size: int = 64, locations: int = 25):
    return ArchiveStore(
        AEParameters.parse(spec),
        topology=locations,
        block_size=block_size,
        seed=3,
    )


def payload(size: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


class TestPutGet:
    def test_roundtrip(self):
        archive = make_archive()
        data = payload(1000, 1)
        entry = archive.put("report.pdf", data)
        assert entry.version == 1
        assert entry.length == 1000
        assert entry.block_count == entry.data_ids.__len__() > 0
        assert archive.get("report.pdf") == data

    def test_multiple_documents(self):
        archive = make_archive()
        first = payload(500, 1)
        second = payload(700, 2)
        archive.put("a", first)
        archive.put("b", second)
        assert archive.names() == ["a", "b"]
        assert archive.get("a") == first
        assert archive.get("b") == second
        assert archive.total_versions() == 2

    def test_unknown_name_raises(self):
        archive = make_archive()
        with pytest.raises(UnknownBlockError):
            archive.get("missing")
        with pytest.raises(UnknownBlockError):
            archive.versions("missing")

    def test_entry_metadata(self):
        archive = make_archive()
        entry = archive.put("x", payload(200, 9))
        assert isinstance(entry, ArchiveEntry)
        assert entry.internal_name == "x@v1"
        assert all(isinstance(data_id, DataId) for data_id in entry.data_ids)

    def test_manifest_records_fingerprints(self):
        archive = make_archive()
        archive.put("x", payload(300, 4))
        # Every data block plus its alpha parities has a fingerprint.
        latest = archive.latest("x")
        expected = latest.block_count * (1 + archive.params.alpha)
        assert len(archive.manifest) >= expected


class TestVersioning:
    def test_new_version_on_overwrite(self):
        archive = make_archive()
        first = payload(400, 1)
        second = payload(400, 2)
        archive.put("doc", first)
        entry = archive.put("doc", second)
        assert entry.version == 2
        assert len(archive.versions("doc")) == 2
        assert archive.latest("doc").version == 2
        # Both versions remain readable (append-only lattice).
        assert archive.get("doc", version=1) == first
        assert archive.get("doc", version=2) == second
        assert archive.get("doc") == second

    def test_missing_version_raises(self):
        archive = make_archive()
        archive.put("doc", payload(100, 1))
        with pytest.raises(UnknownBlockError):
            archive.entry("doc", version=7)


class TestVerification:
    def test_verify_and_verify_all(self):
        archive = make_archive()
        archive.put("a", payload(256, 1))
        archive.put("b", payload(256, 2))
        assert archive.verify("a")
        assert archive.verify_all() == {"a": True, "b": True}

    def test_get_verified_detects_silent_corruption(self):
        archive = make_archive("AE(1,-,-)")
        data = payload(64, 5)  # a single block, easy to corrupt coherently
        entry = archive.put("doc", data)
        target = entry.data_ids[0]
        cluster = archive.system.cluster
        store = cluster.location(cluster.location_of(target))
        corrupted = np.asarray(store.try_get_many([target])[0], dtype=np.uint8).copy()
        corrupted[0] ^= 0xFF
        store.put_many([(target, corrupted)])
        assert not archive.verify("doc")
        with pytest.raises(IntegrityError):
            archive.get_verified("doc")


class TestFailureRecovery:
    def test_read_survives_location_failures(self):
        archive = make_archive()
        data = payload(3000, 11)
        archive.put("big", data)
        locations = archive.system.cluster.available_locations()
        archive.fail_locations(locations[:5])
        assert archive.get("big") == data
        assert archive.verify("big")

    def test_repair_restores_redundancy(self):
        archive = make_archive()
        archive.put("doc", payload(2000, 12))
        cluster = archive.system.cluster
        failed = cluster.available_locations()[:4]
        archive.fail_locations(failed)
        report = archive.repair(policy=MaintenancePolicy.FULL)
        assert report.data_loss == 0
        assert report.repaired_count > 0
        # After relocation the document is readable even though the failed
        # locations never come back.
        assert archive.verify("doc")

    def test_status_summary_mentions_documents(self):
        archive = make_archive()
        archive.put("doc", payload(128, 1))
        summary = archive.status_summary()
        assert "archived versions" in summary


class TestChecksumManifest:
    def test_record_and_match(self):
        manifest = ChecksumManifest()
        payload_ = np.arange(16, dtype=np.uint8)
        manifest.record_payload(DataId(1), payload_)
        assert DataId(1) in manifest
        assert len(manifest) == 1
        assert manifest.matches(DataId(1), payload_)
        assert not manifest.matches(DataId(1), np.zeros(16, dtype=np.uint8))
        with pytest.raises(UnknownBlockError):
            manifest.matches(DataId(2), payload_)

    def test_block_ids_listing(self):
        manifest = ChecksumManifest()
        manifest.record_payload(DataId(1), b"a" * 8)
        manifest.record_payload(ParityId(1, StrandClass.HORIZONTAL), b"b" * 8)
        assert len(manifest.block_ids()) == 2


def tamper(archive: ArchiveStore, block_id) -> None:
    cluster = archive.system.cluster
    store = cluster.location(cluster.location_of(block_id))
    tampered = np.asarray(store.try_get_many([block_id])[0], dtype=np.uint8).copy()
    tampered[:4] ^= 0xAA
    store.put_many([(block_id, tampered)])


class TestScrubIntegration:
    def test_scrub_clean_archive(self):
        archive = make_archive()
        archive.put("doc", payload(1500, 7))
        report = archive.scrub()
        assert report.clean and report.checked > 0

    def test_scrub_rewrites_a_tampered_block(self):
        archive = make_archive()
        data = payload(1500, 8)
        entry = archive.put("doc", data)
        target = entry.data_ids[len(entry.data_ids) // 2]
        tamper(archive, target)
        report = archive.scrub()
        assert report.suspects == report.repaired == [target]
        assert archive.scrub().clean
        assert archive.get_verified("doc") == data

    def test_fingerprints_settle_what_the_equations_cannot(self):
        """Under AE(1) the last node's data block and parity share their one
        equation, so the equations leave a tampered last block ambiguous; its
        fingerprint names it, and it is rewritten."""
        archive = make_archive("AE(1,-,-)")
        data = payload(640, 9)
        entry = archive.put("doc", data)
        target = entry.data_ids[-1]
        tamper(archive, target)
        report = archive.scrub()
        last_parity = ParityId(target.index, StrandClass.HORIZONTAL)
        assert report.suspects == [target, last_parity]
        assert report.repaired == [target] and report.unrecovered == []
        assert archive.get_verified("doc") == data
        assert archive.scrub().clean
