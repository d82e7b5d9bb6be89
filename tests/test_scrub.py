"""Tests for integrity scrubbing and tamper detection (repro.storage.scrub)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocks import Block, DataId, ParityId
from repro.core.parameters import AEParameters, StrandClass
from repro.exceptions import RepairFailedError, UnknownBlockError
from repro.storage.scrub import (
    CHECKSUM_MISMATCH,
    EQUATION_VIOLATED,
    MISSING,
    TAMPER_SUSPECT,
    ChecksumManifest,
    ScrubFinding,
    ScrubReport,
    Scrubber,
)
from repro.system.service import StorageConfig, StorageService

BLOCK_SIZE = 64


def build_system(spec: str = "AE(3,2,5)", blocks: int = 30, seed: int = 0):
    """An AE storage service with a manifest recorded at write time."""
    system = StorageService.open(
        StorageConfig(
            scheme=AEParameters.parse(spec).scheme_id,
            topology=20,
            block_size=BLOCK_SIZE,
            seed=seed,
        )
    )
    rng = np.random.default_rng(seed)
    system.put("stream", rng.integers(0, 256, size=blocks * BLOCK_SIZE, dtype=np.uint8).tobytes())
    manifest = ChecksumManifest()
    for block_id in system.cluster.block_ids():
        manifest.record_payload(block_id, system.cluster.try_get_block(block_id))
    scrubber = Scrubber(system.scheme.lattice, system.cluster, BLOCK_SIZE, manifest)
    return system, manifest, scrubber


def corrupt(system: StorageService, block_id) -> None:
    """Silently flip bytes of a stored block (tampering)."""
    location = system.cluster.location_of(block_id)
    store = system.cluster.location(location)
    payload = np.asarray(store.try_get(block_id), dtype=np.uint8).copy()
    payload[0] ^= 0xFF
    payload[-1] ^= 0xA5
    store.put(block_id, payload)


class TestChecksumManifest:
    def test_record_and_match(self):
        manifest = ChecksumManifest()
        block = Block(DataId(1), np.arange(16, dtype=np.uint8))
        manifest.record(block)
        assert DataId(1) in manifest
        assert len(manifest) == 1
        assert manifest.matches(DataId(1), block.payload)
        assert not manifest.matches(DataId(1), np.zeros(16, dtype=np.uint8))

    def test_expected_values_and_forget(self):
        manifest = ChecksumManifest()
        block = Block(DataId(2), b"hello world!")
        manifest.record(block)
        assert manifest.expected_checksum(DataId(2)) == block.checksum()
        assert manifest.expected_digest(DataId(2)) == block.digest()
        manifest.forget(DataId(2))
        assert DataId(2) not in manifest
        with pytest.raises(UnknownBlockError):
            manifest.expected_checksum(DataId(2))
        with pytest.raises(UnknownBlockError):
            manifest.matches(DataId(2), b"x")

    def test_block_ids_listing(self):
        manifest = ChecksumManifest()
        manifest.record_payload(DataId(1), b"a" * 8)
        manifest.record_payload(ParityId(1, StrandClass.HORIZONTAL), b"b" * 8)
        assert len(manifest.block_ids()) == 2


class TestCleanScrub:
    def test_clean_system_has_no_findings(self):
        _, _, scrubber = build_system()
        report = scrubber.scrub()
        assert report.clean
        assert report.blocks_checked > 0
        assert report.equations_checked > 0
        assert "no anomalies" in report.summary()

    def test_check_equation_holds_everywhere(self):
        system, _, scrubber = build_system("AE(2,2,2)", blocks=12)
        for creator in range(1, 13):
            for strand_class in system.scheme.params.strand_classes:
                assert scrubber.check_equation(ParityId(creator, strand_class)) is True

    def test_check_equation_none_when_block_missing(self):
        system, _, scrubber = build_system(blocks=10)
        system.fail_locations(system.cluster.available_locations()[:5])
        verdicts = {
            scrubber.check_equation(ParityId(creator, StrandClass.HORIZONTAL))
            for creator in range(1, 11)
        }
        assert None in verdicts  # at least one equation cannot be evaluated


class TestTamperDetection:
    def test_tampered_data_block_is_detected_and_attributed(self):
        system, _, scrubber = build_system(blocks=30)
        target = DataId(15)  # middle of the lattice: unambiguous attribution
        corrupt(system, target)
        report = scrubber.scrub()
        assert not report.clean
        assert target in report.suspects
        assert any(f.kind == CHECKSUM_MISMATCH and f.block_id == target for f in report.findings)
        violated = report.of_kind(EQUATION_VIOLATED)
        # All alpha equations of the tampered node are inconsistent.
        assert len(violated) == system.scheme.params.alpha

    def test_tampered_parity_block_is_detected(self):
        system, _, scrubber = build_system(blocks=30)
        target = ParityId(10, StrandClass.HORIZONTAL)
        corrupt(system, target)
        report = scrubber.scrub()
        assert target in report.suspects

    def test_detection_without_manifest_uses_equations_only(self):
        system, _, _ = build_system(blocks=30)
        scrubber = Scrubber(system.scheme.lattice, system.cluster, BLOCK_SIZE, manifest=None)
        target = DataId(12)
        corrupt(system, target)
        report = scrubber.scrub()
        assert target in report.suspects
        assert not report.of_kind(CHECKSUM_MISMATCH)  # no manifest to compare against

    def test_missing_block_reported(self):
        system, manifest, scrubber = build_system(blocks=20)
        # Fail the location holding d5 so the manifest check cannot read it.
        location = system.cluster.location_of(DataId(5))
        system.fail_locations([location])
        findings = scrubber.verify_checksums([DataId(5)])
        assert findings and findings[0].kind == MISSING

    def test_verify_checksums_without_manifest_is_empty(self):
        system, _, _ = build_system(blocks=5)
        scrubber = Scrubber(system.scheme.lattice, system.cluster, BLOCK_SIZE, manifest=None)
        assert scrubber.verify_checksums() == []


class TestScrubRepair:
    def test_repair_restores_tampered_data_block(self):
        system, manifest, scrubber = build_system(blocks=30)
        target = DataId(15)
        original = np.asarray(system.get_block(target), dtype=np.uint8).copy()
        corrupt(system, target)
        repaired = scrubber.repair_block(target)
        assert np.array_equal(repaired, original)
        assert scrubber.scrub().clean

    def test_repair_restores_tampered_parity(self):
        system, manifest, scrubber = build_system(blocks=30)
        target = ParityId(10, StrandClass.RIGHT_HANDED)
        original = np.asarray(system.cluster.try_get_block(target), dtype=np.uint8).copy()
        corrupt(system, target)
        repaired = scrubber.repair_block(target)
        assert np.array_equal(repaired, original)

    def test_repair_suspects_round_trip(self):
        system, _, scrubber = build_system(blocks=30)
        targets = [DataId(8), ParityId(20, StrandClass.HORIZONTAL)]
        for target in targets:
            corrupt(system, target)
        repaired = scrubber.repair_suspects()
        assert set(targets) <= set(repaired)
        assert scrubber.scrub().clean

    def test_repair_fails_without_consistent_neighbours(self):
        system, _, scrubber = build_system("AE(1,-,-)", blocks=10)
        # Pick a node whose two incident parities live on locations different
        # from its own, so we can take the parities away while keeping the
        # (corrupted) data block writable.
        target = None
        parity_locations = []
        for index in range(3, 9):
            candidate = DataId(index)
            own = system.cluster.location_of(candidate)
            parities = [ParityId(index - 1, StrandClass.HORIZONTAL), ParityId(index, StrandClass.HORIZONTAL)]
            locations = [system.cluster.location_of(parity) for parity in parities]
            if own not in locations:
                target = candidate
                parity_locations = locations
                break
        assert target is not None, "no suitable node found for this seed"
        corrupt(system, target)
        system.fail_locations(parity_locations)
        with pytest.raises(RepairFailedError):
            scrubber.repair_block(target)


class TestReportShape:
    def test_of_kind_and_suspect_order(self):
        report = ScrubReport(
            blocks_checked=3,
            equations_checked=3,
            findings=[
                ScrubFinding(TAMPER_SUSPECT, DataId(2)),
                ScrubFinding(CHECKSUM_MISMATCH, DataId(2)),
                ScrubFinding(TAMPER_SUSPECT, DataId(1)),
            ],
        )
        assert len(report.of_kind(TAMPER_SUSPECT)) == 2
        assert report.suspects == [DataId(2), DataId(1)]
        assert not report.clean
