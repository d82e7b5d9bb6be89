"""Integration tests for an AE storage service: documents, disasters and
the paper's maintenance policies."""

from __future__ import annotations

from repro.storage.maintenance import MaintenancePolicy
from repro.storage.repair import ClusterRepairManager
from repro.system.service import StorageConfig, StorageService

from tests.conftest import make_payload


def make_system(scheme="ae-3-2-5", locations=30, block_size=128, seed=3):
    return StorageService.open(
        StorageConfig(
            scheme=scheme, location_count=locations, block_size=block_size, seed=seed
        )
    )


def policy_repair(system, policy):
    """Policy-driven repair of the service's lattice (Figs. 11/12 regimes)."""
    manager = ClusterRepairManager(
        system.scheme.lattice, system.cluster, system.block_size, policy
    )
    return manager.repair()


class TestPutGet:
    def test_document_roundtrip(self):
        system = make_system()
        payload = b"archival payload " * 500
        document = system.put("doc", payload)
        assert document.length == len(payload)
        assert system.get("doc") == payload
        assert system.scheme.lattice.size == document.block_count

    def test_status_counts(self):
        system = make_system()
        system.put("doc", make_payload(1, 4000))
        lattice = system.scheme.lattice
        assert lattice.parity_count == lattice.size * 3
        status = system.status()
        assert status.blocks == lattice.size + lattice.parity_count
        assert status.unavailable_blocks == 0
        assert "data" in status.summary()


class TestDegradedOperation:
    def test_repair_restores_redundancy(self):
        system = make_system(locations=40)
        payload = make_payload(9, 20_000)
        system.put("doc", payload)
        system.fail_locations(range(0, 12))
        report = policy_repair(system, MaintenancePolicy.FULL)
        assert report.data_loss == 0
        assert not report.unrecovered
        # After repair, everything is reachable even though the locations stay down.
        assert system.status().unavailable_blocks == 0
        assert system.get("doc") == payload

    def test_minimal_maintenance_leaves_parities_missing(self):
        system = make_system(locations=40)
        system.put("doc", make_payload(5, 20_000))
        system.fail_locations(range(0, 12))
        before = system.status().unavailable_data_blocks
        report = policy_repair(system, MaintenancePolicy.MINIMAL)
        assert report.skipped  # parities were not repaired
        status = system.status()
        # Data repairs are prioritised; without parity repairs a few data
        # blocks may stay unreachable, but most are restored.
        assert status.unavailable_data_blocks < before
        assert status.unavailable_data_blocks <= before // 2
        # Skipped parities remain unavailable.
        assert status.unavailable_blocks >= len(report.skipped)
