"""Integration tests for an AE storage service: documents, disasters and
the paper's maintenance policies."""

from __future__ import annotations

import pytest

from repro.storage.maintenance import MaintenancePolicy
from repro.system.service import StorageConfig, StorageService

from tests.conftest import make_payload


def make_system(scheme="ae-3-2-5", locations=30, block_size=128, seed=3, **settings):
    return StorageService.open(
        StorageConfig(
            scheme=scheme, topology=locations, block_size=block_size, seed=seed, **settings
        )
    )


def policy_repair(system, policy):
    """Policy-driven repair of the service (Figs. 11/12 regimes)."""
    return system.repair(policy)


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
        # Only data is written back; what a full repair could not reach
        # either may stay unreachable, but most is restored.
        assert status.unavailable_data_blocks < before
        assert status.unavailable_data_blocks <= before // 2
        # Skipped parities remain unavailable.
        assert status.unavailable_blocks >= len(report.skipped)


class TestPolicyRepairSeesWhatPlainRepairSees:
    """A policy must only ever choose *what* to repair: the punctured
    regeneration pass and the source generation of a re-encode in flight
    belong to every policy-driven run, not just to a plain ``repair()``."""

    @staticmethod
    def damaged(scheme):
        """Four 60-block documents on 20 locations, locations 0-3 failed."""
        system = make_system(scheme, locations=20, block_size=64)
        documents = {f"doc-{n}": make_payload(n + 1, 60 * 64) for n in range(4)}
        for name, payload in documents.items():
            system.put(name, payload)
        system.fail_locations(range(4))
        return system, documents

    @pytest.mark.parametrize("scheme", ["ae-3-2-5-p75", "ae-3-2-5-p50"])
    def test_full_policy_on_a_punctured_service(self, scheme):
        system, _ = self.damaged(scheme)
        twin, _ = self.damaged(scheme)
        report = policy_repair(system, MaintenancePolicy.FULL)
        plain = twin.repair()
        assert plain.data_loss == 0 and not plain.unrecovered
        assert report.data_loss == 0
        assert report.unrecovered == []
        assert sorted(report.repaired) == sorted(plain.repaired)

    @pytest.mark.parametrize("scheme", ["ae-3-2-5-p75", "ae-3-2-5-p50"])
    def test_minimal_policy_on_a_punctured_service(self, scheme):
        system, documents = self.damaged(scheme)
        twin, _ = self.damaged(scheme)
        report = policy_repair(system, MaintenancePolicy.MINIMAL)
        twin.repair()
        assert report.data_loss == 0
        # Every data block a full repair reaches, minimal maintenance
        # reaches too; only redundancy is left alone.
        assert (
            system.status().unavailable_data_blocks
            == twin.status().unavailable_data_blocks
            == 0
        )
        assert report.skipped
        assert not any(system.scheme.is_data_block(b) for b in report.skipped)
        for name, payload in documents.items():
            assert system.get(name) == payload

    def test_minimal_policy_with_a_reencode_in_flight(self, monkeypatch):
        # One 10-block document per re-encode batch.
        system = make_system("rs-4-2", locations=12, block_size=64, seed=5, batch_blocks=10)
        documents = {f"doc-{n}": make_payload(n + 1, 10 * 64) for n in range(4)}
        for name, payload in documents.items():
            system.put(name, payload)
        original = StorageService._land
        landed = []

        def crash_on_second(self, batch):
            if landed:
                raise RuntimeError("injected crash")
            landed.extend(name for name, _ in batch)
            return original(self, batch)

        monkeypatch.setattr(StorageService, "_land", crash_on_second)
        with pytest.raises(RuntimeError, match="injected crash"):
            system.transition_to("ae-3-2-5")
        monkeypatch.undo()
        source, target = system._fallback, system.scheme
        assert system.transition.pending and len(landed) == 1

        system.fail_locations([0, 1])
        missing = system.cluster.unavailable_blocks()
        generations = {
            source: {b for b in missing if source.owns(b)},
            target: {b for b in missing if target.owns(b)},
        }
        wanted = {
            b for scheme, owned in generations.items()
            for b in owned if scheme.is_data_block(b)
        }
        assert all(
            any(scheme.is_data_block(b) for b in owned)
            and not all(scheme.is_data_block(b) for b in owned)
            for scheme, owned in generations.items()
        ), "the disaster must cost both generations data and redundancy"

        report = policy_repair(system, MaintenancePolicy.MINIMAL)
        assert report.data_loss == 0 and not report.unrecovered
        assert set(report.repaired) == wanted
        assert set(report.skipped) == missing - wanted
        assert system.cluster.unavailable_blocks() == missing - wanted
        for name, payload in documents.items():
            assert system.get(name) == payload
