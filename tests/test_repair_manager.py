"""Tests for the maintenance policies and for policy-driven repair of an AE
lattice through ``StorageService.repair(policy)``."""

from __future__ import annotations

from repro.codes.entanglement import EntanglementScheme
from repro.core.blocks import DataId, ParityId, is_data
from repro.core.parameters import AEParameters
from repro.core.xor import payloads_equal
from repro.storage.cluster import StorageCluster
from repro.storage.maintenance import MaintenanceBudget, MaintenancePolicy
from repro.storage.placement import RandomPlacement
from repro.system.service import StorageService

from tests.conftest import make_payload

BLOCK_SIZE = 32


def entangled_service(params: AEParameters, blocks: int, locations: int, seed: int = 5):
    """``blocks`` payloads entangled onto a fresh cluster; returns the
    service and every stored block's original payload."""
    cluster = StorageCluster(locations, RandomPlacement(locations, seed=seed))
    service = StorageService(EntanglementScheme(params, BLOCK_SIZE), cluster)
    service.put(
        "lattice",
        b"".join(make_payload(index, BLOCK_SIZE) for index in range(1, blocks + 1)),
    )
    originals = {
        block_id: cluster.try_get_block(block_id) for block_id in cluster.block_ids()
    }
    return service, originals


class TestMaintenancePolicies:
    def test_policy_block_filters(self):
        assert MaintenancePolicy.FULL.repairs_block(DataId(1))
        assert MaintenancePolicy.FULL.repairs_block(ParityId(1, AEParameters.triple(2, 5).strand_classes[1]))
        assert MaintenancePolicy.MINIMAL.repairs_block(DataId(1))
        assert not MaintenancePolicy.MINIMAL.repairs_block(
            ParityId(1, AEParameters.triple(2, 5).strand_classes[1])
        )
        assert not MaintenancePolicy.NONE.repairs_block(DataId(1))
        assert MaintenancePolicy.FULL.repairs_parities()
        assert not MaintenancePolicy.MINIMAL.repairs_parities()

    def test_policy_descriptions(self):
        for policy in MaintenancePolicy:
            assert policy.describe()

    def test_budget(self):
        budget = MaintenanceBudget(max_repairs_per_round=5, max_rounds=2)
        assert budget.allows_round(2)
        assert not budget.allows_round(3)
        assert budget.clip_round(10) == 5
        assert MaintenanceBudget.unlimited().clip_round(10) == 10


class TestPolicyRepair:
    def test_full_repair_restores_all_blocks(self, hec_params):
        service, originals = entangled_service(hec_params, 60, 25)
        cluster = service.cluster
        cluster.fail_locations(range(5))
        missing_before = cluster.unavailable_blocks()
        assert missing_before
        report = service.repair()
        assert report.data_loss == 0
        assert not report.unrecovered and not report.skipped
        assert set(report.repaired) == missing_before
        for block_id in missing_before:
            assert payloads_equal(cluster.try_get_block(block_id), originals[block_id])
            assert cluster.location_of(block_id) >= 5

    def test_minimal_maintenance_skips_parities(self, hec_params):
        service, originals = entangled_service(hec_params, 60, 25)
        cluster = service.cluster
        cluster.fail_locations(range(4))
        missing = cluster.unavailable_blocks()
        missing_parities = [b for b in missing if not is_data(b)]
        report = service.repair(MaintenancePolicy.MINIMAL)
        assert report.skipped == sorted(
            missing_parities, key=lambda b: (b.index, 1, b.strand_class.value)
        )
        assert set(report.repaired) == missing - set(missing_parities)
        # Skipped redundancy stays where the disaster left it.
        assert cluster.unavailable_blocks() == set(missing_parities)
        for block_id in report.repaired:
            assert payloads_equal(cluster.try_get_block(block_id), originals[block_id])

    def test_none_policy_repairs_nothing(self, hec_params):
        service, _ = entangled_service(hec_params, 40, 20)
        service.cluster.fail_locations(range(3))
        missing = service.cluster.unavailable_blocks()
        report = service.repair(MaintenancePolicy.NONE)
        assert report.repaired_count == 0 and report.blocks_read == 0
        assert set(report.skipped) == missing
        assert service.cluster.unavailable_blocks() == missing
