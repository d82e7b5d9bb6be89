"""Integration tests for the geo-replicated cooperative backup use case (Sec. IV-A).

Every owner's lattice is a ``StorageService`` over the community's nodes; the
tests pin what the use case promises whatever it is built from: data on the
owner's node and no parity of an owner on that node (after upload and after
repair), independent lattices, restores from remote parities, the Table III
walkthrough and the Fig. 5 report.
"""

from __future__ import annotations

import pytest

from repro.core.blocks import DataId, ParityId, is_data
from repro.core.parameters import AEParameters, StrandClass
from repro.exceptions import UnknownBlockError
from repro.system.backup import CooperativeBackupNetwork
from repro.system.keys import location_for_block

from tests.conftest import make_payload


def small_network(nodes: int = 12) -> CooperativeBackupNetwork:
    return CooperativeBackupNetwork(nodes, AEParameters.triple(5, 5), block_size=64)


def assert_data_home_parities_remote(network: CooperativeBackupNetwork, node_id: int):
    """The placement rule of Sec. IV-A, checked on the owner's whole lattice."""
    cluster = network.service_of(node_id).cluster
    lattice = network.lattice_of(node_id)
    assert len(cluster) == lattice.total_blocks > 0
    for block_id in lattice.block_ids():
        location = cluster.location_of(block_id)
        assert cluster.is_available(block_id)
        assert (location == node_id) == is_data(block_id), (block_id, location)
        assert cluster.topology.site_of(location) == (
            "home" if is_data(block_id) else "remote"
        )


class TestBackupUpload:
    def test_data_stays_local_parities_go_remote(self):
        network = small_network()
        document = network.backup(0, "photos.tar", make_payload(1, 2000))
        assert_data_home_parities_remote(network, 0)
        cluster = network.service_of(0).cluster
        assert cluster.blocks_at(0) == document.data_ids
        assert cluster.stats().domain_blocks == {"home": 32, "remote": 96}

    def test_parities_are_found_by_key(self):
        """``keys.location_for_block`` is the placement rule, not a bystander."""
        network = small_network()
        network.backup(3, "notes", make_payload(2, 1000))
        cluster = network.service_of(3).cluster
        for parity in network.lattice_of(3).parity_ids():
            assert cluster.location_of(parity) == location_for_block(
                network.owner_name(3), parity, 12, exclude=3
            )

    def test_multiple_users_have_independent_lattices(self):
        network = small_network()
        network.service_of(1, AEParameters(2, 2, 5))
        doc_a = network.backup(0, "a", make_payload(1, 500))
        doc_b = network.backup(1, "b", make_payload(2, 700))
        assert network.lattice_of(0).size == len(doc_a.data_ids) == 8
        assert network.lattice_of(1).size == len(doc_b.data_ids) == 11
        assert network.lattice_of(0).params == AEParameters.triple(5, 5)
        assert network.lattice_of(1).params == AEParameters(2, 2, 5)
        for node_id in (0, 1):
            assert_data_home_parities_remote(network, node_id)
        # Node 1 hosts parities of node 0's lattice, and none of its own.
        assert network.service_of(0).cluster.blocks_at(1)
        assert network.restore_file(0, "a") == make_payload(1, 500)
        assert network.restore_file(1, "b") == make_payload(2, 700)

    def test_unknown_backup_raises(self):
        network = small_network()
        with pytest.raises(UnknownBlockError):
            network.restore_file(0, "missing")

    def test_a_lattice_opened_during_an_outage_sees_the_outage(self):
        network = small_network()
        network.fail_nodes([4])
        assert network.service_of(0).cluster.unavailable_locations() == [4]
        network.recover_nodes([4])
        assert network.service_of(0).cluster.unavailable_locations() == []


class TestPlacementRule:
    def test_rebuilt_blocks_rank_home_and_remote_apart(self):
        from repro.system.backup import OwnerHomePlacement

        policy = OwnerHomePlacement("node-2", 2, 5)
        assert policy.topology.sites == ("remote", "home")
        assert policy.topology.site_locations("home") == (2,)
        assert policy.spread_level() == "node"
        data, parity = DataId(1), ParityId(1, StrandClass.HORIZONTAL)
        assert policy.locations_for([data])[0] == 2 != policy.locations_for([parity])[0]
        assert policy.relocation_ranks([data, parity]) == [(1, 1, 0, 1, 1), (0, 0, 1, 0, 0)]


class TestFailureModeAndRepair:
    def test_restore_after_local_data_loss(self):
        network = small_network()
        payload = make_payload(3, 3000)
        network.backup(0, "notes", payload)
        network.node(0).lose_local_data()
        assert network.node(0).available
        assert network.redundancy_report(0).unavailable_data == 47
        assert network.restore_file(0, "notes") == payload

    def test_restore_despite_remote_failures(self):
        network = small_network()
        payload = make_payload(4, 3000)
        network.backup(0, "notes", payload)
        network.node(0).lose_local_data()
        network.fail_nodes([2, 3, 4])
        assert network.restore_file(0, "notes") == payload

    def test_parity_repair_follows_table_three_steps(self):
        """The regenerated parity walkthrough of Table III."""
        network = small_network()
        network.backup(0, "notes", make_payload(5, 4000))
        cluster = network.service_of(0).cluster
        # Pick a parity hosted on a node we will fail.
        parity = next(iter(network.lattice_of(0).parity_ids()))
        victim = cluster.location_of(parity)
        network.fail_nodes([victim])
        traces = {trace.parity: trace for trace in network.repair_lattice(0)}
        trace = traces[parity]
        assert trace.succeeded
        assert [(step.number, step.description) for step in trace.steps] == [
            (1, "Obtain dp-tuple id"),
            (2, "Choose p-block id"),
            (3, "Compute location key"),
            (4, "Get block"),
            (5, "Repair block"),
            (6, "Store repaired block"),
        ]
        # The first parity of a strand is its d-block XOR the virtual zero.
        assert trace.steps[1].detail == "virtual zero parity"
        assert trace.steps[4].detail == parity.label()
        # The repaired parity now lives on an available remote node.
        new_home = cluster.location_of(parity)
        assert new_home not in (0, victim) and network.node(new_home).available
        assert trace.steps[5].detail == f"n{new_home}"
        # A parity deeper in the lattice reads its helper from where it lives.
        deeper = next(t for t in traces.values() if t.steps[1].detail.startswith("p["))
        helper = next(
            option.parity
            for option in network.lattice_of(0).parity_repair_options(deeper.parity)
            if option.parity is not None and option.parity.label() == deeper.steps[1].detail
        )
        assert deeper.steps[2].detail == f"n{cluster.location_of(helper)}"
        assert deeper.steps[3].detail == helper.label()

    def test_repair_lattice_regenerates_all_parities_on_failed_nodes(self):
        network = small_network()
        network.backup(0, "notes", make_payload(6, 5000))
        network.fail_nodes([1, 2])
        on_failed = [
            block_id
            for node_id in (1, 2)
            for block_id in network.service_of(0).cluster.blocks_at(node_id)
        ]
        traces = network.repair_lattice(0)
        assert traces, "some parities should have lived on the failed nodes"
        assert sorted(trace.parity for trace in traces) == sorted(on_failed)
        assert all(trace.succeeded for trace in traces)
        assert_data_home_parities_remote(network, 0)
        # Nothing is left to do, and the nodes coming back change nothing.
        assert network.repair_lattice(0) == []
        network.recover_nodes([1, 2])
        assert_data_home_parities_remote(network, 0)

    def test_redundancy_report_degrades_with_failures(self):
        network = small_network()
        network.backup(0, "notes", make_payload(7, 6000))
        healthy = network.redundancy_report(0)
        assert healthy.degraded_blocks() == 0
        network.fail_nodes([2, 3, 4, 5])
        degraded = network.redundancy_report(0)
        assert degraded.degraded_blocks() > 0
        assert degraded.complete < healthy.complete
        assert degraded.unavailable_data == 0
        assert all(trace.succeeded for trace in network.repair_lattice(0))
        assert network.redundancy_report(0) == healthy

    def test_a_down_owner_repairs_nothing(self):
        network = small_network()
        network.backup(0, "notes", make_payload(8, 2000))
        network.fail_nodes([0, 5])
        traces = network.repair_lattice(0)
        assert traces and not any(trace.succeeded for trace in traces)
        network.recover_nodes([0])
        assert all(trace.succeeded for trace in network.repair_lattice(0))
        assert_data_home_parities_remote(network, 0)


class TestHandRepairBugs:
    """Bug hunt: what the hand-written Table III repair got wrong."""

    def test_one_repair_reaches_parities_whose_data_is_missing_too(self):
        """Table III's single step needs the parity's d-block; with the
        owner's disk gone as well, only the round planner gets there."""
        network = small_network()
        payload = make_payload(6, 5000)
        network.backup(0, "notes", payload)
        network.fail_nodes([1, 2])
        network.node(0).lose_local_data()
        traces = network.repair_lattice(0)
        assert len(traces) == 58
        assert [trace.parity for trace in traces if not trace.succeeded] == []
        report = network.redundancy_report(0)
        assert (report.unavailable_data, report.degraded_blocks()) == (0, 0)
        assert network.restore_file(0, "notes") == payload
        assert network.repair_lattice(0) == []
        assert_data_home_parities_remote(network, 0)

    def test_no_remote_node_up_reports_instead_of_writing_to_a_down_node(self):
        network = CooperativeBackupNetwork(3, AEParameters(3, 2, 2), block_size=64)
        payload = make_payload(6, 5000)
        network.backup(0, "notes", payload)
        network.fail_nodes([1, 2])
        traces = network.repair_lattice(0)
        assert len(traces) == 3 * 79
        assert not any(trace.succeeded for trace in traces)
        cluster = network.service_of(0).cluster
        # Nothing moved: no parity came home, none was written to a down node.
        assert all(map(is_data, cluster.blocks_at(0)))
        assert len(cluster.unavailable_blocks()) == 3 * 79
        # Once the peers return their parities are reachable again; with the
        # owner's disk gone instead, the data (only) is rebuilt and comes home.
        network.recover_nodes([1, 2])
        assert network.repair_lattice(0) == []
        network.node(0).lose_local_data()
        assert network.redundancy_report(0).unavailable_data == 79
        assert network.repair_lattice(0) == []
        assert_data_home_parities_remote(network, 0)
        assert network.restore_file(0, "notes") == payload
