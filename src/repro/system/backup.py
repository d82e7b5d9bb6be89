"""Use case 1: a geo-replicated cooperative backup network (paper, Sec. IV-A).

A community shares storage and bandwidth: every participant keeps its own data
locally and uploads *parity* blocks to remote nodes.  The system is two
tiered: storage nodes host p-blocks for other users, broker nodes encode and
decode; in the simplest deployment (modelled here) every node plays both
roles.  Each user manages its own entanglement lattice, so multiple lattices
-- possibly with different settings -- coexist in the network.

Every owner's lattice is one :class:`~repro.system.service.StorageService`
over the community's nodes: "data home, parities remote by key" is a
placement policy (:class:`OwnerHomePlacement`) over a two-site topology
(``home`` = the owner's node, ``remote`` = everyone else), a backup is a
``put``, a restore a ``get`` and a lattice repair the service's ``repair()``.
On top of that the module reproduces the failure-mode walkthrough of Fig. 5
(:meth:`CooperativeBackupNetwork.redundancy_report`) and the repair steps of
Table III (:class:`ParityRepairTrace`), both read off the owner's cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.codes.entanglement import EntanglementScheme
from repro.core.batch_repair import block_sort_key, plan_round
from repro.core.blocks import BlockId, ParityId, is_data, is_parity
from repro.core.lattice import HelicalLattice
from repro.core.parameters import AEParameters
from repro.storage.cluster import StorageCluster
from repro.storage.maintenance import MaintenancePolicy
from repro.storage.placement import PlacementPolicy
from repro.storage.topology import Topology, TopologyNode
from repro.system.keys import derive_key, location_for_block
from repro.system.service import StorageService, StoredDocument


class OwnerHomePlacement(PlacementPolicy):
    """Data blocks on the owner's node, parities on remote nodes found by key.

    The rule holds for rebuilt blocks too: the policy spreads at *node*
    level (one down peer must not rule out the whole ``remote`` site) and
    ranks the owner's node best for data and worst for parities, so the
    cluster's domain-aware relocation sends a rebuilt d-block home and a
    rebuilt p-block to a remote node whenever one of each is up.
    """

    def __init__(self, owner: str, home: int, node_count: int) -> None:
        super().__init__(
            Topology(
                [
                    TopologyNode(
                        node_id, "home" if node_id == home else "remote", "rack-0",
                        f"node-{node_id}",
                    )
                    for node_id in range(node_count)
                ]
            )
        )
        self._owner = owner
        self._home = home
        self._data_row = tuple(int(node != home) for node in range(node_count))
        self._parity_row = tuple(int(node == home) for node in range(node_count))

    def locations_for(self, block_ids: Sequence[BlockId]) -> List[int]:
        owner, home, count = self._owner, self._home, self.location_count
        return [
            home if is_data(block_id) else location_for_block(owner, block_id, count, exclude=home)
            for block_id in block_ids
        ]

    def spread_level(self) -> Optional[str]:
        return "node"

    def relocation_ranks(self, block_ids: Sequence[BlockId]) -> List[Tuple[int, ...]]:
        data_row, parity_row = self._data_row, self._parity_row
        return [data_row if is_data(block_id) else parity_row for block_id in block_ids]


@dataclass
class RepairStep:
    """One row of the Table III walkthrough."""

    number: int
    description: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.number}. {self.description}: {self.detail}"


@dataclass
class ParityRepairTrace:
    """The full Table III procedure for regenerating one parity block."""

    parity: ParityId
    steps: List[RepairStep] = field(default_factory=list)
    succeeded: bool = False


@dataclass
class RedundancyDegradation:
    """Per-lattice redundancy state after node failures (paper, Fig. 5)."""

    owner: str
    complete: int = 0
    missing_one_tuple: int = 0
    missing_two_tuples: int = 0
    missing_three_tuples: int = 0
    unavailable_data: int = 0

    def degraded_blocks(self) -> int:
        return (
            self.missing_one_tuple + self.missing_two_tuples + self.missing_three_tuples
        )


class BackupNode:
    """One participant: a name and an up/down flag.

    Its blocks -- the user's own data and the parities hosted for others --
    live in the owners' clusters, at this node's location.
    """

    def __init__(self, network: "CooperativeBackupNetwork", node_id: int) -> None:
        self._network = network
        self.node_id = node_id
        self.name = f"node-{node_id}"
        self.available = True

    def lose_local_data(self) -> None:
        """Simulate a local disk crash: the user's own blocks disappear."""
        cluster = self._network.service_of(self.node_id).cluster
        cluster.wipe_locations([self.node_id])
        if self.available:
            cluster.restore_locations([self.node_id])


class CooperativeBackupNetwork:
    """A loosely connected cluster of backup nodes with per-user lattices."""

    def __init__(
        self,
        node_count: int,
        params: AEParameters = AEParameters.triple(5, 5),
        block_size: int = 1024,
    ) -> None:
        self._params = params
        self._block_size = block_size
        self.nodes: List[BackupNode] = [
            BackupNode(self, node_id) for node_id in range(node_count)
        ]
        self._services: Dict[int, StorageService] = {}

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    @property
    def params(self) -> AEParameters:
        return self._params

    def node(self, node_id: int) -> BackupNode:
        return self.nodes[node_id]

    def owner_name(self, node_id: int) -> str:
        return self.nodes[node_id].name

    def fail_nodes(self, node_ids: Iterable[int]) -> None:
        self._set_available(list(node_ids), False)

    def recover_nodes(self, node_ids: Iterable[int]) -> None:
        self._set_available(list(node_ids), True)

    def _set_available(self, node_ids: List[int], available: bool) -> None:
        """Every owner's cluster sees the same nodes up and down."""
        for node_id in node_ids:
            self.nodes[node_id].available = available
        for service in self._services.values():
            if available:
                service.restore_locations(node_ids)
            else:
                service.fail_locations(node_ids)

    def service_of(
        self, node_id: int, params: Optional[AEParameters] = None
    ) -> StorageService:
        """The service holding ``node_id``'s lattice, opened on first use.

        ``params`` picks the owner's AE setting at that first use (default:
        the network's); every owner entangles independently of the others.
        """
        service = self._services.get(node_id)
        if service is None:
            placement = OwnerHomePlacement(
                self.owner_name(node_id), node_id, len(self.nodes)
            )
            service = self._services[node_id] = StorageService(
                EntanglementScheme(params or self._params, self._block_size),
                StorageCluster(placement=placement),
            )
            service.fail_locations(
                node.node_id for node in self.nodes if not node.available
            )
        return service

    def lattice_of(self, node_id: int) -> HelicalLattice:
        return self.service_of(node_id).scheme.lattice  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Backup, restore, repair
    # ------------------------------------------------------------------
    def backup(self, node_id: int, filename: str, data: bytes) -> StoredDocument:
        """Encode a file on ``node_id`` and upload its parities to remote nodes."""
        return self.service_of(node_id).put(filename, data)

    def restore_file(self, node_id: int, filename: str) -> bytes:
        """Rebuild a user's file from remote parities (local d-blocks may be gone)."""
        return self.service_of(node_id).get(filename)

    def repair_lattice(self, node_id: int) -> List[ParityRepairTrace]:
        """Repair a user's lattice; one Table III trace per missing parity.

        Both halves are the owner's ``repair()``.  First the data: lost
        d-blocks are rebuilt from the surviving parities and return home.
        Then everything else: each parity still missing gets its walkthrough
        -- steps 1-4 as its dp-tuples stand now, steps 5-6 once it is stored
        again on an available remote node (a parity whose helper parity is
        missing too has no complete dp-tuple yet and is reached in a later
        repair round).  With no remote node up only the data is rebuilt, and
        a down owner repairs nothing: no block is placed against the rule.
        """
        service = self.service_of(node_id)
        cluster = service.cluster
        home_up = self.nodes[node_id].available
        if home_up:
            service.repair(MaintenancePolicy.MINIMAL)
        traces = [
            self._table_three(node_id, parity)
            for parity in sorted(cluster.unavailable_blocks(), key=block_sort_key)
            if is_parity(parity)
        ]
        if home_up and any(
            node.available for node in self.nodes if node.node_id != node_id
        ):
            repaired = set(service.repair().repaired)
            for trace in traces:
                if trace.parity in repaired:
                    trace.succeeded = True
                    target = cluster.location_of(trace.parity)
                    trace.steps += [
                        RepairStep(5, "Repair block", trace.parity.label()),
                        RepairStep(6, "Store repaired block", f"n{target}"),
                    ]
        return traces

    def _table_three(self, node_id: int, parity: ParityId) -> ParityRepairTrace:
        """Steps 1-4 of Table III for one missing parity, as things stand."""
        cluster = self.service_of(node_id).cluster
        lattice = self.lattice_of(node_id)
        key = derive_key(self.owner_name(node_id), parity).short()
        trace = ParityRepairTrace(parity=parity)
        trace.steps.append(
            RepairStep(
                1,
                "Obtain dp-tuple id",
                ", ".join(
                    f"{{{key}: ({option.data.label()}, "
                    f"{option.parity.label() if option.parity else 'zero'})}}"
                    for option in lattice.parity_repair_options(parity)
                ),
            )
        )
        plan = plan_round(lattice, [parity], cluster.is_available)
        if not plan:
            trace.steps.append(
                RepairStep(2, "Choose p-block id", "no complete dp-tuple available")
            )
            return trace
        helper = plan[0].second
        if helper is None:
            label, location = "virtual zero parity", "local"
        else:
            label, location = helper.label(), f"n{cluster.location_of(helper)}"
        trace.steps.append(RepairStep(2, "Choose p-block id", label))
        trace.steps.append(RepairStep(3, "Compute location key", location))
        trace.steps.append(RepairStep(4, "Get block", label))
        return trace

    # ------------------------------------------------------------------
    # Redundancy accounting (Fig. 5)
    # ------------------------------------------------------------------
    def redundancy_report(self, node_id: int) -> RedundancyDegradation:
        """Count how many pp-tuples of each local d-block are incomplete."""
        available = self.service_of(node_id).cluster.is_available
        lattice = self.lattice_of(node_id)
        report = RedundancyDegradation(owner=self.owner_name(node_id))
        for data_id in lattice.data_ids():
            if not available(data_id):
                report.unavailable_data += 1
            broken_tuples = sum(
                1
                for option in lattice.data_repair_options(data_id.index)
                if not all(map(available, option.required_blocks()))
            )
            if broken_tuples == 0:
                report.complete += 1
            elif broken_tuples == 1:
                report.missing_one_tuple += 1
            elif broken_tuples == 2:
                report.missing_two_tuples += 1
            else:
                report.missing_three_tuples += 1
        return report
