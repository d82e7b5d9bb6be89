"""Cluster-level repair manager for entangled storage.

Bridges the core decoder and the storage substrate: it finds the blocks made
unreachable by failed locations, runs round-based repair (blocks repaired in
one round become inputs of the next), writes the rebuilt payloads to healthy
locations and accounts for the work performed (blocks read and written,
rounds, single-failure fraction) -- the quantities reported by Figs. 11/13 and
Table VI of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.batch_repair import RepairRun, block_sort_key
from repro.core.blocks import BlockId, is_data
from repro.core.decoder import Decoder
from repro.core.lattice import HelicalLattice
from repro.core.xor import Payload
from repro.exceptions import RepairFailedError
from repro.storage.cluster import StorageCluster
from repro.storage.maintenance import MaintenanceBudget, MaintenancePolicy


@dataclass
class ClusterRepairRound:
    """Work performed during one repair round."""

    number: int
    repaired: List[BlockId] = field(default_factory=list)
    blocks_read: int = 0

    @property
    def count(self) -> int:
        return len(self.repaired)


@dataclass
class ClusterRepairReport:
    """Outcome of a cluster repair run."""

    policy: MaintenancePolicy
    rounds: List[ClusterRepairRound] = field(default_factory=list)
    unrecovered: List[BlockId] = field(default_factory=list)
    skipped: List[BlockId] = field(default_factory=list)

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def repaired_count(self) -> int:
        return sum(round_.count for round_ in self.rounds)

    @property
    def blocks_read(self) -> int:
        return sum(round_.blocks_read for round_ in self.rounds)

    @property
    def data_loss(self) -> int:
        """Data blocks that could not be repaired (the Fig. 11 metric)."""
        return sum(1 for block_id in self.unrecovered if is_data(block_id))

    @property
    def single_failure_fraction(self) -> float:
        """Fraction of repaired data blocks fixed in the first round (Fig. 13)."""
        data_repaired = [
            block_id
            for round_ in self.rounds
            for block_id in round_.repaired
            if is_data(block_id)
        ]
        if not data_repaired:
            return 0.0
        first_round_data = sum(1 for block_id in self.rounds[0].repaired if is_data(block_id))
        return first_round_data / len(data_repaired)

    def summary(self) -> str:
        return (
            f"policy={self.policy.value}: repaired {self.repaired_count} blocks in "
            f"{self.round_count} rounds ({self.blocks_read} reads); "
            f"data loss {self.data_loss}, {len(self.unrecovered)} blocks unrecovered"
        )


class ClusterRepairManager:
    """Runs round-based repair of an entangled lattice stored on a cluster."""

    def __init__(
        self,
        lattice: HelicalLattice,
        cluster: StorageCluster,
        block_size: int,
        policy: MaintenancePolicy = MaintenancePolicy.FULL,
        budget: Optional[MaintenanceBudget] = None,
    ) -> None:
        self._lattice = lattice
        self._cluster = cluster
        self._block_size = block_size
        self._policy = policy
        self._budget = budget or MaintenanceBudget.unlimited()

    # ------------------------------------------------------------------
    # Work discovery
    # ------------------------------------------------------------------
    def missing_blocks(self) -> Set[BlockId]:
        """Blocks of the lattice that are currently unreachable."""
        return {
            block_id
            for block_id in self._cluster.unavailable_blocks()
            if self._lattice.has_block(block_id)
        }

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def repair(self, max_rounds: int = 1000, batched: bool = True) -> ClusterRepairReport:
        """Repair the missing blocks according to the maintenance policy.

        The default (``batched=True``) is a thin caller of
        :class:`~repro.core.batch_repair.RepairRun`: the policy picks what to
        repair, the run plans, bulk-fetches and rebuilds one round at a time,
        and each round's payloads are written back with one grouped
        :meth:`StorageCluster.relocate_many` call.  The recovered bytes and
        the relocation targets are identical to the sequential per-block path
        (``batched=False``, kept as the equivalence reference); only the
        read accounting differs: the batched path counts every *distinct*
        payload the run obtained, so a surviving block feeding several
        dependent repairs is no longer re-counted per dependent.
        """
        report = ClusterRepairReport(policy=self._policy)
        pending = self.missing_blocks()
        report.skipped = sorted(
            (block_id for block_id in pending if not self._policy.repairs_block(block_id)),
            key=block_sort_key,
        )
        pending = {
            block_id for block_id in pending if self._policy.repairs_block(block_id)
        }
        if not pending:
            return report
        if not batched:
            return self._repair_sequential(report, pending, max_rounds)

        if self._budget.max_rounds is not None:
            max_rounds = min(max_rounds, self._budget.max_rounds)
        # Locations do not change during a run, so the cluster's directory
        # is the availability oracle; a stale positive (a location dying
        # mid-run) only costs a failed fetch and a later round.
        run = RepairRun(
            self._lattice,
            pending,
            self._block_size,
            self._cluster.try_get_many,
            self._cluster.is_available,
            max_rounds=max_rounds,
            round_cap=self._budget.max_repairs_per_round,
        )
        avoid = tuple(self._cluster.unavailable_locations())
        for recovered, new_reads in run.rounds():
            self._cluster.relocate_many(recovered.items(), avoid=avoid)
            report.rounds.append(
                ClusterRepairRound(
                    number=len(report.rounds) + 1,
                    repaired=list(recovered),
                    blocks_read=new_reads,
                )
            )
        report.unrecovered = sorted(run.pending, key=block_sort_key)
        return report

    def _repair_sequential(
        self,
        report: ClusterRepairReport,
        pending: Set[BlockId],
        max_rounds: int,
    ) -> ClusterRepairReport:
        """The historical per-block repair loop (one decoder call per target).

        Kept verbatim as the reference implementation: the batched path must
        recover byte-identical payloads onto identical locations, and the
        speedup benchmark measures against exactly this loop.
        """
        # Repaired payloads are written to healthy locations; within a round
        # the decoder only sees blocks available before the round started.
        repaired_overlay: Dict[BlockId, Payload] = {}
        avoid = tuple(self._cluster.unavailable_locations())
        round_number = 0
        while pending and round_number < max_rounds:
            round_number += 1
            if not self._budget.allows_round(round_number):
                break
            overlay_snapshot = dict(repaired_overlay)
            reads = [0]

            def source(
                block_id: BlockId,
                _snapshot: Dict[BlockId, Payload] = overlay_snapshot,
                _reads: List[int] = reads,
            ) -> Optional[Payload]:
                if _snapshot.get(block_id) is not None:
                    _reads[0] += 1
                    return _snapshot[block_id]
                payload = self._cluster.try_get_block(block_id)
                if payload is not None:
                    _reads[0] += 1
                return payload

            decoder = Decoder(self._lattice, source, self._block_size, max_depth=0)
            round_report = ClusterRepairRound(number=round_number)
            planned = sorted(pending, key=block_sort_key)
            budget_cap = self._budget.clip_round(len(planned))
            for block_id in planned:
                if round_report.count >= budget_cap:
                    break
                try:
                    payload = decoder.repair(block_id)
                except RepairFailedError:
                    continue
                self._cluster.relocate(block_id, payload, avoid=avoid)
                repaired_overlay[block_id] = payload
                round_report.repaired.append(block_id)
            round_report.blocks_read = reads[0]
            if not round_report.repaired:
                break
            for block_id in round_report.repaired:
                pending.discard(block_id)
            report.rounds.append(round_report)
        report.unrecovered = sorted(pending, key=block_sort_key)
        return report

    def repair_single(self, block_id: BlockId) -> Tuple[Payload, int]:
        """Repair one block on demand; returns the payload and the blocks read."""
        reads = [0]

        def source(requested: BlockId) -> Optional[Payload]:
            payload = self._cluster.try_get_block(requested)
            if payload is not None:
                reads[0] += 1
            return payload

        decoder = Decoder(self._lattice, source, self._block_size)
        payload = decoder.repair(block_id)
        self._cluster.relocate(
            block_id, payload, avoid=tuple(self._cluster.unavailable_locations())
        )
        return payload, reads[0]
