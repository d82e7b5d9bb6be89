"""Integrity scrubbing and tamper detection over an entangled cluster.

Section III-B describes the anti-tampering property of AE codes: because every
data block propagates into ``alpha`` strands, an attacker who silently
modifies one block leaves the entanglement equations of those strands
inconsistent unless they also recompute every parity up to the strand
extremities.  This module operationalises that property:

* a :class:`ChecksumManifest` records CRC32/SHA-256 fingerprints at write time
  (the conventional, metadata-based defence);
* a :class:`Scrubber` walks the lattice and checks, for every edge,

      ``p_{i,j} == d_i XOR p_{h,i}``

  (the *entanglement equation*); checksum and equation violations become
  :class:`ScrubFinding` entries;
* attribution: a block whose *every* incident equation is violated is flagged
  as the likely tampered block (a data block participates in ``alpha``
  equations as creator, a parity in at most two);
* :meth:`Scrubber.repair_block` rebuilds a flagged block from consistent
  neighbours and rewrites it, restoring the lattice invariant.

The scrubber works on any object exposing the small block-source interface of
:class:`repro.storage.cluster.StorageCluster` (``try_get_block`` /
``put_block`` / ``location_of``), so it can run against the entangled storage
system, the RAID-AE array or a bare cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.blocks import Block, BlockId, DataId, ParityId
from repro.core.batch_repair import execute_plan, plan_round
from repro.core.lattice import HelicalLattice
from repro.core.xor import Payload, as_payload, xor_payloads, zero_payload
from repro.exceptions import IntegrityError, RepairFailedError, UnknownBlockError
from repro.storage.cluster import StorageCluster

__all__ = [
    "ChecksumManifest",
    "ScrubFinding",
    "ScrubReport",
    "Scrubber",
]


# ----------------------------------------------------------------------
# Checksum manifest
# ----------------------------------------------------------------------
class ChecksumManifest:
    """Fingerprints of every block recorded at write time."""

    def __init__(self) -> None:
        self._checksums: Dict[BlockId, int] = {}
        self._digests: Dict[BlockId, str] = {}

    def __len__(self) -> int:
        return len(self._checksums)

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._checksums

    def record(self, block: Block) -> None:
        """Record (or refresh) the fingerprint of a block."""
        self._checksums[block.block_id] = block.checksum()
        self._digests[block.block_id] = block.digest()

    def record_payload(self, block_id: BlockId, payload: Payload) -> None:
        self.record(Block(block_id=block_id, payload=payload))

    def forget(self, block_id: BlockId) -> None:
        self._checksums.pop(block_id, None)
        self._digests.pop(block_id, None)

    def expected_checksum(self, block_id: BlockId) -> int:
        if block_id not in self._checksums:
            raise UnknownBlockError(f"no checksum recorded for {block_id!r}")
        return self._checksums[block_id]

    def expected_digest(self, block_id: BlockId) -> str:
        if block_id not in self._digests:
            raise UnknownBlockError(f"no digest recorded for {block_id!r}")
        return self._digests[block_id]

    def matches(self, block_id: BlockId, payload: Payload) -> bool:
        """True when ``payload`` matches the recorded fingerprint of ``block_id``."""
        if block_id not in self._checksums:
            raise UnknownBlockError(f"no checksum recorded for {block_id!r}")
        block = Block(block_id=block_id, payload=payload)
        return (
            block.checksum() == self._checksums[block_id]
            and block.digest() == self._digests[block_id]
        )

    def block_ids(self) -> List[BlockId]:
        return list(self._checksums)


# ----------------------------------------------------------------------
# Findings and report
# ----------------------------------------------------------------------
#: Kinds of findings a scrub can produce.
MISSING = "missing"
CHECKSUM_MISMATCH = "checksum-mismatch"
EQUATION_VIOLATED = "equation-violated"
TAMPER_SUSPECT = "tamper-suspect"


@dataclass(frozen=True)
class ScrubFinding:
    """One anomaly discovered by the scrubber."""

    kind: str
    block_id: BlockId
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{self.kind}] {self.block_id!r}{suffix}"


@dataclass
class ScrubReport:
    """Outcome of a scrub pass."""

    blocks_checked: int = 0
    equations_checked: int = 0
    findings: List[ScrubFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def of_kind(self, kind: str) -> List[ScrubFinding]:
        return [finding for finding in self.findings if finding.kind == kind]

    @property
    def suspects(self) -> List[BlockId]:
        """Blocks attributed as tampered/corrupted (deduplicated, stable order)."""
        seen: Set[BlockId] = set()
        ordered: List[BlockId] = []
        for finding in self.findings:
            if finding.kind in (TAMPER_SUSPECT, CHECKSUM_MISMATCH):
                if finding.block_id not in seen:
                    seen.add(finding.block_id)
                    ordered.append(finding.block_id)
        return ordered

    def summary(self) -> str:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.kind] = counts.get(finding.kind, 0) + 1
        parts = ", ".join(f"{kind}: {count}" for kind, count in sorted(counts.items()))
        return (
            f"scrubbed {self.blocks_checked} blocks / {self.equations_checked} equations; "
            + (parts if parts else "no anomalies")
        )


# ----------------------------------------------------------------------
# Scrubber
# ----------------------------------------------------------------------
class Scrubber:
    """Walks the lattice verifying checksums and entanglement equations."""

    def __init__(
        self,
        lattice: HelicalLattice,
        cluster: StorageCluster,
        block_size: int,
        manifest: Optional[ChecksumManifest] = None,
    ) -> None:
        self._lattice = lattice
        self._cluster = cluster
        self._block_size = block_size
        self._manifest = manifest

    @property
    def manifest(self) -> Optional[ChecksumManifest]:
        return self._manifest

    # ------------------------------------------------------------------
    # Fetch helpers
    # ------------------------------------------------------------------
    def _fetch(self, block_id: BlockId) -> Optional[Payload]:
        payload = self._cluster.try_get_block(block_id)
        if payload is None:
            return None
        return as_payload(payload, self._block_size)

    # ------------------------------------------------------------------
    # Individual checks
    # ------------------------------------------------------------------
    def verify_checksums(self, block_ids: Optional[Iterable[BlockId]] = None) -> List[ScrubFinding]:
        """Compare stored payloads against the manifest fingerprints."""
        if self._manifest is None:
            return []
        findings: List[ScrubFinding] = []
        targets = list(block_ids) if block_ids is not None else self._manifest.block_ids()
        for block_id in targets:
            if block_id not in self._manifest:
                continue
            payload = self._fetch(block_id)
            if payload is None:
                findings.append(ScrubFinding(MISSING, block_id, "block unreachable"))
                continue
            if not self._manifest.matches(block_id, payload):
                findings.append(
                    ScrubFinding(CHECKSUM_MISMATCH, block_id, "payload fingerprint changed")
                )
        return findings

    def equation_blocks(self, creator: int, parity: ParityId) -> List[BlockId]:
        """Blocks participating in the entanglement equation of ``parity``."""
        input_parity = self._lattice.input_parity(creator, parity.strand_class)
        blocks: List[BlockId] = [DataId(creator), parity]
        if input_parity is not None:
            blocks.insert(1, input_parity)
        return blocks

    def check_equation(self, parity: ParityId) -> Optional[bool]:
        """Check ``p_{i,j} == d_i XOR p_{h,i}`` for one edge.

        Returns ``True`` when the equation holds, ``False`` when it is
        violated, and ``None`` when any participant is unreachable (the
        equation cannot be evaluated).
        """
        creator = parity.index
        data_payload = self._fetch(DataId(creator))
        parity_payload = self._fetch(parity)
        if data_payload is None or parity_payload is None:
            return None
        input_parity = self._lattice.input_parity(creator, parity.strand_class)
        if input_parity is None:
            input_payload: Payload = zero_payload(self._block_size)
        else:
            fetched = self._fetch(input_parity)
            if fetched is None:
                return None
            input_payload = fetched
        expected = xor_payloads(data_payload, input_payload)
        return bool(np.array_equal(expected, parity_payload))

    def verify_equations(
        self, creators: Optional[Sequence[int]] = None
    ) -> Tuple[List[ScrubFinding], Dict[BlockId, Tuple[int, int]], int]:
        """Check every entanglement equation (optionally restricted to creators).

        Returns the violation findings, a per-block ``(violated, evaluated)``
        counter used for attribution, and the number of equations that could
        actually be evaluated (all participants reachable).
        """
        findings: List[ScrubFinding] = []
        participation: Dict[BlockId, Tuple[int, int]] = {}
        evaluated_equations = 0
        targets = creators if creators is not None else range(1, self._lattice.size + 1)
        for creator in targets:
            for strand_class in self._lattice.params.strand_classes:
                parity = ParityId(creator, strand_class)
                verdict = self.check_equation(parity)
                if verdict is None:
                    continue
                evaluated_equations += 1
                blocks = self.equation_blocks(creator, parity)
                for block_id in blocks:
                    violated, evaluated = participation.get(block_id, (0, 0))
                    participation[block_id] = (violated + (0 if verdict else 1), evaluated + 1)
                if not verdict:
                    findings.append(
                        ScrubFinding(
                            EQUATION_VIOLATED,
                            parity,
                            f"p[{creator},{strand_class.value}] != d{creator} XOR input parity",
                        )
                    )
        return findings, participation, evaluated_equations

    # ------------------------------------------------------------------
    # Full scrub with attribution
    # ------------------------------------------------------------------
    def scrub(self, creators: Optional[Sequence[int]] = None) -> ScrubReport:
        """Run checksum checks (when a manifest exists) and equation checks.

        Attribution rule: a block is a tamper suspect when every equation it
        participates in is violated and it participates in at least one.  With
        ``alpha >= 2`` a single tampered block is always attributable because
        its neighbours' other equations stay consistent.
        """
        report = ScrubReport()
        report.findings.extend(self.verify_checksums())
        equation_findings, participation, evaluated_equations = self.verify_equations(creators)
        report.findings.extend(equation_findings)
        report.equations_checked = evaluated_equations
        report.blocks_checked = len(participation)
        already_flagged = {
            finding.block_id
            for finding in report.findings
            if finding.kind == CHECKSUM_MISMATCH
        }
        for block_id, (violated, evaluated) in sorted(
            participation.items(), key=_block_order
        ):
            if evaluated and violated == evaluated and violated > 0:
                if block_id in already_flagged:
                    continue
                report.findings.append(
                    ScrubFinding(
                        TAMPER_SUSPECT,
                        block_id,
                        f"all {evaluated} incident entanglement equations violated",
                    )
                )
        return report

    # ------------------------------------------------------------------
    # Repair of corrupted blocks
    # ------------------------------------------------------------------
    def repair_block(self, block_id: BlockId) -> Payload:
        """Recompute a corrupted block from consistent neighbours and rewrite it.

        Data blocks are rebuilt from a pp-tuple (two adjacent parities of one
        strand); parities from a dp-tuple.  The repaired payload is written
        back to the block's existing location and the manifest (if any) is
        refreshed.
        """
        # One round: one tuple of stored neighbours, never a chain of rebuilt
        # ones (and a plan never reads its own target, the suspect).
        steps = plan_round(self._lattice, [block_id], self._cluster.is_available)
        if not steps:
            raise RepairFailedError(block_id, "no available recovery path")
        candidate = execute_plan(steps, self._fetch, self._block_size)[block_id]
        location = self._cluster.location_of(block_id)
        self._cluster.location(location).put(block_id, candidate)
        if self._manifest is not None:
            self._manifest.record_payload(block_id, candidate)
        return candidate

    def repair_suspects(self, report: Optional[ScrubReport] = None) -> List[BlockId]:
        """Repair every suspect of ``report`` (running a fresh scrub when omitted)."""
        report = report if report is not None else self.scrub()
        repaired: List[BlockId] = []
        for block_id in report.suspects:
            try:
                self.repair_block(block_id)
            except RepairFailedError:
                continue
            repaired.append(block_id)
        return repaired


def _block_order(item: Tuple[BlockId, Tuple[int, int]]) -> Tuple[int, int, str]:
    block_id, _ = item
    if isinstance(block_id, DataId):
        return (0, block_id.index, "")
    return (1, block_id.index, block_id.strand_class.value)
