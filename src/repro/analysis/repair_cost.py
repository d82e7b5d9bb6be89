"""Repair bandwidth and I/O accounting across redundancy schemes.

The introduction's core complaint about RS(k, m) codes is the cost of single
failures: repairing one lost block of ``B`` bytes requires ``k`` reads and
``k * B`` bytes of network traffic, while alpha entanglement codes always
repair a single failure by XORing exactly two blocks regardless of the code
setting (Section V-C3).  This module turns those statements into an explicit
accounting model so the trade-off can be tabulated and benchmarked:

* per-block repair cost (reads, bytes transferred, XOR operations);
* degraded-read cost (reads needed to serve a block whose location is down);
* disaster repair traffic: given a disaster size and the single-failure
  fraction measured by the simulator (Fig. 13), the expected total bytes
  moved to restore redundancy.

The model is intentionally analytic -- it complements the availability-only
simulator (which counts blocks) with byte-level costs so that the "AE codes
reduce repair costs" claim can be quantified for concrete block sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.exceptions import InvalidParametersError
from repro.schemes import SchemeLike
from repro.simulation.metrics import describe_scheme

__all__ = [
    "RepairCost",
    "SchemeRepairModel",
    "repair_model_for",
    "single_failure_table",
    "disaster_traffic_table",
]


@dataclass(frozen=True)
class RepairCost:
    """Cost of one repair (or degraded read) in blocks, bytes and operations."""

    scheme: str
    blocks_read: int
    bytes_transferred: int
    xor_operations: int
    io_locations: int

    def as_row(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "blocks read": self.blocks_read,
            "bytes transferred": self.bytes_transferred,
            "XOR operations": self.xor_operations,
            "locations touched": self.io_locations,
        }


@dataclass(frozen=True)
class SchemeRepairModel:
    """Analytic repair behaviour of one redundancy scheme.

    ``single_failure_reads`` is the number of surviving blocks read to repair
    one missing block; ``rounds_factor`` inflates multi-round repairs (AE codes
    may need several passes after very large disasters, see Table VI) and is
    1.0 for stripe codes which repair each block in one shot.
    """

    name: str
    kind: str
    single_failure_reads: int
    storage_overhead: float
    rounds_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.single_failure_reads < 1:
            raise InvalidParametersError("a repair reads at least one block")
        if self.storage_overhead < 0:
            raise InvalidParametersError("storage overhead cannot be negative")
        if self.rounds_factor < 1.0:
            raise InvalidParametersError("rounds_factor must be >= 1")

    # ------------------------------------------------------------------
    # Per-block costs
    # ------------------------------------------------------------------
    def single_failure_cost(self, block_size: int) -> RepairCost:
        """Repairing one missing block of ``block_size`` bytes."""
        _check_block_size(block_size)
        reads = self.single_failure_reads
        xors = reads - 1 if self.kind != "replication" else 0
        return RepairCost(
            scheme=self.name,
            blocks_read=reads,
            bytes_transferred=reads * block_size,
            xor_operations=xors,
            io_locations=reads,
        )

    def degraded_read_cost(self, block_size: int) -> RepairCost:
        """Serving a read for a block whose location is temporarily down.

        Identical to a single-failure repair except that nothing is written
        back; the returned cost covers the read path only.
        """
        return self.single_failure_cost(block_size)

    # ------------------------------------------------------------------
    # Aggregate disaster costs
    # ------------------------------------------------------------------
    def disaster_traffic(
        self,
        missing_blocks: int,
        block_size: int,
        single_failure_fraction: float = 1.0,
    ) -> Dict[str, object]:
        """Expected traffic to repair ``missing_blocks`` blocks after a disaster.

        ``single_failure_fraction`` is the share of repairs that are plain
        single failures (Fig. 13); the remaining repairs are charged the same
        per-block read cost but multiplied by :attr:`rounds_factor` to account
        for multi-round repairs (AE) or full-stripe decodes (RS).
        """
        if missing_blocks < 0:
            raise InvalidParametersError("missing_blocks cannot be negative")
        _check_block_size(block_size)
        if not 0.0 <= single_failure_fraction <= 1.0:
            raise InvalidParametersError("single_failure_fraction must lie in [0, 1]")
        single = int(round(missing_blocks * single_failure_fraction))
        multi = missing_blocks - single
        per_block = self.single_failure_reads * block_size
        single_bytes = single * per_block
        multi_bytes = int(multi * per_block * self.rounds_factor)
        return {
            "scheme": self.name,
            "missing blocks": missing_blocks,
            "single-failure repairs": single,
            "multi-failure repairs": multi,
            "bytes transferred": single_bytes + multi_bytes,
            "bytes per repaired block": (
                (single_bytes + multi_bytes) / missing_blocks if missing_blocks else 0.0
            ),
        }


def _check_block_size(block_size: int) -> None:
    if block_size < 1:
        raise InvalidParametersError("block_size must be positive")


# ----------------------------------------------------------------------
# The model of any scheme
# ----------------------------------------------------------------------
def repair_model_for(spec: SchemeLike, expected_rounds: float = 1.0) -> SchemeRepairModel:
    """Build the repair model matching any scheme specification.

    Resolves through the :mod:`repro.schemes` registry (via
    :func:`~repro.simulation.metrics.describe_scheme`), so every registered
    family -- including LRC and flat XOR -- gets an analytic repair model,
    not just the three the paper tabulates.  ``expected_rounds`` only
    applies to AE codes (stripe codes repair each block in one shot).
    """
    capabilities = describe_scheme(spec)
    rounds_factor = max(expected_rounds, 1.0) if capabilities.kind == "ae" else 1.0
    return SchemeRepairModel(
        name=capabilities.name,
        kind=capabilities.kind,
        single_failure_reads=capabilities.single_failure_reads,
        storage_overhead=capabilities.storage_overhead,
        rounds_factor=rounds_factor,
    )


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def single_failure_table(
    specs: Sequence[SchemeLike], block_size: int = 4096
) -> List[Dict[str, object]]:
    """Single-failure repair cost (reads / bytes / locations) per scheme."""
    rows: List[Dict[str, object]] = []
    for spec in specs:
        model = repair_model_for(spec)
        row = model.single_failure_cost(block_size).as_row()
        row["additional storage (%)"] = round(model.storage_overhead * 100.0, 1)
        rows.append(row)
    return rows


def disaster_traffic_table(
    specs: Sequence[SchemeLike],
    missing_blocks: int,
    block_size: int = 4096,
    single_failure_fractions: Optional[Dict[str, float]] = None,
    expected_rounds: Optional[Dict[str, float]] = None,
) -> List[Dict[str, object]]:
    """Total repair traffic per scheme for a disaster of ``missing_blocks``.

    ``single_failure_fractions`` and ``expected_rounds`` can be fed from the
    simulator's Fig. 13 / Table VI outputs (keyed by scheme name); defaults of
    1.0 reproduce the purely analytic comparison.
    """
    fractions = single_failure_fractions or {}
    rounds = expected_rounds or {}
    rows: List[Dict[str, object]] = []
    for spec in specs:
        name = describe_scheme(spec).name
        model = repair_model_for(spec, rounds.get(name, 1.0))
        rows.append(
            model.disaster_traffic(
                missing_blocks,
                block_size,
                fractions.get(name, 1.0),
            )
        )
    return rows
