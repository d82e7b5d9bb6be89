"""Run the same workload and failure trace across redundancy schemes.

This is the measured counterpart of the paper's analytic Table IV: the same
document is written through every scheme's :class:`StorageService`, a single
block failure is injected and repaired through the live decode path (the
measured repair reads are printed next to the closed-form ``CodeCosts``
numbers), and a location-failure trace is replayed to report repair traffic,
data loss and end-to-end round-trip integrity per scheme.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.codes.base import CodeCosts
from repro.core.xor import payloads_equal
from repro.exceptions import ReproError
from repro.storage.topology import Topology
from repro.system.opening import open_service
from repro.system.service import StorageService

__all__ = [
    "DEFAULT_COMPARE_SCHEMES",
    "SchemeComparison",
    "compare_schemes",
    "single_failure_reads_measured",
]

#: Schemes compared by default: the paper's flagship AE setting against one
#: representative of every baseline family.
DEFAULT_COMPARE_SCHEMES = (
    "ae-3-2-5",
    "rs-10-4",
    "lrc-azure",
    "lrc-xorbas",
    "rep-3",
    "xor-geo",
)


@dataclass
class SchemeComparison:
    """Measured and analytic behaviour of one scheme under one workload."""

    scheme_id: str
    name: str
    analytic: CodeCosts
    measured_storage_percent: float
    measured_single_failure_reads: int
    failed_locations: int
    repaired_blocks: int
    repair_reads: int
    repair_rounds: int
    data_loss: int
    round_trip_ok: bool

    @property
    def reads_match_analytic(self) -> bool:
        """Measured single-failure reads equal the Table IV prediction."""
        return self.measured_single_failure_reads == self.analytic.single_failure_cost

    def as_row(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme_id,
            "code": self.name,
            "storage % (analytic)": round(self.analytic.additional_storage_percent, 1),
            "storage % (measured)": round(self.measured_storage_percent, 1),
            "1-failure reads (analytic)": self.analytic.single_failure_cost,
            "1-failure reads (measured)": self.measured_single_failure_reads,
            "disaster: failed locations": self.failed_locations,
            "disaster: repaired": self.repaired_blocks,
            "disaster: reads": self.repair_reads,
            "disaster: rounds": self.repair_rounds,
            "disaster: data loss": self.data_loss,
            "round trip": "ok" if self.round_trip_ok else "LOSS",
        }


def single_failure_reads_measured(
    service: StorageService, data_ids: Sequence[object], victims: int = 3
) -> List[int]:
    """Blocks read to repair one missing data block, measured per victim.

    Victims are taken from the middle of ``data_ids`` (away from strand
    starts, where AE repairs degenerate to one read).  Each probe runs the
    live repair path on the healthy cluster -- a repair never reads a block
    it was asked to rebuild, so the victim needs no masking -- checks the
    recovered payload byte-exact against the stored block and returns the
    read count.
    """
    if not data_ids:
        raise ReproError("cannot probe an empty document")
    count = min(victims, len(data_ids))
    stride = max(len(data_ids) // (count + 1), 1)
    chosen = [data_ids[min((i + 1) * stride, len(data_ids) - 1)] for i in range(count)]
    reads: List[int] = []
    cluster = service.cluster
    for victim in dict.fromkeys(chosen):
        expected = cluster.try_get_block(victim)
        outcome = service.scheme.repair({victim}, cluster)
        if victim not in outcome.recovered:
            raise ReproError(
                f"{service.scheme.scheme_id}: live repair failed for {victim!r}"
            )
        if not payloads_equal(outcome.recovered[victim], expected):
            raise ReproError(
                f"{service.scheme.scheme_id}: repair of {victim!r} returned wrong bytes"
            )
        reads.append(outcome.blocks_read)
    return reads


def compare_schemes(
    scheme_ids: Sequence[str] = DEFAULT_COMPARE_SCHEMES,
    data_blocks: int = 240,
    block_size: int = 1024,
    topology: Union[Topology, int, str] = 60,
    fail_locations: int = 3,
    seed: int = 7,
    victims: int = 3,
    backend: str = "memory",
    data_dir: Optional[str] = None,
    fsync: bool = False,
    placement: Optional[str] = None,
    fail_target: Optional[str] = None,
    shards: int = 1,
) -> List[SchemeComparison]:
    """Write, fail and repair the same workload under every scheme.

    ``data_blocks`` defaults to a multiple of every default scheme's stripe
    width so the measured storage overhead is exact.  The disaster trace
    fails ``fail_locations`` randomly chosen locations (same choice for every
    scheme), repairs, and verifies the document byte-exact with the failed
    locations still down -- degraded reads must cover whatever repair could
    not.

    ``topology`` is the cluster layout every scheme runs on: a location
    count, or a :class:`~repro.storage.topology.Topology`, spec string or
    JSON path for sites and racks; ``placement`` names a policy from the
    :mod:`repro.storage.placement` registry used for every scheme, and
    ``fail_target`` turns the disaster into a deterministic whole-domain
    outage (``"site:0"``, ``"rack:eu/1"``) resolved against the topology.

    With a persistent ``backend`` each scheme gets its own sub-root
    ``<data_dir>/<scheme_id>``, so the written workloads can be reopened and
    inspected afterwards.

    ``shards`` of 2 or more runs every scheme through a federation instead
    of a single service (:func:`~repro.system.opening.open_service` picks
    the layer): the workload routes to its ring owner -- whose shard is
    configured identically to the unsharded service, so the measured storage
    overhead and single-failure reads stay comparable -- the disaster fails
    the same location ids *on every shard*, and the repair runs
    federation-wide: the round trip then exercises the per-shard failure
    independence end to end.
    """
    rng = random.Random(seed)
    payload = rng.randbytes(data_blocks * block_size)
    resolved_topology = Topology.resolve(topology)
    location_count = resolved_topology.node_count
    if fail_target is not None:
        failed = sorted(resolved_topology.locations_for_target(fail_target))
    else:
        failed = rng.sample(range(location_count), min(fail_locations, location_count))
    results: List[SchemeComparison] = []
    for scheme_id in scheme_ids:
        service = open_service(
            scheme=scheme_id,
            block_size=block_size,
            seed=seed,
            backend=backend,
            data_dir=(
                os.path.join(data_dir, scheme_id) if data_dir is not None else None
            ),
            fsync=fsync,
            topology=resolved_topology,
            placement=placement,
            shards=shards,
        )
        try:
            document = service.put("workload", payload)
            stored = service.status().bytes_stored
            measured_overhead = (
                (stored - len(payload)) / len(payload) * 100.0 if payload else 0.0
            )
            probe_reads = single_failure_reads_measured(
                service.service_for("workload"), document.data_ids, victims=victims
            )
            service.fail_locations(failed)
            failed_locations = service.status().unavailable_locations
            report = service.repair()
            try:
                round_trip = service.get("workload") == payload
            except ReproError:
                round_trip = False
            service.restore_locations(failed)
            capabilities = service.capabilities
        finally:
            service.close()
        results.append(
            SchemeComparison(
                scheme_id=scheme_id,
                name=capabilities.name,
                analytic=capabilities.costs(),
                measured_storage_percent=measured_overhead,
                measured_single_failure_reads=max(probe_reads),
                failed_locations=failed_locations,
                repaired_blocks=report.repaired_count,
                repair_reads=report.blocks_read,
                repair_rounds=report.rounds,
                data_loss=report.data_loss,
                round_trip_ok=round_trip,
            )
        )
    return results
