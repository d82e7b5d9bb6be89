"""The four workloads and the lifecycle one repetition drives them through.

Every workload runs the same lifecycle against a fresh service -- preload,
mixed closed loop, healthy reads, site disaster, degraded reads, repair,
scheme transition, restart -- so every end-to-end metric is a real
measurement on every workload.  What differs is the configuration, and with
it the layer that dominates (see ``WORKLOADS[...].why`` and the README).
"""

from __future__ import annotations

import gc
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import ReproError, ServiceOverloadedError
from repro.system.service import StorageConfig, StorageService
from repro.system.sharding import ShardedStorageService

from e2ebench.payloads import Corpus, Op, build_corpus

__all__ = ["WORKLOADS", "Workload", "Repetition", "run_repetition", "open_service"]

#: What a failed operation raises.  It is counted as a result (``failed``)
#: and the lifecycle goes on; anything else is a bug and ends the run.
FAILURES = (ReproError, OSError)
#: Pool threads per shard of the sharded workload.
WORKERS = 2
#: Phases whose wall time feeds an end-to-end metric, in lifecycle order.
TIMED_PHASES = ("put", "mixed", "get", "degraded_get", "repair", "transition", "reopen")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a service configuration plus corpus sizes."""

    name: str
    why: str
    scheme: str
    block_size: int
    backend: str
    topology: str
    docs: int
    doc_bytes: int
    #: Mixed closed loop: client threads and operations per client.
    clients: int
    ops_per_client: int
    get_passes: int
    degraded_passes: int
    #: Scheme ids to ``transition_to`` in order; straight after the preload
    #: when ``hops_first`` (the chain is the workload), else after the repair.
    hops: Tuple[str, ...]
    hops_first: bool = False
    shards: Optional[int] = None
    cache_blocks: Optional[int] = None
    #: Documents of the ``--smoke`` variant (seconds, not a measurement).
    smoke_docs: int = 8

    @property
    def durable(self) -> bool:
        return self.backend != "memory"

    @property
    def reopen_passes(self) -> int:
        """Restarts per timed ``reopen`` phase: a memory service holds nothing
        durable and restarts in 0.2 ms (building the topology, placement and
        scheme), so it is restarted many times."""
        return 1 if self.durable else 32

    def smoke(self) -> "Workload":
        return replace(
            self,
            docs=self.smoke_docs,
            ops_per_client=10,
            get_passes=1,
            degraded_passes=1,
        )

    def corpus(self, seed: int) -> Corpus:
        return build_corpus(
            seed, self.docs, self.doc_bytes, self.clients, self.ops_per_client
        )

    def config(self, data_dir: Optional[str], seed: int, scheme: Optional[str] = None) -> StorageConfig:
        """The service config; ``scheme`` overrides the starting scheme on a reopen."""
        return StorageConfig(
            scheme=scheme or self.scheme,
            block_size=self.block_size,
            backend=self.backend,
            data_dir=data_dir if self.durable else None,
            topology=self.topology,
            placement="spread-domains",
            seed=seed,
            cache_blocks=self.cache_blocks,
            shards=self.shards,
            fsync=False,
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="archive_ae",
            why="The paper's archive: 256 KiB documents under AE(3,2,5) on memory; "
            "time sits in the XOR kernel, entangler, batch repair and cluster placement.",
            scheme="ae-3-2-5",
            block_size=4096,
            backend="memory",
            topology="sites=7,racks=2,nodes=2",
            docs=48,
            doc_bytes=256 * 1024,
            clients=1,
            ops_per_client=60,
            get_passes=4,
            degraded_passes=2,
            hops=("ae-3-2-5-p80",),
            smoke_docs=6,
        ),
        Workload(
            name="archive_rs",
            why="Same lifecycle and topology under RS(10,4): only the codec differs, so a "
            "codec change moves one archive workload and a cluster change moves both.",
            scheme="rs-10-4",
            block_size=4096,
            backend="memory",
            topology="sites=7,racks=2,nodes=2",
            docs=12,
            doc_bytes=256 * 1024,
            clients=1,
            ops_per_client=48,
            get_passes=8,
            degraded_passes=1,
            hops=("ae-3-2-5",),
            smoke_docs=4,
        ),
        Workload(
            name="service_small_docs",
            why="Hundreds of 2 KiB documents through 2 shards, thread-pool front-end, segment "
            "log and WAL with 2 clients: routing, locks, catalogue and JSON dominate; cache fits.",
            scheme="ae-3-2-5",
            block_size=512,
            backend="segment",
            topology="sites=4,racks=2,nodes=2",
            docs=160,
            doc_bytes=2048,
            clients=2,
            ops_per_client=250,
            get_passes=2,
            degraded_passes=1,
            hops=("ae-3-2-5-p80",),
            shards=2,
            smoke_docs=24,
        ),
        Workload(
            name="transition_chain",
            why="rep-3 to ae-2-2-5 to ae-3-2-5 to rs-10-4 on a durable service: the only path through "
            "the re-encode and alpha-raise movers; 8 cached blocks per location against 13 read, "
            "so its gets pay backend reads.",
            scheme="rep-3",
            block_size=1024,
            backend="segment",
            topology="sites=6,racks=2,nodes=2",
            docs=32,
            doc_bytes=16 * 1024,
            clients=1,
            ops_per_client=120,
            get_passes=4,
            degraded_passes=1,
            hops=("ae-2-2-5", "ae-3-2-5", "rs-10-4"),
            hops_first=True,
            cache_blocks=8,
            smoke_docs=6,
        ),
    )
}


@dataclass
class Repetition:
    """Everything one lifecycle measured (raw seconds, counts, exact ratios)."""

    #: Wall seconds per timed phase (hops sum into ``transition``).
    phases: Dict[str, float] = field(default_factory=dict)
    #: ``(kind, seconds)`` of every transition hop, in order (``alpha_raise`` ...).
    hops: List[Tuple[str, float]] = field(default_factory=list)
    #: Latency of every mixed-loop operation, and the summed client loop time.
    latencies: List[float] = field(default_factory=list)
    client_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    overloads: int = 0
    first_error: Optional[str] = None
    #: Counts and sizes read off the service (see :func:`run_repetition`).
    values: Dict[str, float] = field(default_factory=dict)
    #: Name of the phase in progress; the tracer tags spans with it.
    phase: str = "untimed"

    def fail(self, error: object) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = f"{self.phase}: {error!r}"

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        gc.collect()
        self.phase = name
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.phases[name] = self.phases.get(name, 0.0) + elapsed
            self.phase = "untimed"

    def put(self, service: Any, name: str, data: bytes) -> None:
        self.attempted += 1
        try:
            service.put(name, data)
        except FAILURES as exc:
            self.fail(exc)

    def get(self, service: Any, name: str, expected: bytes) -> None:
        self.attempted += 1
        try:
            matches = service.get(name) == expected
        except FAILURES as exc:
            self.fail(exc)
            return
        if not matches:
            self.fail(f"get({name!r}) returned other bytes than were put")

    def get_all(self, service: Any, documents: Dict[str, bytes], passes: int = 1) -> None:
        for _ in range(passes):
            for name, expected in documents.items():
                self.get(service, name, expected)


def open_service(workload: Workload, config: StorageConfig) -> Any:
    if workload.shards:
        return ShardedStorageService.open(config, workers=WORKERS)
    return StorageService.open(config)


def _shards(workload: Workload, service: Any) -> List[Tuple[Optional[int], StorageService]]:
    """``(shard id, plain service)`` pairs; a plain service is its own only shard."""
    if workload.shards:
        return [
            (shard_id, service.shard(shard_id).service)
            for shard_id in service.shard_ids
        ]
    return [(None, service)]


def _cache_lookups(workload: Workload, service: Any) -> Tuple[int, int]:
    """``(hits, misses)`` of the block caches so far, over all shards."""
    statuses = [plain.status() for _, plain in _shards(workload, service)]
    return (
        sum(status.cache_hits for status in statuses),
        sum(status.cache_misses for status in statuses),
    )


def _fail_site(workload: Workload, service: Any) -> None:
    for shard_id, plain in _shards(workload, service):
        locations = plain.topology.locations_for_target("site:0")
        if shard_id is None:
            plain.fail_locations(locations)
        else:
            service.fail_locations(locations, shard=shard_id)


def _client(service: Any, schedule: List[Op]) -> Repetition:
    """Run one client's closed loop: next request only after the previous reply."""
    mine = Repetition(phase="mixed", attempted=len(schedule))
    clock = time.perf_counter
    loop_start = clock()
    for kind, name, payload in schedule:
        start = clock()
        try:
            if kind == "get":
                ok = service.get(name) == payload
            elif kind == "put":
                service.put(name, payload)
                ok = True
            else:
                service.delete(name)
                ok = True
        except FAILURES as exc:
            mine.fail(f"{kind}({name!r}): {exc!r}")
            mine.overloads += isinstance(exc, ServiceOverloadedError)
        else:
            if not ok:
                mine.fail(f"{kind}({name!r}) returned other bytes than were put")
        mine.latencies.append(clock() - start)
    mine.client_seconds = clock() - loop_start
    return mine


def _mixed_loop(rep: Repetition, service: Any, schedules: List[List[Op]]) -> None:
    results: List[Optional[Repetition]] = [None] * len(schedules)

    def run(index: int) -> None:
        results[index] = _client(service, schedules[index])

    if len(schedules) == 1:
        run(0)
    else:
        threads = [
            threading.Thread(target=run, args=(index,), name=f"e2e-client-{index}")
            for index in range(len(schedules))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    for schedule, mine in zip(schedules, results):
        if mine is None:  # the client thread itself died
            mine = Repetition(phase="mixed", attempted=len(schedule), failed=len(schedule))
            mine.first_error = "mixed: client thread died"
        rep.attempted += mine.attempted
        rep.failed += mine.failed
        rep.overloads += mine.overloads
        rep.latencies.extend(mine.latencies)
        rep.client_seconds += mine.client_seconds
        rep.first_error = rep.first_error or mine.first_error


def _transitions(rep: Repetition, workload: Workload, service: Any, documents: Dict[str, bytes]) -> str:
    """Run the workload's hops, verifying every document after each."""
    scheme = workload.scheme
    for target in workload.hops:
        rep.attempted += 1
        before = rep.phases.get("transition", 0.0)
        try:
            with rep.timed("transition"):
                reports = service.transition_to(target)
        except FAILURES as exc:
            rep.fail(exc)
            return scheme
        # A federation reports per shard; every shard makes the same kind of hop.
        report = next(iter(reports.values())) if isinstance(reports, dict) else reports
        rep.hops.append((report.kind.replace("-", "_"), rep.phases["transition"] - before))
        scheme = target
        rep.get_all(service, documents)
    return scheme


def _tree_bytes(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def run_repetition(
    workload: Workload,
    corpus: Corpus,
    data_dir: str,
    seed: int,
    rep: Optional[Repetition] = None,
) -> Repetition:
    """One self-contained lifecycle on a fresh service; every read is checked.

    ``seed`` is the placement seed handed to the program.  Besides the phase
    times, ``rep.values`` receives: ``stored_bytes`` (``status().bytes_stored``
    at the end of the healthy part, before the disaster strands copies on the
    failed site), ``blocks_after_preload``, ``repaired_blocks``,
    ``repair_reads``, ``cache_hits``/``cache_misses`` (whole repetition),
    ``get_cache_hits``/``get_cache_misses`` (healthy get phase) and -- durable
    workloads -- ``disk_bytes`` (files left under ``data_dir`` after the
    final close: backend files, manifests, WAL).
    """
    rep = rep if rep is not None else Repetition()
    config = workload.config(data_dir, seed)
    rep.phase = "open"
    service = open_service(workload, config)
    rep.phase = "untimed"
    scheme = workload.scheme
    try:
        with rep.timed("put"):
            for name, data in corpus.docs.items():
                rep.put(service, name, data)
        rep.values["blocks_after_preload"] = service.status().blocks
        if workload.hops_first:
            scheme = _transitions(rep, workload, service, corpus.docs)
        with rep.timed("mixed"):
            _mixed_loop(rep, service, corpus.schedules)
        live = corpus.live
        hits_before, misses_before = _cache_lookups(workload, service)
        with rep.timed("get"):
            rep.get_all(service, live, workload.get_passes)
        hits, misses = _cache_lookups(workload, service)
        rep.values["get_cache_hits"] = hits - hits_before
        rep.values["get_cache_misses"] = misses - misses_before
        rep.values["stored_bytes"] = service.status().bytes_stored

        _fail_site(workload, service)
        with rep.timed("degraded_get"):
            rep.get_all(service, live, workload.degraded_passes)
        rep.attempted += 1
        try:
            with rep.timed("repair"):
                report = service.repair()
        except FAILURES as exc:
            rep.fail(exc)
        else:
            unrecovered = getattr(report, "unrecovered_count", None)
            if unrecovered is None:
                unrecovered = len(report.unrecovered)
            if report.data_loss or unrecovered or getattr(report, "errors", None):
                rep.fail(f"repair left data behind: {report.summary()}")
            rep.values["repaired_blocks"] = report.repaired_count
            rep.values["repair_reads"] = report.blocks_read
        rep.get_all(service, live)
        service.restore_locations()
        if not workload.hops_first:
            scheme = _transitions(rep, workload, service, live)

        rep.values["cache_hits"], rep.values["cache_misses"] = _cache_lookups(workload, service)
        rep.attempted += 1
        try:
            # A closed service stays referenced until the phase is over:
            # freeing the object graph of a 64 MiB memory store takes 4-5 ms,
            # is not part of close() + open(), and would drown the restart.
            retired = []
            with rep.timed("reopen"):
                for _ in range(workload.reopen_passes):
                    service.close()
                    retired.append(service)
                    service = open_service(workload, workload.config(data_dir, seed, scheme))
            del retired
        except FAILURES as exc:
            rep.fail(exc)
        else:
            # A memory service restarts empty: nothing durable to verify.
            rep.get_all(service, live if workload.durable else {})
    finally:
        rep.phase = "close"
        service.close()
        rep.phase = "untimed"
    if workload.durable:
        rep.values["disk_bytes"] = _tree_bytes(data_dir)
    return rep
