"""Closed-loop load generator for the storage service front-ends.

Drives N in-process clients through a seeded mixed put/get/delete workload
against any :class:`~repro.system.protocol.DocumentService` (a plain
service, the concurrent front-end or a sharded federation), measuring
ops/sec and per-operation latency percentiles.

The loop is *closed*: each client issues one request, waits for the
response, optionally "thinks" (``think_seconds``), then issues the next --
the standard closed-loop client model.  With a think time, throughput
scales with the number of clients until the service saturates -- the
front-end scalability ``repro-experiments load`` reports; with
``think_seconds=0`` the loop measures raw service throughput instead (the
``service_small_docs`` workload of ``benchmarks/e2e`` times that case).

Workloads are replayable: every client derives its RNG from ``seed`` and
its client index, so two runs with the same parameters issue the same
requests in the same per-client order.  (This module intentionally lives
off the RPR001 engine path: wall-clock *measurement* is its job; the
*workload* stays seeded.)
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import ServiceOverloadedError, UnknownBlockError
from repro.system.protocol import DocumentService

#: Default operation mix: (put, get, delete) fractions; get takes the rest.
DEFAULT_MIX = (0.4, 0.5, 0.1)


@dataclass
class LoadReport:
    """Aggregate outcome of one closed-loop load run."""

    clients: int
    ops: int
    puts: int
    gets: int
    deletes: int
    misses: int
    overloads: int
    duration_seconds: float
    ops_per_sec: float
    p50_seconds: float
    p99_seconds: float
    mean_seconds: float
    #: Sorted per-op latencies (seconds); kept for callers that want other
    #: percentiles, dropped from ``summary()``.
    latencies: List[float] = field(default_factory=list, repr=False)

    def summary(self) -> str:
        return (
            f"{self.clients} clients: {self.ops} ops in "
            f"{self.duration_seconds:.2f}s = {self.ops_per_sec:.0f} ops/s; "
            f"p50 {self.p50_seconds * 1e3:.2f}ms, "
            f"p99 {self.p99_seconds * 1e3:.2f}ms; "
            f"{self.misses} misses, {self.overloads} overloads"
        )


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = round(fraction * (len(sorted_values) - 1))
    return sorted_values[min(len(sorted_values) - 1, max(0, index))]


class _ClientStats:
    __slots__ = ("ops", "puts", "gets", "deletes", "misses", "overloads", "latencies")

    def __init__(self) -> None:
        self.ops = 0
        self.puts = 0
        self.gets = 0
        self.deletes = 0
        self.misses = 0
        self.overloads = 0
        self.latencies: List[float] = []


def _client_loop(
    service: DocumentService,
    index: int,
    stats: _ClientStats,
    *,
    seed: int,
    documents: int,
    payload_bytes: int,
    mix: Tuple[float, float, float],
    think_seconds: float,
    ops_limit: Optional[int],
    deadline: Optional[float],
) -> None:
    rng = random.Random(seed * 7919 + index * 104729 + 1)
    put_fraction, _get_fraction, delete_fraction = mix
    while True:
        if ops_limit is not None and stats.ops >= ops_limit:
            return
        if deadline is not None and time.perf_counter() >= deadline:
            return
        name = f"doc-{rng.randrange(documents):04d}"
        roll = rng.random()
        started = time.perf_counter()
        try:
            if roll < put_fraction:
                service.put(name, rng.randbytes(payload_bytes))
                stats.puts += 1
            elif roll < put_fraction + delete_fraction:
                service.delete(name)
                stats.deletes += 1
            else:
                service.get(name)
                stats.gets += 1
        except UnknownBlockError:
            # Reading/deleting a name no client has put yet is part of the
            # workload, not a failure.
            stats.misses += 1
        except ServiceOverloadedError:
            # Backpressure: the request never started; retry after a pause.
            stats.overloads += 1
            time.sleep(max(think_seconds, 0.001))
            continue
        stats.latencies.append(time.perf_counter() - started)
        stats.ops += 1
        if think_seconds > 0.0:
            time.sleep(think_seconds)


def run_load(
    service: DocumentService,
    *,
    clients: int = 8,
    ops_per_client: Optional[int] = None,
    duration_seconds: Optional[float] = None,
    payload_bytes: int = 4096,
    documents: int = 64,
    think_seconds: float = 0.0,
    seed: int = 0,
    mix: Tuple[float, float, float] = DEFAULT_MIX,
    prepopulate: bool = True,
) -> LoadReport:
    """Run a closed-loop mixed workload and return the aggregate report.

    Exactly one of ``ops_per_client`` (deterministic, used by the CI gates)
    or ``duration_seconds`` (wall-clock bounded, used by the CLI) must be
    given.  ``mix`` is the (put, get, delete) fraction triple; ``documents``
    bounds the shared name pool (clients overlap on names, exercising the
    striped locks).  With ``prepopulate`` every name is put once before the
    measured window, so gets mostly hit.
    """
    if clients < 1:
        raise ValueError("clients must be at least 1")
    if (ops_per_client is None) == (duration_seconds is None):
        raise ValueError("pass exactly one of ops_per_client or duration_seconds")
    if not 0.999 <= sum(mix) <= 1.001 or any(f < 0 for f in mix):
        raise ValueError("mix fractions must be non-negative and sum to 1")
    if prepopulate:
        rng = random.Random(seed * 7919)
        for number in range(documents):
            service.put(f"doc-{number:04d}", rng.randbytes(payload_bytes))
    stats = [_ClientStats() for _ in range(clients)]
    deadline: Optional[float] = None
    started = time.perf_counter()
    if duration_seconds is not None:
        deadline = started + duration_seconds
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(service, index, stats[index]),
            kwargs={
                "seed": seed,
                "documents": documents,
                "payload_bytes": payload_bytes,
                "mix": mix,
                "think_seconds": think_seconds,
                "ops_limit": ops_per_client,
                "deadline": deadline,
            },
            name=f"repro-load-{index}",
        )
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    latencies = sorted(
        latency for client in stats for latency in client.latencies
    )
    ops = sum(client.ops for client in stats)
    return LoadReport(
        clients=clients,
        ops=ops,
        puts=sum(client.puts for client in stats),
        gets=sum(client.gets for client in stats),
        deletes=sum(client.deletes for client in stats),
        misses=sum(client.misses for client in stats),
        overloads=sum(client.overloads for client in stats),
        duration_seconds=elapsed,
        ops_per_sec=(ops / elapsed) if elapsed > 0 else 0.0,
        p50_seconds=_percentile(latencies, 0.50),
        p99_seconds=_percentile(latencies, 0.99),
        mean_seconds=(sum(latencies) / len(latencies)) if latencies else 0.0,
        latencies=latencies,
    )
