"""Concurrent service front-end acceptance benchmark.

One gate, recorded into ``BENCH_service.json`` (docs/benchmarks.md):
``test_frontend_scales_with_clients`` -- the closed-loop multi-client
workload (think time 1 ms) against the thread-pool front-end must push at
least 3x the ops/sec of a single closed-loop client on the same service
(memory backend: the scaling comes from overlapping think time and request
handling, the front-end's job).

``REPRO_BENCH_SMOKE=1`` shrinks the workloads and relaxes the in-test floors
for CI smoke runs; the regression gate proper is the BENCH snapshot compare
(``perf_record.py``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_load.py -q -s \
        --benchmark-disable
"""

from __future__ import annotations

import os

from perf_record import record_entry

from repro.system.frontend import ConcurrentStorageService
from repro.system.loadgen import run_load
from repro.system.service import StorageConfig

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

SCHEME = "ae-3-2-5"
SEED = 7
BLOCK_SIZE = 512
CLIENTS = 8
THINK_SECONDS = 0.001

#: Closed-loop scaling run (memory backend).
LOAD_OPS_PER_CLIENT = 30 if _SMOKE else 80
LOAD_PAYLOAD = 2048
LOAD_DOCUMENTS = 32


def _run_clients(clients: int):
    frontend = ConcurrentStorageService.open(
        StorageConfig(
            scheme=SCHEME, location_count=16, block_size=BLOCK_SIZE, seed=SEED
        ),
        workers=CLIENTS,
    )
    try:
        return run_load(
            frontend,
            clients=clients,
            ops_per_client=LOAD_OPS_PER_CLIENT,
            payload_bytes=LOAD_PAYLOAD,
            documents=LOAD_DOCUMENTS,
            think_seconds=THINK_SECONDS,
            seed=SEED,
        )
    finally:
        frontend.close()


def test_frontend_scales_with_clients(print_tables):
    """Acceptance gate: >= 3x ops/sec at 8 closed-loop clients vs 1."""
    single = _run_clients(1)
    many = _run_clients(CLIENTS)
    speedup = many.ops_per_sec / single.ops_per_sec
    if print_tables:
        print()
        print(f"closed loop, think {THINK_SECONDS * 1e3:.0f} ms [{SCHEME}, memory]:")
        print(f"  1 client : {single.summary()}")
        print(f"  {CLIENTS} clients: {many.summary()}")
        print(f"  scaling  : {speedup:.1f}x")
    record_entry(
        "service",
        f"{SCHEME}/frontend-scaling@{CLIENTS}clients",
        scheme=SCHEME,
        block_size=BLOCK_SIZE,
        seed=SEED,
        metrics={
            "ops_per_sec": many.ops_per_sec,
            "ops_per_sec_single_client": single.ops_per_sec,
            "speedup": speedup,
            "p50_seconds": many.p50_seconds,
            "p99_seconds": many.p99_seconds,
        },
        gates=["speedup", "p99_seconds"],
    )
    floor = 2.0 if _SMOKE else 3.0
    assert speedup >= floor, (
        f"{CLIENTS} closed-loop clients only {speedup:.2f}x one client "
        f"(floor {floor}x); the front-end is not overlapping requests"
    )
    assert many.overloads == 0, "the default queue depth must absorb 8 clients"
