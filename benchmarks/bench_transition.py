"""Live scheme-transition acceptance benchmarks.

Two in-test floors (docs/benchmarks.md); the timings are printed, not
recorded -- the timing ruler for transitions is ``transition_mb_s`` on the
e2e ``transition_chain`` workload (``benchmarks/e2e``):

* ``test_transition_chain_throughput`` -- the canonical chain
  ``rep-3 -> ae-3-2-5 -> rs-10-4`` against a disk-backed durable service:
  every hop runs end to end (plan checkpointed, documents re-encoded
  copy-commit-before-delete, plan settled), every document must read back
  byte-exact after every hop and every hop must re-encode every document
  exactly once.
* ``test_reads_stay_live_during_transition`` -- the zero-downtime claim:
  reader threads hammer ``get`` while the concurrent front-end migrates the
  namespace underneath them.  Every read must succeed and match
  byte-for-byte.

``REPRO_BENCH_SMOKE=1`` shrinks the workloads for quick local runs.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_transition.py -q -s \
        --benchmark-disable
"""

from __future__ import annotations

import os
import random
import threading
import time

from repro.exceptions import ReproError
from repro.system.frontend import ConcurrentStorageService
from repro.system.service import StorageConfig, StorageService

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

SOURCE = "rep-3"
CHAIN = ("ae-3-2-5", "rs-10-4")
SEED = 7
BLOCK_SIZE = 1024

CHAIN_DOCS = 4 if _SMOKE else 16
CHAIN_PAYLOAD = 4096 if _SMOKE else 16384

LIVE_DOCS = 4 if _SMOKE else 12
LIVE_PAYLOAD = 4096 if _SMOKE else 8192
LIVE_READERS = 3


def _make_docs(count: int, size: int) -> dict:
    rng = random.Random(SEED)
    return {f"doc-{index:03d}": rng.randbytes(size) for index in range(count)}


def _percentile(samples: list, fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[int(fraction * (len(ordered) - 1))]


def test_transition_chain_throughput(tmp_path, print_tables):
    """Byte-exact after every hop of the durable rep-3 -> ae -> rs chain."""
    payloads = _make_docs(CHAIN_DOCS, CHAIN_PAYLOAD)
    service = StorageService.open(
        StorageConfig(
            scheme=SOURCE,
            topology=24,
            block_size=BLOCK_SIZE,
            seed=SEED,
            backend="disk",
            data_dir=str(tmp_path / "chain"),
        )
    )
    try:
        for name, payload in payloads.items():
            service.put(name, payload)
        migrated = 0
        elapsed = 0.0
        for target in CHAIN:
            started = time.perf_counter()
            report = service.transition_to(target)
            elapsed += time.perf_counter() - started
            assert report is not None, f"-> {target} was unexpectedly a no-op"
            migrated += report.documents_migrated
            for name, payload in payloads.items():
                assert service.get(name) == payload, (
                    f"{name} corrupted after -> {target}"
                )
    finally:
        service.close()
    docs_per_sec = migrated / elapsed
    mb_per_sec = migrated * CHAIN_PAYLOAD / elapsed / 1e6
    if print_tables:
        print()
        print(f"{SOURCE} -> {' -> '.join(CHAIN)}, {CHAIN_DOCS} documents "
              f"x {CHAIN_PAYLOAD} B [disk]:")
        print(f"  migrated : {migrated} documents in {elapsed:.3f} s")
        print(f"  rate     : {docs_per_sec:.1f} docs/s ({mb_per_sec:.1f} MB/s)")
    assert migrated == len(CHAIN) * CHAIN_DOCS, (
        "every hop must re-encode every document exactly once"
    )


def test_reads_stay_live_during_transition(print_tables):
    """Zero downtime, measured: reads stay byte-exact while migrating."""
    payloads = _make_docs(LIVE_DOCS, LIVE_PAYLOAD)
    frontend = ConcurrentStorageService.open(
        StorageConfig(
            scheme=SOURCE, topology=24, block_size=BLOCK_SIZE, seed=SEED
        ),
        workers=LIVE_READERS + 1,
    )
    latencies: list = []
    errors: list = []
    stop = threading.Event()
    lock = threading.Lock()

    def reader(worker_seed: int) -> None:
        rng = random.Random(worker_seed)
        names = list(payloads)
        while not stop.is_set():
            name = rng.choice(names)
            started = time.perf_counter()
            try:
                observed = frontend.get(name)
            except (ReproError, ValueError, KeyError, OSError) as exc:
                with lock:
                    errors.append(f"{name}: {exc!r}")
                return
            took = time.perf_counter() - started
            with lock:
                latencies.append(took)
                if observed != payloads[name]:
                    errors.append(f"{name}: stale or corrupt payload")

    try:
        for name, payload in payloads.items():
            frontend.put(name, payload)
        threads = [
            threading.Thread(target=reader, args=(SEED + offset,))
            for offset in range(LIVE_READERS)
        ]
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        for target in CHAIN:
            assert frontend.transition_to(target) is not None
        elapsed = time.perf_counter() - started
        stop.set()
        for thread in threads:
            thread.join()
        for name, payload in payloads.items():
            assert frontend.get(name) == payload
    finally:
        stop.set()
        frontend.close()
    assert not errors, f"reads failed during the live migration: {errors[:3]}"
    assert latencies, "the readers never got a read in edgewise"
    p50 = _percentile(latencies, 0.50)
    p99 = _percentile(latencies, 0.99)
    if print_tables:
        print()
        print(f"{LIVE_READERS} readers during {SOURCE} -> "
              f"{' -> '.join(CHAIN)} [memory, {elapsed:.3f} s]:")
        print(f"  reads    : {len(latencies)} ok, {len(errors)} failed")
        print(f"  latency  : p50 {p50 * 1e3:.2f} ms, p99 {p99 * 1e3:.2f} ms")
