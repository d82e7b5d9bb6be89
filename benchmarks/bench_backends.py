"""Put/get throughput of the pluggable storage backends.

The durable backends trade IO for restartability; this benchmark quantifies
the trade and guards the promise that the write-through LRU read cache keeps
*hot* reads on persistent backends close to memory speed:

* ``test_put_throughput`` / ``test_get_throughput`` time
  :meth:`BlockStore.put_many` / :meth:`BlockStore.try_get_many` over the memory,
  disk and segment-log backends;
* ``test_cached_disk_reads_within_2x_of_memory`` is the acceptance gate:
  once the LRU cache is warm, ``try_get_many`` on the disk backends must stay
  within 2x of the pure in-memory store.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_backends.py -q -s --benchmark-disable
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.blocks import DataId
from repro.storage import backends
from repro.storage.block_store import BlockStore

BACKENDS = ["memory", "disk", "segment"]
BLOCKS = 512
BLOCK_SIZE = 4096


def payload_rows(blocks: int = BLOCKS, block_size: int = BLOCK_SIZE) -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.integers(0, 256, size=(blocks, block_size), dtype=np.uint8)


def make_store(spec: str, root, cache_blocks=None) -> BlockStore:
    backend = backends.get(spec, root=str(root / spec) if spec != "memory" else None)
    return BlockStore(0, backend=backend, cache_blocks=cache_blocks)


def best_of(fn, repeat: int = 5) -> float:
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("spec", BACKENDS)
def test_put_throughput(benchmark, spec, tmp_path):
    rows = payload_rows()
    counter = iter(range(1_000_000))

    def ingest():
        store = make_store(spec, tmp_path / f"put-{next(counter)}")
        store.put_many((DataId(i + 1), rows[i]) for i in range(BLOCKS))
        store.close()
        return store.block_count

    assert benchmark(ingest) == BLOCKS
    benchmark.extra_info["MB per run"] = rows.nbytes / 1e6


@pytest.mark.parametrize("spec", BACKENDS)
def test_get_throughput(benchmark, spec, tmp_path):
    rows = payload_rows()
    store = make_store(spec, tmp_path)
    ids = [DataId(i + 1) for i in range(BLOCKS)]
    store.put_many(zip(ids, rows))

    def read():
        return len(store.try_get_many(ids))

    assert benchmark(read) == BLOCKS
    benchmark.extra_info["MB per run"] = rows.nbytes / 1e6
    store.close()


def test_cached_disk_reads_within_2x_of_memory(print_tables, tmp_path):
    """Acceptance gate: a warm LRU cache hides the persistent-backend IO."""
    rows = payload_rows()
    ids = [DataId(i + 1) for i in range(BLOCKS)]
    timings = {}
    for spec in BACKENDS:
        # Cache every block so the steady state measures the cache path, not
        # the medium (the production default is 1024 blocks per location).
        store = make_store(spec, tmp_path, cache_blocks=BLOCKS)
        store.put_many(zip(ids, rows))
        store.try_get_many(ids)  # populate the cache
        timings[spec] = best_of(lambda s=store: s.try_get_many(ids))
        if spec != "memory":
            assert store.cache_hits > 0, "warm reads must be served by the cache"
        store.close()

    mb = rows.nbytes / 1e6
    if print_tables:
        print()
        for spec, elapsed in timings.items():
            print(f"try_get_many[{spec:7s}] warm: {mb / elapsed:8.1f} MB/s")
    for spec in ("disk", "segment"):
        ratio = timings[spec] / timings["memory"]
        assert ratio <= 2.0, (
            f"cached {spec} reads are {ratio:.2f}x memory (budget: 2x); "
            "the LRU read cache is not doing its job"
        )
