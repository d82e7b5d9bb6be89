"""Single-block vs. batched ingest throughput (the write path of Fig. 10).

The paper argues AE encoding is lightweight because it is "essentially based
on exclusive-or operations"; this benchmark quantifies how much of the
remaining cost is Python per-block machinery by comparing

* the sequential encoder (``Entangler.entangle`` per 4 KiB block) against
  ``BatchEntangler.entangle_batch`` -- ``alpha`` XORs per block along a
  memoised scan plan, every parity written straight into the one
  ``(alpha, n, block_size)`` allocation of the batch -- across block sizes
  and AE(alpha, s, p) settings, and
* ``put`` against ``put_stream`` through a ``StorageService`` end to end
  (both ride the batched zero-copy pipeline).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_ingest.py -q -s

``test_batch_encode_speedup_at_4k`` is the acceptance gate: batched encoding
must be at least 3x faster than the per-block path at 4 KiB blocks while
producing bit-identical parities.  Its warm-up run leaves the heap mapped, so
the ratio is the kernel's without first-touch page faults; the end-to-end
``archive_ae`` ``put_mb_s`` (``benchmarks/e2e``) pays them.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from perf_record import record_entry
from repro.codes.entanglement import ae_scheme_id
from repro.core.encoder import BatchEntangler, Entangler
from repro.core.parameters import AEParameters
from repro.system.opening import open_service

SPECS = ["AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)"]
BLOCK_SIZES = [1024, 4096, 16384]
BATCH_BLOCKS = 1024


def data_matrix(blocks: int, block_size: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, size=(blocks, block_size), dtype=np.uint8)


def best_of(fn, repeat: int = 5) -> float:
    fn()  # warm-up: first calls pay page-fault cost for fresh batch matrices
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_sequential_encode(benchmark, spec, block_size):
    params = AEParameters.parse(spec)
    data = data_matrix(BATCH_BLOCKS, block_size)

    def encode():
        encoder = Entangler(params, block_size)
        for row in data:
            encoder.entangle(row)
        return encoder.blocks_encoded

    assert benchmark(encode) == BATCH_BLOCKS
    benchmark.extra_info["MB per run"] = BATCH_BLOCKS * block_size / 1e6


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_batched_encode(benchmark, spec, block_size):
    params = AEParameters.parse(spec)
    data = data_matrix(BATCH_BLOCKS, block_size)

    def encode():
        encoder = BatchEntangler(params, block_size)
        encoder.entangle_batch(data)
        return encoder.blocks_encoded

    assert benchmark(encode) == BATCH_BLOCKS
    benchmark.extra_info["MB per run"] = BATCH_BLOCKS * block_size / 1e6


def open_store(spec: str):
    return open_service(
        scheme=ae_scheme_id(AEParameters.parse(spec)), location_count=50, block_size=4096
    )


@pytest.mark.parametrize("spec", SPECS)
def test_store_path_put(benchmark, spec):
    payload = data_matrix(512, 4096).tobytes()

    def ingest():
        return open_store(spec).put("doc", payload).block_count

    assert benchmark(ingest) == 512


@pytest.mark.parametrize("spec", SPECS)
def test_store_path_put_stream(benchmark, spec):
    payload = data_matrix(512, 4096).tobytes()

    def ingest():
        return open_store(spec).put_stream("doc", [payload]).block_count

    assert benchmark(ingest) == 512


def test_batch_encode_speedup_at_4k(print_tables):
    """Acceptance gate: >= 3x encode throughput at 4 KiB, bit-identical output."""
    params = AEParameters.triple(2, 5)
    block_size = 4096
    data = data_matrix(2048, block_size)

    def run_sequential():
        encoder = Entangler(params, block_size)
        for row in data:
            encoder.entangle(row)

    t_sequential = best_of(run_sequential)
    t_batched = best_of(lambda: BatchEntangler(params, block_size).entangle_batch(data))
    speedup = t_sequential / t_batched

    # Bit-identical parities: same ids, same payloads, for the same input.
    sequential = Entangler(params, block_size)
    batched = BatchEntangler(params, block_size)
    expected = [sequential.entangle(row) for row in data[:256]]
    produced = batched.entangle_batch(data[:256]).encoded_blocks()
    for want, got in zip(expected, produced):
        assert want.data_id == got.data_id
        assert [p.block_id for p in want.parities] == [p.block_id for p in got.parities]
        for wp, gp in zip(want.parities, got.parities):
            assert np.array_equal(wp.payload, gp.payload)

    if print_tables:
        mb = data.nbytes / 1e6
        print(
            f"\nAE(3,2,5) @ 4 KiB: sequential {mb / t_sequential:7.1f} MB/s, "
            f"batched {mb / t_batched:7.1f} MB/s, speedup {speedup:.1f}x"
        )
    mb = data.nbytes / 1e6
    record_entry(
        "ingest",
        "ae-3-2-5/batch-encode-speedup@4096",
        scheme="ae-3-2-5",
        block_size=block_size,
        seed=0,
        metrics={
            "speedup": speedup,
            "batched_mb_s": mb / t_batched,
            "sequential_mb_s": mb / t_sequential,
        },
        gates=["speedup"],
    )
    assert speedup >= 3.0, f"batched encode only {speedup:.2f}x faster than per-block"
