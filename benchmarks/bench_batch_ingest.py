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

Micro-benchmarks only: bit-identity of the two encoders is pinned by
``tests/test_batch_encoder.py`` and ``tests/test_ae_put_golden.py``, and the
timing ruler for the write path is ``put_mb_s`` on the ``archive_ae`` workload
of ``benchmarks/e2e``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoder import BatchEntangler, Entangler
from repro.core.parameters import AEParameters
from repro.system.opening import open_service

SPECS = ["AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)"]
BLOCK_SIZES = [1024, 4096, 16384]
BATCH_BLOCKS = 1024


def data_matrix(blocks: int, block_size: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, size=(blocks, block_size), dtype=np.uint8)


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
        scheme=AEParameters.parse(spec).scheme_id, topology=50, block_size=4096
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
