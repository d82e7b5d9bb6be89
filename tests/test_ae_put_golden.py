"""Golden AE put output: block order, parity bytes, strand heads, placements.

The literals below were recorded on the commit *before* the batch entangler
became a planned one-pass scan and the put fan-out lost its per-block detours
(PR 19's parent, ``e719325``) and pin the contract that change had to keep:
``EntanglementScheme.encode`` hands down exactly the same ``(block id,
payload)`` pairs in exactly the same order (that order decides the insertion
order of every location), the strand-head registry holds the same heads in
the same order after every call, and a service put lands every block on the
same location.  ``tests/test_batch_encoder.py`` proves the batch encoder
agrees with the sequential one block for block; a change to the hand-down
order, to the registry's insertion order or to a dict both share would keep
that agreement and break these hashes.

Each scheme-level digest covers, for every start offset of one lattice
period (``s * max(p, 1)`` positions), a fresh scheme advanced to that offset
with single ``entangle`` calls and then driven through batches of 257 (many
periods), 0, 1 and 64 blocks, a ``restore_state`` from the blocks written so
far, one more ``entangle`` and an unaligned 13-block batch -- so every batch
size starts at every offset -- hashing the ordered output of every call and
the registry (``strand_head_ids()`` and the head payloads) after it, at block
sizes 1, 7 and 4096.  ``ae-3-2-5-p80`` drops punctured parities after
computing them (the three ``ae-4-2-5`` digests recorded here retired with the
setting in PR 23: its fourth parity reused the id of the second).  The
service-level digests are one ``ae-3-2-5`` lifecycle on the ``memory``
backend and on the ``segment`` log.  Ids enter the hashes through ``repr``
only.  ``PYTHONPATH=src:. python tests/test_ae_put_golden.py`` prints the
tables (use it to record on the parent of a write-path change, never to make
a failing test pass).
"""

from __future__ import annotations

import hashlib
import tempfile
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
import pytest

import repro.schemes as schemes
from repro.codes.entanglement import EntanglementScheme
from repro.system.service import StorageConfig, StorageService

from tests.conftest import DictSource

SCHEMES = ("ae-3-2-5", "ae-2-2-5", "ae-1-1-0", "ae-3-2-5-p80")
SIZES = (1, 7, 4096)
BACKENDS = ("memory", "segment")
SEED = 20183
#: Batch sizes driven from every start offset: many periods, none, one, a put.
BATCHES = (257, 0, 1, 64)


def _digest(parts: Iterable[object]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        blob = part.encode("utf-8") if isinstance(part, str) else bytes(part)
        sha.update(len(blob).to_bytes(8, "little"))
        sha.update(blob)
    return sha.hexdigest()


def _heads(scheme: EntanglementScheme) -> List[object]:
    """The strand-head registry in its own order: ids, then payload bytes."""
    entangler = scheme.entangler
    parts: List[object] = [repr(entangler.strand_head_ids())]
    for strand in entangler._heads.snapshot():
        parts.append(entangler._heads.head_payload(strand))
    return parts


def encode_digest(scheme_id: str, size: int) -> str:
    """Every batch size from every start offset of one lattice period."""
    params = schemes.get(scheme_id, block_size=size).params
    period = params.s * max(params.p, 1)
    rng = np.random.default_rng([SEED, size])
    parts: List[object] = [f"{scheme_id}@{size}"]
    for offset in range(period):
        scheme = schemes.get(scheme_id, block_size=size)
        store: Dict[object, np.ndarray] = {}

        def single() -> None:
            encoded = scheme.entangler.entangle(rng.integers(0, 256, size=size, dtype=np.uint8))
            for block in encoded.all_blocks():
                store[block.block_id] = block.payload
                parts.append(repr(block.block_id))
                parts.append(block.payload)
            parts.extend(_heads(scheme))

        def batch(data: object) -> None:
            part = scheme.encode(data)
            parts.append(repr(part.data_ids))
            for block_id, payload in part.blocks:
                store[block_id] = payload
                parts.append(repr(block_id))
                parts.append(payload)
            parts.extend(_heads(scheme))

        for _ in range(offset):
            single()
        assert scheme.entangler.blocks_encoded == offset
        for count in BATCHES:
            batch(rng.integers(0, 256, size=count * size, dtype=np.uint8).tobytes())
        # Broker crash recovery: the heads are refetched (regenerated where
        # punctured) from what the calls above stored.
        scheme.restore_state(scheme.state(), DictSource(store))
        parts.extend(_heads(scheme))
        single()
        # An unaligned buffer the caller may write to: the last row is padded.
        batch(bytearray(rng.integers(0, 256, size=13 * size - size // 2, dtype=np.uint8).tobytes()))
        batch(rng.integers(0, 256, size=(5, size), dtype=np.uint8))
        assert scheme.entangler.blocks_encoded == offset + sum(BATCHES) + 1 + 13 + 5
    return _digest(parts)


def service_digest(backend: str, data_dir: Optional[str]) -> str:
    """put x5 -> overwrite -> ``put_stream`` on ``ae-3-2-5``: where every
    block went, in which order each location received it, and all reads."""
    service = StorageService.open(
        StorageConfig(
            scheme="ae-3-2-5",
            block_size=4096,
            topology="sites=7,racks=2,nodes=2",
            placement="spread-domains",
            seed=1,
            backend=backend,
            data_dir=data_dir,
        )
    )
    try:
        rng = np.random.default_rng([SEED, 5])
        documents = {
            name: rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
            for name, length in (
                ("empty", 0),
                ("byte", 1),
                ("unaligned", 100_001),
                ("archive-0", 256 * 1024),
                ("archive-1", 256 * 1024),
            )
        }
        for name, data in documents.items():
            service.put(name, data)
        parts: List[object] = [backend]
        for name, data in documents.items():
            assert service.get(name) == data
        documents["archive-0"] = rng.integers(0, 256, size=70_000, dtype=np.uint8).tobytes()
        service.put("archive-0", documents["archive-0"])
        streamed = rng.integers(0, 256, size=300_000, dtype=np.uint8).tobytes()
        documents["streamed"] = streamed
        cuts = (0, 1, 4097, 4097, 150_000, 299_999, 300_000)
        service.put_stream(
            "streamed", (streamed[lo:hi] for lo, hi in zip(cuts, cuts[1:]))
        )
        cluster = service.cluster
        parts.append(
            repr([(block_id, cluster.location_of(block_id)) for block_id in cluster.block_ids()])
        )
        for store in cluster.locations():
            parts.append(repr((store.location_id, list(store.block_ids()), store.write_count)))
        status = service.status()
        parts.append(repr((status.blocks, status.bytes_stored, status.documents)))
        for name, data in documents.items():
            recovered = service.get(name)
            assert recovered == data
            parts.append(repr(service.documents[name].data_ids))
            parts.append(recovered)
        return _digest(parts)
    finally:
        service.close()


ENCODE_GOLDEN: Dict[Tuple[str, int], str] = {
    ('ae-3-2-5', 1): '249562f2ae2249ecab94d54c447a947fb9ab1e1976703627b9aa07269554e043',
    ('ae-3-2-5', 7): '437840b3e65c45b594798db00ed7a953e17ead8898e3241dd524d2901082cdcb',
    ('ae-3-2-5', 4096): '6be0565be3633836c3ccd05f2bc90727600736dc17564a30392ebbca9069f608',
    ('ae-2-2-5', 1): '2f20eb0342a615c648a2ce78461d70427ef5d246dd90817fb7c76c5182ffe089',
    ('ae-2-2-5', 7): '57cc72f5dcf4058de5a1920ad6dcbf387140ca08c130eac0faff341194812018',
    ('ae-2-2-5', 4096): 'bd3d4941c33d1cc1e60ad552b2ffdbc78445b684727b81342fb7e4c69ffad96e',
    ('ae-1-1-0', 1): '3756a34a74d8a90959482deb3fb9df1b0373638442794e9d48699efd2654d4f0',
    ('ae-1-1-0', 7): 'efe4fafc3a4d1e271960cb16208ac9e3829daba32c684c704089844a72a2641d',
    ('ae-1-1-0', 4096): 'ba4d55c4426669c90d801bbcc089751cdcd52c81657ad9acbf06902c9b0718b1',
    ('ae-3-2-5-p80', 1): '04b51295aa91efdc5f6e66525546f6876202b1a51ac0633ee60736fb121211e1',
    ('ae-3-2-5-p80', 7): 'da25ee39ac05f814b878928599acff51e8a8fff0283e9ce9078d29a21b368ce8',
    ('ae-3-2-5-p80', 4096): '4fe2c54b85aaaa30557e5990c96c263b6421bf87a9fc89c8bb675184ae2263d8',
}

SERVICE_GOLDEN: Dict[str, str] = {
    'memory': '7dc72baae218b284b0b525fb5d3bf6a66edf6d16d7a2838554dc8375b348d5cd',
    'segment': 'f0075a1ae33c56c10d4b9da4264c623768fc6bbabde78c0383022dfe81dd9ad7',
}


@pytest.mark.parametrize("scheme_id", SCHEMES)
@pytest.mark.parametrize("size", SIZES)
def test_scheme_encode_is_unchanged(scheme_id: str, size: int) -> None:
    assert encode_digest(scheme_id, size) == ENCODE_GOLDEN[(scheme_id, size)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_service_put_lifecycle_is_unchanged(backend: str, tmp_path) -> None:
    data_dir = None if backend == "memory" else str(tmp_path / "service")
    assert service_digest(backend, data_dir) == SERVICE_GOLDEN[backend]


if __name__ == "__main__":  # pragma: no cover - recording helper
    print("ENCODE_GOLDEN: Dict[Tuple[str, int], str] = {")
    for scheme_id in SCHEMES:
        for size in SIZES:
            print(f"    {(scheme_id, size)!r}: {encode_digest(scheme_id, size)!r},")
    print("}\n\nSERVICE_GOLDEN: Dict[str, str] = {")
    for backend in BACKENDS:
        with tempfile.TemporaryDirectory() as scratch:
            digest = service_digest(backend, None if backend == "memory" else scratch)
        print(f"    {backend!r}: {digest!r},")
    print("}")
