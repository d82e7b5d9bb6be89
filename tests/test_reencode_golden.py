"""Golden re-encode output: what a live scheme chain leaves stored.

A live re-encode moves every document out of its source scheme and lands it
under the target.  How the mover groups that work -- one document or many
per read, write, WAL commit and reclaim -- must not change what it stores:
every document is still one ``scheme.encode`` of its own bytes, so block
ids, stripe boundaries and lattice positions come out as a fresh ``put``
would lay them.  These digests pin that, per chain, backend and
``batch_blocks``.

A case opens a service on the chain's first scheme, puts a seeded corpus of
20 documents of 0-3 000 B at 32-byte blocks (so the longest document, 94
blocks, streams in several chunks at ``batch_blocks`` 60) and walks the
chain.  After every hop the digest takes the hop's four report counters
(documents migrated, blocks written, blocks deleted, data blocks
rewritten), ``scheme.state()``, each document's ``data_ids`` and length, and
each live block's key, payload and location, all in sorted order; every
document must read byte-exact.  ``segment`` cases reopen the service after
the chain and read everything again.

``batch_blocks`` 256 (the default, above every document) and 60 (a multiple
of every ``k`` in the chains) were recorded on the parent of the batched
mover (``a46a6b5``) and hold unmodified.  At 1 and 7 a longer document
streams in chunks that are no whole number of stripes: the parent padded a
short stripe at every chunk boundary.  The four digests of ``rep-ae-rs`` and
``rs-rs-lrc`` there were re-pinned on purpose when the chunks were cut at
whole stripes, and are now the default's: every ``batch_blocks`` stores
the same.
``PYTHONPATH=src:. python tests/test_reencode_golden.py`` prints the table
(record on the parent of a mover change, never to make a failing test pass).
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from typing import Dict, Optional, Tuple

import pytest

from repro.storage.backends import encode_block_id
from repro.system.service import StorageConfig, StorageService

BLOCK_SIZE = 32

CHAINS: Dict[str, Tuple[str, ...]] = {
    "rep-ae-rs": ("rep-3", "ae-2-2-5", "ae-3-2-5", "rs-10-4"),
    "rs-ae": ("rs-10-4", "ae-3-2-5"),
    "rs-rs-lrc": ("rs-6-3", "rs-4-2", "lrc-azure"),
}
#: ``(backend, batch_blocks)``: the streaming cases run on ``memory`` only.
SETTINGS = (("memory", 256), ("memory", 60), ("memory", 7), ("memory", 1),
            ("segment", 256), ("segment", 60))


def corpus() -> Dict[str, bytes]:
    rng = random.Random(38)
    sizes = [0, 1, 31, 32, 33, 3000] + [rng.randrange(0, 3001) for _ in range(14)]
    return {f"doc-{index:02d}": rng.randbytes(size) for index, size in enumerate(sizes)}


def state_digest(digest: "hashlib._Hash", service: StorageService) -> None:
    digest.update(json.dumps(service.scheme.state(), sort_keys=True).encode())
    for name, document in sorted(service.documents.items()):
        ids = [encode_block_id(block_id) for block_id in document.data_ids]
        digest.update(json.dumps([name, ids, document.length]).encode())
    cluster = service.cluster
    for key, block_id in sorted((encode_block_id(b), b) for b in cluster.block_ids()):
        digest.update(f"{key}@{cluster.location_of(block_id)}:".encode())
        digest.update(bytes(cluster.try_get_many([block_id])[0]))


def chain_digest(chain: str, backend: str, batch_blocks: int, root: Optional[str]) -> str:
    schemes = CHAINS[chain]
    config = StorageConfig(
        scheme=schemes[0], block_size=BLOCK_SIZE, topology=16, seed=5,
        batch_blocks=batch_blocks, backend=backend, data_dir=root,
    )
    payloads = corpus()
    service = StorageService.open(config)
    for name, payload in payloads.items():
        service.put(name, payload)
    digest = hashlib.sha256()
    for target in schemes[1:]:
        report = service.transition_to(target)
        counters = (
            report.documents_migrated, report.blocks_written,
            report.blocks_deleted, report.data_blocks_rewritten,
        )
        digest.update(repr((target, counters)).encode())
        state_digest(digest, service)
        for name, payload in payloads.items():
            assert service.get(name) == payload, (target, name)
    if root is not None:
        service.close()
        service = StorageService.open(config, scheme=schemes[-1])
        assert service.transition is None
        for name, payload in payloads.items():
            assert service.get(name) == payload, name
    service.close()
    return digest.hexdigest()


REENCODE_GOLDEN: Dict[Tuple[str, str, int], str] = {
    ('rep-ae-rs', 'memory', 256): '9db72e12f24d6745f9c18832c360e979c680bce31961274627a72b294db1eab6',
    ('rep-ae-rs', 'memory', 60): '9db72e12f24d6745f9c18832c360e979c680bce31961274627a72b294db1eab6',
    ('rep-ae-rs', 'memory', 7): '9db72e12f24d6745f9c18832c360e979c680bce31961274627a72b294db1eab6',
    ('rep-ae-rs', 'memory', 1): '9db72e12f24d6745f9c18832c360e979c680bce31961274627a72b294db1eab6',
    ('rep-ae-rs', 'segment', 256): '9db72e12f24d6745f9c18832c360e979c680bce31961274627a72b294db1eab6',
    ('rep-ae-rs', 'segment', 60): '9db72e12f24d6745f9c18832c360e979c680bce31961274627a72b294db1eab6',
    ('rs-ae', 'memory', 256): '279eb5af5ac826e9633539612283c99f02e9f8e732fb0c3a877164a2c65a9efa',
    ('rs-ae', 'memory', 60): '279eb5af5ac826e9633539612283c99f02e9f8e732fb0c3a877164a2c65a9efa',
    ('rs-ae', 'memory', 7): '279eb5af5ac826e9633539612283c99f02e9f8e732fb0c3a877164a2c65a9efa',
    ('rs-ae', 'memory', 1): '279eb5af5ac826e9633539612283c99f02e9f8e732fb0c3a877164a2c65a9efa',
    ('rs-ae', 'segment', 256): '279eb5af5ac826e9633539612283c99f02e9f8e732fb0c3a877164a2c65a9efa',
    ('rs-ae', 'segment', 60): '279eb5af5ac826e9633539612283c99f02e9f8e732fb0c3a877164a2c65a9efa',
    ('rs-rs-lrc', 'memory', 256): 'fb8b122830c867cf9b0bd4b75b345d74d9beab7f945dc7c5031e132806fbf82f',
    ('rs-rs-lrc', 'memory', 60): 'fb8b122830c867cf9b0bd4b75b345d74d9beab7f945dc7c5031e132806fbf82f',
    ('rs-rs-lrc', 'memory', 7): 'fb8b122830c867cf9b0bd4b75b345d74d9beab7f945dc7c5031e132806fbf82f',
    ('rs-rs-lrc', 'memory', 1): 'fb8b122830c867cf9b0bd4b75b345d74d9beab7f945dc7c5031e132806fbf82f',
    ('rs-rs-lrc', 'segment', 256): 'fb8b122830c867cf9b0bd4b75b345d74d9beab7f945dc7c5031e132806fbf82f',
    ('rs-rs-lrc', 'segment', 60): 'fb8b122830c867cf9b0bd4b75b345d74d9beab7f945dc7c5031e132806fbf82f',
}


@pytest.mark.parametrize("chain,backend,batch_blocks", sorted(REENCODE_GOLDEN))
def test_a_chain_stores_the_recorded_blocks(chain, backend, batch_blocks, tmp_path):
    root = str(tmp_path / "live") if backend == "segment" else None
    assert chain_digest(chain, backend, batch_blocks, root) == REENCODE_GOLDEN[
        (chain, backend, batch_blocks)
    ]


if __name__ == "__main__":  # pragma: no cover - recording aid
    print("REENCODE_GOLDEN: Dict[Tuple[str, str, int], str] = {")
    for chain in CHAINS:
        for backend, batch_blocks in SETTINGS:
            with tempfile.TemporaryDirectory() as workdir:
                root = f"{workdir}/live" if backend == "segment" else None
                key = (chain, backend, batch_blocks)
                print(f"    {key!r}: {chain_digest(*key, root)!r},")
    print("}")
