"""Write the frozen on-disk trees under ``tests/data/trees/``.

Each tree is the data directory of a small durable ``StorageService``: 64 B
blocks over ``sites=4,racks=2,nodes=2``, six documents of at most 700 B and
one delete.  ``trees.json`` beside them records, per tree, the settings it
was written with and the sha256 of every document it holds.
``tests/test_frozen_trees.py`` reopens copies of the committed bytes, so a
format change that moves both the writer and the reader in step still fails
it.  The committed trees are the check: rewrite them only in a change that
says it changes a format, and keep the old tree next to the new one.

Usage (from the repository root)::

    PYTHONPATH=src python tools/write_frozen_trees.py [--out tests/data/trees]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import sys
from typing import Dict

from repro.system.service import StorageConfig, StorageService

BLOCK_SIZE = 64
TOPOLOGY = "sites=4,racks=2,nodes=2"
SEED = 1
SCHEMES = ("ae-3-2-5", "ae-3-2-5-p75", "rs-10-4", "lrc-azure")
BACKENDS = ("segment", "disk")
SIZES = (700, 641, 512, 130, 64, 1)
DELETED = "doc-2"
#: The tree copied while its service was still open: the WAL holds the last
#: three puts and the delete, the manifest only what came before.
WAL_TAIL = ("segment", "ae-3-2-5")


def documents() -> Dict[str, bytes]:
    rng = random.Random(SEED)
    return {f"doc-{number}": rng.randbytes(size) for number, size in enumerate(SIZES)}


def settings(scheme: str, backend: str) -> Dict[str, object]:
    return dict(
        scheme=scheme, block_size=BLOCK_SIZE, topology=TOPOLOGY, seed=SEED, backend=backend
    )


def write_tree(path: str, scheme: str, backend: str, wal_tail: bool) -> Dict[str, str]:
    """Write one tree at ``path``; returns the sha256 of each live document."""
    service = StorageService.open(StorageConfig(data_dir=path, **settings(scheme, backend)))
    payloads = documents()
    for number, (name, payload) in enumerate(payloads.items()):
        if wal_tail and number == 3:
            service.flush()  # the manifest takes the first three puts
        service.put(name, payload)
    service.delete(DELETED)
    del payloads[DELETED]
    if wal_tail:
        image = path + ".image"
        shutil.copytree(path, image)  # a crash image: never closed
        service.close()
        shutil.rmtree(path)
        os.rename(image, path)
    else:
        service.close()
    return {name: hashlib.sha256(payload).hexdigest() for name, payload in payloads.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join("tests", "data", "trees"))
    args = parser.parse_args(argv)
    if os.path.exists(args.out):
        shutil.rmtree(args.out)
    os.makedirs(args.out)
    index = {}
    cases = [(backend, scheme, False) for backend in BACKENDS for scheme in SCHEMES]
    cases.append((*WAL_TAIL, True))
    for backend, scheme, wal_tail in cases:
        name = f"{backend}-{scheme}" + ("-wal-tail" if wal_tail else "")
        digests = write_tree(os.path.join(args.out, name), scheme, backend, wal_tail)
        index[name] = dict(settings(scheme, backend), documents=digests)
    with open(os.path.join(args.out, "trees.json"), "w", encoding="utf-8") as handle:
        json.dump(index, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
