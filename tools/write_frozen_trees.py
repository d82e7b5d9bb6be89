"""Write the frozen on-disk trees under ``tests/data/trees/``.

Each tree is the data directory of a small durable ``StorageService``: 64 B
blocks over ``sites=4,racks=2,nodes=2``, six documents of at most 700 B and
one delete.  Two trees go beyond one settled service: a 2-shard federation
(``federation.json`` and one service tree per shard) and a service whose
``rs-4-2 -> ae-3-2-5`` re-encode was cut after two documents, so its
manifest still holds the plan.  ``trees.json`` beside them records, per
tree, the settings it was written with (plus ``transition_to`` for the cut
tree) and the sha256 of every document it holds.
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
from contextlib import nullcontext
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.system.opening import open_service
from repro.system.service import StorageConfig

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
FEDERATION = ("segment", "ae-3-2-5", 2)
#: (backend, source, target, documents re-encoded before the cut)
CUT = ("segment", "rs-4-2", "ae-3-2-5", 2)


class CutTransition(Exception):
    """Raised by :func:`cut_after` to stop a transition between batches."""


def cut_after(count: int):
    """A transition doc guard that lets ``count`` documents move, then raises
    at the next batch (cut at ``count`` exactly when a batch is one document)."""
    moved: List[str] = []

    def guard(names: Sequence[str]):
        if len(moved) >= count:
            raise CutTransition(names)
        moved.extend(names)
        return nullcontext()

    return guard


def documents() -> Dict[str, bytes]:
    rng = random.Random(SEED)
    return {f"doc-{number}": rng.randbytes(size) for number, size in enumerate(SIZES)}


def settings(scheme: str, backend: str, shards: Optional[int] = None) -> Dict[str, object]:
    fields: Dict[str, object] = dict(
        scheme=scheme, block_size=BLOCK_SIZE, topology=TOPOLOGY, seed=SEED, backend=backend
    )
    if shards is not None:
        fields["shards"] = shards
    return fields


def write_tree(
    path: str,
    scheme: str,
    backend: str,
    wal_tail: bool = False,
    shards: Optional[int] = None,
    cut: Optional[Tuple[str, int]] = None,
) -> Dict[str, str]:
    """Write one tree at ``path``; returns the sha256 of each live document.

    ``cut`` is ``(target, count)``: after the writes, start the transition to
    ``target`` and cut it once ``count`` documents have moved.  That service
    moves one block per batch, so every re-encode batch is one document (a
    put is one encode whatever ``batch_blocks`` says).
    """
    config = StorageConfig(data_dir=path, **settings(scheme, backend, shards))
    if cut is not None:
        config = replace(config, batch_blocks=1)
    service = open_service(config)
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
        if cut is not None:
            target, count = cut
            try:
                service.transition_to(target, doc_guard=cut_after(count))
            except CutTransition:
                pass
            if service.transition is None:
                raise RuntimeError(f"the transition to {target} finished before the cut")
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
    backend, scheme, shards = FEDERATION
    name = f"{backend}-{scheme}-federation"
    digests = write_tree(os.path.join(args.out, name), scheme, backend, shards=shards)
    index[name] = dict(settings(scheme, backend, shards), documents=digests)
    backend, source, target, count = CUT
    name = f"{backend}-{source}-to-{target}-cut"
    digests = write_tree(os.path.join(args.out, name), source, backend, cut=(target, count))
    index[name] = dict(settings(source, backend), transition_to=target, documents=digests)
    with open(os.path.join(args.out, "trees.json"), "w", encoding="utf-8") as handle:
        json.dump(index, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
