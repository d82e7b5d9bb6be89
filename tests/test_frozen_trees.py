"""Frozen on-disk trees: what an earlier version wrote still reopens.

Every other reopen test writes its tree with the code under test, so a
change to the block-id codec, a segment or index record, the manifest or
the WAL passes them as long as writer and reader change in step -- and
strands every existing deployment.  The trees under ``tests/data/trees/``
were written once (``tools/write_frozen_trees.py``, on ``5da2aaa``) and are
committed bytes: ``segment`` and ``disk`` x ``ae-3-2-5``, ``ae-3-2-5-p75``,
``rs-10-4`` and ``lrc-azure``, plus one ``segment`` / ``ae-3-2-5`` tree whose
last puts and delete live only in a WAL tail that was never checkpointed.

Each test reopens a copy, checks every document against its recorded
sha256, fails one location, repairs and reads byte-exact, then puts one
more document and reopens again.  A tree changes only in a change that says
it changes a format, which keeps the old tree next to the new one.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pytest

from repro.system.service import StorageConfig, StorageService

TREES = os.path.join(os.path.dirname(__file__), "data", "trees")
with open(os.path.join(TREES, "trees.json"), encoding="utf-8") as _handle:
    INDEX = json.load(_handle)


def _open(record, path) -> StorageService:
    settings = {key: value for key, value in record.items() if key != "documents"}
    return StorageService.open(StorageConfig(data_dir=str(path), **settings))


def _assert_documents(service, digests) -> None:
    assert sorted(service.documents) == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256(service.get(name)).hexdigest() == digest, name


def test_the_nine_trees_are_indexed():
    assert len(INDEX) == 9
    assert sorted(INDEX) == sorted(
        entry for entry in os.listdir(TREES) if entry != "trees.json"
    )


@pytest.mark.parametrize("tree", sorted(INDEX))
def test_a_frozen_tree_reopens_repairs_and_takes_writes(tree, tmp_path):
    record = INDEX[tree]
    digests = dict(record["documents"])
    path = tmp_path / tree
    shutil.copytree(os.path.join(TREES, tree), path)

    service = _open(record, path)
    assert service.scheme.scheme_id == record["scheme"]
    _assert_documents(service, digests)

    # The location holding the most blocks goes down; repair rebuilds them.
    cluster = service.cluster
    down = max(range(cluster.location_count), key=lambda loc: len(cluster.blocks_at(loc)))
    lost = len(cluster.blocks_at(down))
    service.fail_locations([down])
    assert service.status().unavailable_blocks == lost > 0
    report = service.repair()
    assert report.data_loss == 0 and not report.unrecovered
    assert len(report.repaired) == lost
    _assert_documents(service, digests)
    service.restore_locations([down])

    extra = bytes(range(256)) * 2 + b"frozen"
    service.put("doc-new", extra)
    digests["doc-new"] = hashlib.sha256(extra).hexdigest()
    service.close()

    reopened = _open(record, path)
    _assert_documents(reopened, digests)
    assert reopened.status().unavailable_blocks == 0
    reopened.close()
