"""Frozen on-disk trees: what an earlier version wrote still reopens.

Every other reopen test writes its tree with the code under test, so a
change to the block-id codec, a segment or index record, the manifest or
the WAL passes them as long as writer and reader change in step -- and
strands every existing deployment.  The trees under ``tests/data/trees/``
were written once (``tools/write_frozen_trees.py``, on ``5da2aaa``) and are
committed bytes: ``segment`` and ``disk`` x ``ae-3-2-5``, ``ae-3-2-5-p75``,
``rs-10-4`` and ``lrc-azure``, plus one ``segment`` / ``ae-3-2-5`` tree whose
last puts and delete live only in a WAL tail that was never checkpointed.
Two more were written on ``7a31db6``: a 2-shard ``ae-3-2-5`` federation and
an ``rs-4-2 -> ae-3-2-5`` re-encode cut after two documents, whose reopen
finishes the transition.

Each test reopens a copy, checks every document against its recorded
sha256 and scrubs it clean, fails one location, repairs and reads
byte-exact, then puts one more document and reopens again.  A tree changes only in a change that says
it changes a format, which keeps the old tree next to the new one.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pytest

from repro.system.opening import open_service
from repro.system.service import StorageConfig

TREES = os.path.join(os.path.dirname(__file__), "data", "trees")
with open(os.path.join(TREES, "trees.json"), encoding="utf-8") as _handle:
    INDEX = json.load(_handle)


def _open(record, path):
    settings = {
        key: value
        for key, value in record.items()
        if key not in ("documents", "transition_to")
    }
    return open_service(StorageConfig(data_dir=str(path), **settings))


def _members(service):
    """The plain services holding the documents: one, or one per shard."""
    members = {id(member): member for member in map(service.service_for, service.documents)}
    return list(members.values())


def _assert_documents(service, digests) -> None:
    assert sorted(service.documents) == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256(service.get(name)).hexdigest() == digest, name


def test_the_eleven_trees_are_indexed():
    assert len(INDEX) == 11
    assert sorted(INDEX) == sorted(
        entry for entry in os.listdir(TREES) if entry != "trees.json"
    )


@pytest.mark.parametrize("tree", sorted(INDEX))
def test_a_frozen_tree_reopens_repairs_and_takes_writes(tree, tmp_path):
    record = INDEX[tree]
    digests = dict(record["documents"])
    path = tmp_path / tree
    shutil.copytree(os.path.join(TREES, tree), path)

    target = record.get("transition_to")
    if target is not None:
        with open(path / "manifest.json", encoding="utf-8") as handle:
            assert json.load(handle)["transition"]["pending"]

    service = _open(record, path)
    # A cut transition is finished by the open itself; from then on the tree
    # is a service of the target scheme.
    settled = dict(record, scheme=target or record["scheme"])
    assert service.scheme.scheme_id == settled["scheme"]
    assert all(member.transition is None for member in _members(service))
    _assert_documents(service, digests)
    # Every check that can run holds: punctured parities and deleted data
    # leave theirs unchecked, never violated.
    scrub = service.scrub()
    assert (scrub.violated, scrub.suspects, scrub.checked > 0) == ([], [], True)

    # The location holding the most blocks goes down; repair rebuilds them.
    clusters = [member.cluster for member in _members(service)]
    assert len(clusters) == record.get("shards", 1)

    def held(loc):
        return sum(len(cluster.blocks_at(loc)) for cluster in clusters)

    down = max(range(clusters[0].location_count), key=held)
    lost = held(down)
    service.fail_locations([down])
    assert service.status().unavailable_blocks == lost > 0
    report = service.repair()
    assert report.data_loss == 0 and not report.unrecovered
    assert report.repaired_count == lost
    _assert_documents(service, digests)
    service.restore_locations([down])

    extra = bytes(range(256)) * 2 + b"frozen"
    service.put("doc-new", extra)
    digests["doc-new"] = hashlib.sha256(extra).hexdigest()
    service.close()

    reopened = _open(settled, path)
    _assert_documents(reopened, digests)
    assert reopened.status().unavailable_blocks == 0
    reopened.close()


def test_a_tampered_block_of_a_frozen_tree_is_rewritten(tmp_path):
    record = INDEX["segment-ae-3-2-5"]
    path = tmp_path / "tree"
    shutil.copytree(os.path.join(TREES, "segment-ae-3-2-5"), path)
    with _open(record, path) as service:
        target = service.documents["doc-3"].data_ids[1]
        store = service.cluster.location(service.cluster.location_of(target))
        changed = bytearray(store.try_get(target))
        changed[0] ^= 0xFF
        store.put(target, bytes(changed))
        report = service.scrub()
        assert report.suspects == report.repaired == [target]
        _assert_documents(service, record["documents"])
    with _open(record, path) as reopened:
        _assert_documents(reopened, record["documents"])
        assert reopened.scrub().clean
