"""The segment log checked against a dict model (Hypothesis state machine).

Rules: put, overwrite, ``put_many``, ``delete_many``, ``compact``, close +
reopen, a kill (the directory copied without a close, then reopened), a
torn tail (a kill whose in-flight append -- a block record, or the index
record a close was writing -- is cut short), rot in a closed log (one live
block's payload byte flips: the block is an erasure) and a tombstone
appended to a sealed segment after the close (an edit the index does not
describe).  Invariants, after every step:

* every acknowledged block reads byte-exact, and nothing else is stored;
* ``dead_bytes`` equals the dead bytes a replay of the files on disk finds;
* after a call that may auto-compact, dead bytes are at most
  ``max(compact_ratio x log, segment_bytes)``;
* a close + reopen adopts the index the close wrote, and every reopen
  ends in what a scan of the same files finds (index, live and dead bytes).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import zlib
from typing import Dict, Tuple

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import StorageConfig, open_service
from repro.core.blocks import DataId
from repro.storage.backends import (
    _NONCE_RECORD_BYTES,
    _RECORD_HEADER,
    _RECORD_MAGIC,
    SegmentLogBackend,
    encode_block_id,
)
from tests.conftest import segment_dead_bytes, segment_records

SEGMENT_BYTES = 400
COMPACT_RATIO = 0.5

block_ids = st.integers(min_value=1, max_value=10).map(DataId)
payloads = st.binary(min_size=1, max_size=160)


class ScanningSegmentLog(SegmentLogBackend):
    """The segment log with index adoption switched off: every open scans."""

    def _adopt_index(self, segments):
        return False


class SegmentLogMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.workdir = tempfile.mkdtemp(prefix="segment-log-model-")
        self.generation = 0
        self.root = self.fresh_root()
        self.backend = self.open(self.root)
        self.model = {}

    def fresh_root(self) -> str:
        self.generation += 1
        return os.path.join(self.workdir, f"root-{self.generation}")

    @staticmethod
    def open(root: str) -> SegmentLogBackend:
        return SegmentLogBackend(root, segment_bytes=SEGMENT_BYTES, compact_ratio=COMPACT_RATIO)

    def final_segment(self, root: str) -> str:
        directory = os.path.join(root, "segments")
        return os.path.join(directory, max(os.listdir(directory)))

    def check_compaction_bound(self) -> None:
        backend = self.backend
        assert backend.dead_bytes <= max(COMPACT_RATIO * backend._total_bytes, SEGMENT_BYTES)

    def kill(self) -> str:
        """Copy the directory as a crash would leave it (the live backend is
        abandoned, never closed)."""
        image = self.fresh_root()
        shutil.copytree(self.root, image)
        return image

    def adopt(self, root: str) -> None:
        """Reopen ``root``, and check the result against a scan of a copy of
        the same files: an adopted index must be exactly what a scan finds."""
        image = self.fresh_root()
        shutil.copytree(root, image)
        self.root = root
        self.backend = self.open(root)
        scanned = ScanningSegmentLog(image, segment_bytes=SEGMENT_BYTES, compact_ratio=COMPACT_RATIO)
        assert self.backend._index == scanned._index
        assert self.backend._live_bytes == scanned._live_bytes
        assert self.backend.dead_bytes == scanned.dead_bytes
        scanned.close()

    def closed_live_record(self, pick: int, sealed: bool = False) -> Tuple[DataId, int, str]:
        """Close the log; return a live block (one whose record lies in a
        sealed segment, if asked), its record's payload offset and file."""
        backend = self.backend
        held = sorted(
            block_id
            for block_id, (segment, _, _, _) in backend._index.items()
            if not sealed or segment != backend._active
        )
        block_id = held[pick % len(held)]
        segment, offset, _, _ = backend._index[block_id]
        path = backend._segment_path(segment)
        backend.close()
        return block_id, offset, path

    # -- mutations --------------------------------------------------------
    @rule(block_id=block_ids, data=payloads)
    def put(self, block_id, data):
        self.backend.put(block_id, np.frombuffer(data, dtype=np.uint8))
        self.model[block_id] = data
        self.check_compaction_bound()

    @rule(items=st.lists(st.tuples(block_ids, payloads), max_size=6))
    def put_many(self, items):
        stored = self.backend.put_many(
            (block_id, np.frombuffer(data, dtype=np.uint8)) for block_id, data in items
        )
        assert stored == len(items)
        self.model.update(items)
        self.check_compaction_bound()

    @rule(doomed=st.lists(block_ids, max_size=6))
    def delete_many(self, doomed):
        removed = self.backend.delete_many(doomed)
        assert removed == len(set(doomed) & set(self.model))
        for block_id in doomed:
            self.model.pop(block_id, None)
        if removed:  # a call that deletes nothing writes nothing, and never compacts
            self.check_compaction_bound()

    @rule()
    def compact(self):
        self.backend.compact()
        # What is left dead is the nonce record each new segment opens with.
        assert self.backend.dead_bytes == _NONCE_RECORD_BYTES * self.backend.segment_count

    # -- restarts and crashes ----------------------------------------------
    @rule()
    def close_and_reopen(self):
        self.backend.close()
        self.adopt(self.root)
        assert self.backend._tail_is_index  # adopted, not scanned

    @rule()
    def kill_and_reopen(self):
        self.adopt(self.kill())

    @rule(block_id=block_ids, data=payloads, cut=st.floats(min_value=0.0, max_value=0.999))
    def torn_block_record(self, block_id, data, cut):
        """A crash mid-append: a put that never returned left a prefix."""
        image = self.kill()
        key = encode_block_id(block_id).encode("ascii")
        body = key + data
        record = _RECORD_HEADER.pack(_RECORD_MAGIC, len(key), len(data), zlib.crc32(body)) + body
        with open(self.final_segment(image), "ab") as handle:
            handle.write(record[: int(cut * len(record))])
        self.adopt(image)

    @rule(cut=st.floats(min_value=0.0, max_value=0.999))
    def torn_index_record(self, cut):
        """A crash while close was appending the index record."""
        self.backend.close()
        path = self.final_segment(self.root)
        offset, key, _, record_len = segment_records(path)[-1]
        assert key == ""  # every close leaves an index
        image = self.fresh_root()
        shutil.copytree(self.root, image)
        with open(self.final_segment(image), "r+b") as handle:
            handle.truncate(offset + int(cut * record_len))
        self.adopt(image)

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(min_value=0, max_value=9))
    def rot_in_a_live_record(self, pick):
        """One payload byte of a live block flips in the closed log: the
        index no longer checks out, and the scan erases the block."""
        block_id, offset, path = self.closed_live_record(pick)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            value = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([value ^ 0xFF]))
        del self.model[block_id]
        self.adopt(self.root)

    @precondition(
        lambda self: any(entry[0] != self.backend._active for entry in self.backend._index.values())
    )
    @rule(pick=st.integers(min_value=0, max_value=9))
    def tombstone_in_a_sealed_segment(self, pick):
        """A tombstone lands at the end of a sealed segment after the close:
        the segment no longer has the size the index lists, so the reopen
        must scan and see the delete."""
        block_id, _, path = self.closed_live_record(pick, sealed=True)
        key = encode_block_id(block_id).encode("ascii")
        with open(path, "ab") as handle:
            handle.write(_RECORD_HEADER.pack(_RECORD_MAGIC, len(key), -1, zlib.crc32(key)) + key)
        del self.model[block_id]
        self.adopt(self.root)

    # -- invariants ---------------------------------------------------------
    @invariant()
    def acknowledged_blocks_read_byte_exact(self):
        assert dict(self.backend.scan()) == {
            block_id: len(data) for block_id, data in self.model.items()
        }
        for block_id, data in self.model.items():
            assert self.backend.get(block_id).tobytes() == data

    @invariant()
    def dead_bytes_match_the_files(self):
        self.backend.flush()
        assert self.backend.dead_bytes == segment_dead_bytes(self.root)

    def teardown(self):
        self.backend.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


SegmentLogMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestSegmentLogModel = SegmentLogMachine.TestCase


# ----------------------------------------------------------------------
# A durable federation's reopened indexes, pinned
# ----------------------------------------------------------------------
def reopened_indexes(data_dir: str) -> Dict[str, str]:
    """``shard-NN/loc-NNNN`` -> sha256 of the index a reopen of a 2-shard
    ``ae-3-2-5`` root rebuilds there: every block's key, segment, payload
    offset and payload length.  The root holds sealed segments, overwritten
    documents and the tombstones a restore writes for stale copies."""
    config = StorageConfig(
        scheme="ae-3-2-5",
        block_size=4096,
        backend="segment",
        data_dir=data_dir,
        topology=8,
        seed=28,
        shards=2,
    )
    service = open_service(config)
    rng = np.random.default_rng(28)
    for number in range(40):
        size = 256 * 1024 if number % 2 == 0 else int(rng.integers(1, 9000))
        service.put(f"doc-{number}", rng.integers(0, 256, size=size, dtype=np.uint8).tobytes())
    service.put("doc-1", b"overwritten")
    service.delete("doc-2")
    service.fail_locations([3])
    service.repair()
    service.restore_locations()
    service.close()
    service = open_service(config)
    digests = {}
    try:
        for shard_id in service.shard_ids:
            for store in service.shard(shard_id).service.cluster.locations():
                entries = sorted(
                    (encode_block_id(block_id), segment, offset, length)
                    for block_id, (segment, offset, length, _) in store.backend._index.items()
                )
                digests[f"shard-{shard_id:02d}/loc-{store.location_id:04d}"] = hashlib.sha256(
                    repr(entries).encode("ascii")
                ).hexdigest()
    finally:
        service.close()
    return digests


#: Recorded on the commit before every close wrote an index record, whose
#: reopen scanned these logs; adopting the index must rebuild the same entries.
REOPENED_INDEX_GOLDEN: Dict[str, str] = {
    'shard-00/loc-0000': '2b483998b05957a7786c368fd2903d0104ea87843c6645a81c96f5a1ad602ac2',
    'shard-00/loc-0001': 'a4cf408113aa49f826a0242311473d79d70b49da052dbe6089f2233bd2bd6412',
    'shard-00/loc-0002': '70c9b381be74ffc13aa984b61b2a6080819287e9727cf2280f3d9f38d4dc936d',
    'shard-00/loc-0003': '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    'shard-00/loc-0004': '6c6a3152df8e993998e240289203331a90a874354fde99c3b3614fd2cab6e91b',
    'shard-00/loc-0005': '4e176bbdf80ba47b6f5ab380be49559d73a4e30de1966898892a846c8e9378b7',
    'shard-00/loc-0006': '455677131fe2b5263768d2851d30b93030bbd9097ecaad5867cb32321a1c3540',
    'shard-00/loc-0007': '52df018348beb26ac7b4e3aeeadb8218215b135b32f16d06e8b9df42b7b19570',
    'shard-01/loc-0000': '1fa1da358f3212a97357cc77c8a28a32c29bdd8c6f4b1b59425aff3b13a2064c',
    'shard-01/loc-0001': '2cf85fc3961c16b4b4589fb88dbe24f4876783d05ddcdebffa92afa7552cce80',
    'shard-01/loc-0002': 'c09e53caaccef954ffe935d166c03746ab8a558b746ca700bebc53dfc6eb8927',
    'shard-01/loc-0003': '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    'shard-01/loc-0004': 'ad2a22864afdb445d7b8d1196caf99fb115ec804a218a52f885de9ce14d0f22d',
    'shard-01/loc-0005': 'c93639f090ed775117c7cc917a9c80fe947567e1c6f81862b110ddb06389b2ee',
    'shard-01/loc-0006': 'b9d8e8112da259c8d523f9b017501fd317ec28d95dae7bd4e61fc26d230ebe7c',
    'shard-01/loc-0007': '49a5c6c851ea85d518a186f24415beaa67fbd7c4622917295e421c83462667b2',
}


def test_a_reopened_federation_rebuilds_the_recorded_indexes(tmp_path) -> None:
    assert reopened_indexes(str(tmp_path)) == REOPENED_INDEX_GOLDEN


if __name__ == "__main__":  # pragma: no cover - recording helper
    with tempfile.TemporaryDirectory() as root:
        for location, digest in reopened_indexes(root).items():
            print(f"    {location!r}: {digest!r},")
