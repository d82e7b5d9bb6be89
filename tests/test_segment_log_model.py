"""The segment log checked against a dict model (Hypothesis state machine).

Rules: put, overwrite, ``put_many``, ``delete_many``, ``compact``, close +
reopen, a kill (the directory copied without a close, then reopened) and a
torn tail (a kill whose in-flight append -- a block record, or the index
record a close was writing -- is cut short).  Invariants, after every step:

* every acknowledged block reads byte-exact, and nothing else is stored;
* ``dead_bytes`` equals the dead bytes a replay of the files on disk finds;
* after a call that may auto-compact, dead bytes are at most
  ``max(compact_ratio x log, segment_bytes)``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import zlib

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.blocks import DataId
from repro.storage.backends import (
    _NONCE_RECORD_BYTES,
    _RECORD_HEADER,
    _RECORD_MAGIC,
    SegmentLogBackend,
    encode_block_id,
)
from tests.conftest import segment_dead_bytes, segment_records

SEGMENT_BYTES = 1200
COMPACT_RATIO = 0.5

block_ids = st.integers(min_value=1, max_value=10).map(DataId)
payloads = st.binary(min_size=1, max_size=160)


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
        self.root = root
        self.backend = self.open(root)

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

    @precondition(lambda self: self.backend._mostly_dead())
    @rule(cut=st.floats(min_value=0.0, max_value=0.999))
    def torn_index_record(self, cut):
        """A crash while close was appending the index record."""
        self.backend.close()
        path = self.final_segment(self.root)
        offset, key, _, record_len = segment_records(path)[-1]
        assert key == ""  # a mostly dead log is closed with an index
        image = self.fresh_root()
        shutil.copytree(self.root, image)
        with open(self.final_segment(image), "r+b") as handle:
            handle.truncate(offset + int(cut * record_len))
        self.adopt(image)

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
