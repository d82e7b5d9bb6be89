"""A refused write leaves the segment log as it was.

The active writer's raw file is swapped for one whose ``write`` raises
``OSError(ENOSPC)`` (``tests/conftest.py::refusing_writer``).  A refused
batch must leave the in-RAM index, the location above it and the files on
disk in step: nothing of the batch is indexed, nothing of it reaches the
medium later, and a reopen finds what the process saw.
"""

from __future__ import annotations

import io
import os

import numpy as np
import pytest

from repro.core.blocks import DataId
from repro.storage import backends
from repro.storage.backends import SegmentLogBackend
from repro.storage.block_store import BlockStore
from repro.system import open_service
from repro.system.service import StorageConfig
from tests.conftest import RefusingFile, refusing_writer, segment_dead_bytes

D1, D2, D3, D4 = (DataId(index) for index in range(1, 5))


def one_byte(value: int) -> np.ndarray:
    return np.array([value], dtype=np.uint8)


def segment_store(root) -> BlockStore:
    return BlockStore(0, backend=SegmentLogBackend(str(root)))


def read_back(store: BlockStore, block_ids) -> list:
    return [
        None if payload is None else payload.tolist()
        for payload in store.try_get_many(block_ids)
    ]


class TestARefusedSegmentWrite:
    def test_a_refused_delete_keeps_the_store_and_the_index_in_step(self, tmp_path):
        store = segment_store(tmp_path)
        ids = [D1, D2, D3, D4]
        store.put_many([(block_id, one_byte(block_id.index)) for block_id in ids])
        backend = store.backend
        raw = refusing_writer(backend)
        raw.armed = True
        with pytest.raises(OSError):
            store.delete_many([D1, D2])
        raw.armed = False
        assert [store.contains(block_id) for block_id in ids] == [True] * 4
        assert [block_id in backend._index for block_id in ids] == [True] * 4
        assert read_back(store, ids) == [[1], [2], [3], [4]]
        store.close()
        reopened = segment_store(tmp_path)
        assert sorted(block_id.index for block_id in reopened.block_ids()) == [1, 2, 3, 4]
        assert read_back(reopened, ids) == [[1], [2], [3], [4]]
        reopened.close()

    def test_a_refused_overwrite_keeps_the_old_record(self, tmp_path):
        store = segment_store(tmp_path)
        store.put_many([(D1, one_byte(1))])
        raw = refusing_writer(store.backend)
        raw.armed = True
        with pytest.raises(OSError):
            store.put_many([(D1, one_byte(9)), (D2, one_byte(2))])
        raw.armed = False
        assert read_back(store, [D1, D2]) == [[1], None]
        store.close()
        reopened = segment_store(tmp_path)
        assert read_back(reopened, [D1, D2]) == [[1], None]
        reopened.close()

    def test_a_refused_delete_through_the_service_scrubs_clean(self, tmp_path):
        config = StorageConfig(
            scheme="rs-4-2",
            topology=8,
            block_size=64,
            backend="segment",
            data_dir=str(tmp_path),
        )
        rng = np.random.default_rng(43)
        a, b = (rng.integers(0, 256, size=640, dtype=np.uint8).tobytes() for _ in range(2))
        service = open_service(config)
        service.put("a", a)
        service.put("b", b)
        cluster = service.cluster
        blocks_of_a = set(service.scheme.document_blocks(service.documents["a"].data_ids))
        raw = refusing_writer(cluster.location(3).backend)
        raw.armed = True
        with pytest.raises(OSError):
            service.delete("a")
        raw.armed = False
        # The fan-out went on past the refusing location: only it still
        # holds blocks of ``a`` (before, every location after it did too).
        holding = sorted(
            location
            for location in range(cluster.location_count)
            if blocks_of_a & set(cluster.location(location).block_ids())
        )
        assert holding == [3]
        assert service.scrub().clean
        assert service.get("b") == b
        service.close()
        service = open_service(config)
        try:
            assert sorted(service.documents) == ["b"]
            assert service.scrub().clean
            assert service.get("b") == b
        finally:
            service.close()


class TestARefusedRoll:
    def test_the_stretch_before_it_stays_and_the_full_segment_stays_active(
        self, tmp_path, monkeypatch
    ):
        """The medium refuses the nonce a new segment opens with: the
        stretch that filled the old segment is stored, the new file is
        removed, and the next write lands in the old segment and rolls."""
        root = str(tmp_path / "log")
        log = SegmentLogBackend(root, segment_bytes=200)
        log.put_many([(D1, np.full(100, 1, dtype=np.uint8))])
        refused: list = []

        def refusing_open(path, mode="r", *args, **kwargs):
            raw = RefusingFile(path, mode.replace("b", ""))
            raw.armed = True
            refused.append(raw)
            return io.BufferedWriter(raw)

        monkeypatch.setattr(backends, "open", refusing_open, raising=False)
        with pytest.raises(OSError):
            log.put_many(
                [(D2, np.full(100, 2, dtype=np.uint8)), (D3, np.full(10, 3, dtype=np.uint8))]
            )
        monkeypatch.undo()
        assert refused  # the roll was what the medium refused
        assert sorted(os.listdir(os.path.join(root, "segments"))) == ["seg-00000000.log"]
        assert sorted(block_id.index for block_id, _ in log.scan()) == [1, 2]
        assert log.dead_bytes == segment_dead_bytes(root)
        log.put_many([(D3, np.full(10, 3, dtype=np.uint8))])
        assert log.segment_count == 2
        assert log._index[D3][0] == 0  # landed in the old segment, which then rolled
        log.close()
        reopened = SegmentLogBackend(root, segment_bytes=200)
        assert [reopened.get(block_id).tolist() for block_id in (D1, D2, D3)] == [
            [1] * 100,
            [2] * 100,
            [3] * 10,
        ]
        reopened.close()
