"""Tests for the pluggable storage backends and the block-id codec."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.blocks import DataId, ParityId
from repro.core.parameters import StrandClass
from repro.exceptions import InvalidParametersError
from repro.schemes.stripe import StripeBlockId
from repro.storage import backends
from repro.storage.backends import (
    _RECORD_HEADER,
    DiskBackend,
    MemoryBackend,
    SegmentLogBackend,
    decode_block_id,
    encode_block_id,
)

_RECORD_HEADER_SIZE = _RECORD_HEADER.size


def payload(seed: int, size: int = 64) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8)


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
class TestBlockIdCodec:
    @pytest.mark.parametrize(
        "block_id",
        [
            DataId(1),
            DataId(123456),
            ParityId(7, StrandClass.HORIZONTAL),
            ParityId(9, StrandClass.RIGHT_HANDED),
            ParityId(11, StrandClass.LEFT_HANDED),
            StripeBlockId(0, 0),
            StripeBlockId(42, 15),
        ],
    )
    def test_roundtrip(self, block_id):
        key = encode_block_id(block_id)
        assert decode_block_id(key) == block_id
        # Keys must be filesystem-safe (used as file names by DiskBackend).
        assert "/" not in key and key == key.strip()

    @pytest.mark.parametrize("key", ["", "x-1", "d-", "d-abc", "p-1", "p-1-zz", "s-1"])
    def test_malformed_keys_raise(self, key):
        with pytest.raises(InvalidParametersError):
            decode_block_id(key)

    def test_unserialisable_type_raises(self):
        with pytest.raises(InvalidParametersError):
            encode_block_id(("not", "a", "block", "id"))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_available_names(self):
        assert {"memory", "disk", "segment"} <= set(backends.available())

    def test_unknown_backend_raises(self):
        with pytest.raises(InvalidParametersError):
            backends.get("punchcard")

    def test_persistent_backends_require_root(self):
        with pytest.raises(InvalidParametersError):
            backends.get("disk")
        with pytest.raises(InvalidParametersError):
            backends.get("segment")

    def test_memory_ignores_root(self):
        assert isinstance(backends.get("memory", root="/nonexistent"), MemoryBackend)

    def test_factory_options(self, tmp_path):
        backend = backends.get("disk", root=str(tmp_path), fsync=True)
        assert isinstance(backend, DiskBackend)
        backend = backends.get("segment", root=str(tmp_path / "s"), segment_bytes=4096)
        assert isinstance(backend, SegmentLogBackend)
        backend.close()

    def test_unknown_factory_options_are_rejected(self, tmp_path):
        # A misspelled option must fail loudly, not silently disable itself.
        with pytest.raises(InvalidParametersError, match="fsycn"):
            backends.get("disk", root=str(tmp_path), fsycn=True)
        with pytest.raises(InvalidParametersError, match="segment_bytes"):
            backends.get("disk", root=str(tmp_path), segment_bytes=4096)
        # ... but every backend tolerates the shared fsync knob.
        assert isinstance(backends.get("memory", fsync=True), MemoryBackend)


# ----------------------------------------------------------------------
# Shared backend behaviour
# ----------------------------------------------------------------------
def build(spec: str, tmp_path, **options):
    root = str(tmp_path / spec) if spec != "memory" else None
    return backends.get(spec, root=root, **options)


@pytest.mark.parametrize("spec", ["memory", "disk", "segment"])
class TestBackendContract:
    def test_put_get_delete(self, spec, tmp_path):
        backend = build(spec, tmp_path)
        data = payload(1)
        backend.put(DataId(1), data)
        assert np.array_equal(backend.get(DataId(1)), data)
        with pytest.raises(KeyError):
            backend.get(DataId(2))
        backend.delete(DataId(1))
        with pytest.raises(KeyError):
            backend.get(DataId(1))
        with pytest.raises(KeyError):
            backend.delete(DataId(1))
        backend.close()

    def test_overwrite_and_scan(self, spec, tmp_path):
        backend = build(spec, tmp_path)
        backend.put(DataId(1), payload(1, 32))
        backend.put(DataId(1), payload(2, 48))
        backend.put(ParityId(3, StrandClass.HORIZONTAL), payload(3, 16))
        seen = dict(backend.scan())
        assert seen == {DataId(1): 48, ParityId(3, StrandClass.HORIZONTAL): 16}
        backend.close()

    def test_put_many_and_clear(self, spec, tmp_path):
        backend = build(spec, tmp_path)
        items = [(DataId(i), payload(i)) for i in range(1, 9)]
        assert backend.put_many(items) == 8
        assert len(dict(backend.scan())) == 8
        backend.clear()
        assert dict(backend.scan()) == {}
        backend.close()


# ----------------------------------------------------------------------
# Durability
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", ["disk", "segment"])
class TestPersistentBackends:
    def test_payloads_survive_reopen(self, spec, tmp_path):
        backend = build(spec, tmp_path)
        items = {DataId(i): payload(i) for i in range(1, 20)}
        backend.put_many(items.items())
        backend.delete(DataId(5))
        backend.close()

        reopened = build(spec, tmp_path)
        seen = dict(reopened.scan())
        assert set(seen) == set(items) - {DataId(5)}
        for block_id in seen:
            assert np.array_equal(reopened.get(block_id), items[block_id])
        reopened.close()

    def test_overwrite_survives_reopen(self, spec, tmp_path):
        backend = build(spec, tmp_path)
        backend.put(DataId(1), payload(1))
        newer = payload(99)
        backend.put(DataId(1), newer)
        backend.close()
        reopened = build(spec, tmp_path)
        assert np.array_equal(reopened.get(DataId(1)), newer)
        reopened.close()


class TestDiskBackend:
    def test_orphan_tmp_files_are_dropped_on_scan(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        backend.put(DataId(1), payload(1))
        orphan = os.path.join(str(tmp_path), "blocks", "d-2.tmp")
        with open(orphan, "wb") as handle:
            handle.write(b"torn write")
        reopened = DiskBackend(str(tmp_path))
        assert dict(reopened.scan()) == {DataId(1): 64}
        assert not os.path.exists(orphan)


class TestSegmentLogBackend:
    def test_segments_roll_at_cap(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path), segment_bytes=1024)
        for i in range(1, 20):
            backend.put(DataId(i), payload(i, 256))
        assert backend.segment_count > 1
        for i in range(1, 20):
            assert np.array_equal(backend.get(DataId(i)), payload(i, 256))
        backend.close()

    def test_torn_tail_record_is_discarded_on_reopen(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path))
        backend.put(DataId(1), payload(1))
        backend.put(DataId(2), payload(2))
        backend.close()
        # Simulate a crash mid-append: a half-written record at the tail.
        log = os.path.join(str(tmp_path), "segments", "seg-00000000.log")
        with open(log, "ab") as handle:
            handle.write(b"RSG1\x03\x00")  # truncated header

        reopened = SegmentLogBackend(str(tmp_path))
        assert set(dict(reopened.scan())) == {DataId(1), DataId(2)}
        assert np.array_equal(reopened.get(DataId(1)), payload(1))
        # The log is usable again: appends after recovery survive a rescan.
        reopened.put(DataId(3), payload(3))
        reopened.close()
        third = SegmentLogBackend(str(tmp_path))
        assert set(dict(third.scan())) == {DataId(1), DataId(2), DataId(3)}
        assert np.array_equal(third.get(DataId(3)), payload(3))
        third.close()

    def test_corrupt_crc_stops_the_scan(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path))
        backend.put(DataId(1), payload(1))
        offset_after_first = os.path.getsize(
            os.path.join(str(tmp_path), "segments", "seg-00000000.log")
        )
        backend.put(DataId(2), payload(2))
        backend.close()
        log = os.path.join(str(tmp_path), "segments", "seg-00000000.log")
        with open(log, "r+b") as handle:
            handle.seek(offset_after_first + 20)  # inside the second record
            handle.write(b"\xff\xff\xff")
        reopened = SegmentLogBackend(str(tmp_path))
        assert set(dict(reopened.scan())) == {DataId(1)}
        reopened.close()

    def test_compaction_reclaims_dead_bytes(self, tmp_path):
        backend = SegmentLogBackend(
            str(tmp_path), segment_bytes=2048, auto_compact=False
        )
        for i in range(1, 41):
            backend.put(DataId(i), payload(i, 256))
        for i in range(1, 31):
            backend.delete(DataId(i))
        segments_before = backend.segment_count
        size_before = sum(
            os.path.getsize(os.path.join(str(tmp_path), "segments", name))
            for name in os.listdir(os.path.join(str(tmp_path), "segments"))
        )
        backend.compact()
        size_after = sum(
            os.path.getsize(os.path.join(str(tmp_path), "segments", name))
            for name in os.listdir(os.path.join(str(tmp_path), "segments"))
        )
        assert size_after < size_before
        assert backend.segment_count <= segments_before
        for i in range(31, 41):
            assert np.array_equal(backend.get(DataId(i)), payload(i, 256))
        backend.close()
        # Compacted state survives a reopen.
        reopened = SegmentLogBackend(str(tmp_path))
        assert set(dict(reopened.scan())) == {DataId(i) for i in range(31, 41)}
        reopened.close()

    def test_auto_compaction_triggers_on_delete(self, tmp_path):
        backend = SegmentLogBackend(
            str(tmp_path), segment_bytes=2048, compact_ratio=0.3
        )
        for i in range(1, 41):
            backend.put(DataId(i), payload(i, 256))
        size_before = backend._total_bytes
        for i in range(1, 40):
            backend.delete(DataId(i))
        assert backend._total_bytes < size_before
        assert np.array_equal(backend.get(DataId(40)), payload(40, 256))
        backend.close()

    def test_fresh_small_puts_do_not_trigger_compaction(self, tmp_path):
        # Per-record header/key overhead must not count as "dead" bytes:
        # unique tiny puts would otherwise rewrite the whole log every call.
        backend = SegmentLogBackend(str(tmp_path), compact_ratio=0.5)
        for i in range(1, 201):
            backend.put(DataId(i), payload(i, 8))
        # No compaction can have run: every record is still in the log.
        assert backend._total_bytes >= 200 * (8 + _RECORD_HEADER_SIZE)
        assert len(dict(backend.scan())) == 200
        backend.close()

    def test_auto_compaction_triggers_on_overwrite(self, tmp_path):
        backend = SegmentLogBackend(
            str(tmp_path), segment_bytes=4096, compact_ratio=0.5
        )
        # An overwrite-heavy workload must not grow the log unboundedly.
        for round_number in range(30):
            backend.put(DataId(1), payload(round_number, 256))
        live_record = 256 + 64  # payload + generous header/key allowance
        assert backend._total_bytes < 4 * live_record
        assert np.array_equal(backend.get(DataId(1)), payload(29, 256))
        backend.close()
