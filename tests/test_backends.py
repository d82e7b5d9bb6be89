"""Tests for the pluggable storage backends and the block-id codec."""

from __future__ import annotations

import os
import shutil
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.blocks import DataId, ParityId
from repro.core.parameters import StrandClass
from repro.exceptions import InvalidParametersError
from repro.schemes.stripe import StripeBlockId
from repro.storage import backends
from repro.storage.backends import (
    _INDEX_HEAD,
    _INDEX_MAGIC,
    _INDEX_TRAILER,
    _NONCE_RECORD_BYTES,
    _RECORD_HEADER,
    _RECORD_MAGIC,
    DiskBackend,
    MemoryBackend,
    SegmentLogBackend,
    decode_block_id,
    encode_block_id,
)
from tests.conftest import make_payload, segment_dead_bytes, segment_records

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

    @pytest.mark.parametrize(
        "key",
        ["", "x-1", "d-", "d-abc", "p-1", "p-1-zz", "s-1", "p-1-h "]
        # Spellings encode_block_id never writes; each used to decode to the
        # id of a canonical key (d-01 -> d1).
        + ["d-01", "d-+1", "d-1_0", "d- 1", "d-\u0661", "s-1-02", "p-00-h", "d-\u00b2"],
    )
    def test_malformed_keys_raise(self, key):
        with pytest.raises(InvalidParametersError, match="malformed block key"):
            decode_block_id(key)

    @given(
        st.one_of(
            st.text(),
            # Key-shaped: a kind, one or two numbers, maybe a strand class.
            st.from_regex(r"[dps](-[0-9+_ \u0661\u00b2]{1,3}){1,2}(-(h|rh|lh|x))?", fullmatch=True),
        )
    )
    def test_a_key_decodes_only_from_its_own_spelling(self, key):
        try:
            block_id = decode_block_id(key)
        except InvalidParametersError:
            return
        assert encode_block_id(block_id) == key

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
        backend.put_many([(DataId(1), data)])
        assert np.array_equal(backend.get(DataId(1)), data)
        with pytest.raises(KeyError):
            backend.get(DataId(2))
        assert backend.delete_many([DataId(1)]) == 1
        with pytest.raises(KeyError):
            backend.get(DataId(1))
        assert backend.delete_many([DataId(1)]) == 0
        backend.close()

    def test_overwrite_and_scan(self, spec, tmp_path):
        backend = build(spec, tmp_path)
        backend.put_many([(DataId(1), payload(1, 32))])
        backend.put_many([(DataId(1), payload(2, 48))])
        backend.put_many([(ParityId(3, StrandClass.HORIZONTAL), payload(3, 16))])
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
        backend.delete_many([DataId(5)])
        backend.close()

        reopened = build(spec, tmp_path)
        seen = dict(reopened.scan())
        assert set(seen) == set(items) - {DataId(5)}
        for block_id in seen:
            assert np.array_equal(reopened.get(block_id), items[block_id])
        reopened.close()

    def test_overwrite_survives_reopen(self, spec, tmp_path):
        backend = build(spec, tmp_path)
        backend.put_many([(DataId(1), payload(1))])
        newer = payload(99)
        backend.put_many([(DataId(1), newer)])
        backend.close()
        reopened = build(spec, tmp_path)
        assert np.array_equal(reopened.get(DataId(1)), newer)
        reopened.close()


class TestDiskBackend:
    def test_a_stray_non_canonical_name_is_refused(self, tmp_path):
        # Before: d-01 decoded to d1 as well, so scan() yielded d1 twice and a
        # deleted d1 was back on the books (raising KeyError) after a reopen.
        backend = DiskBackend(str(tmp_path))
        backend.put_many([(DataId(1), payload(1, 8))])
        with open(os.path.join(str(tmp_path), "blocks", "d-01"), "wb") as handle:
            handle.write(b"\x01" * 10)
        with pytest.raises(InvalidParametersError, match="d-01"):
            list(DiskBackend(str(tmp_path)).scan())

    def test_orphan_tmp_files_are_dropped_on_scan(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        backend.put_many([(DataId(1), payload(1))])
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
            backend.put_many([(DataId(i), payload(i, 256))])
        assert backend.segment_count > 1
        for i in range(1, 20):
            assert np.array_equal(backend.get(DataId(i)), payload(i, 256))
        backend.close()

    def test_torn_tail_record_is_discarded_on_reopen(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path))
        backend.put_many([(DataId(1), payload(1))])
        backend.put_many([(DataId(2), payload(2))])
        backend.close()
        # Simulate a crash mid-append: a half-written record at the tail.
        log = os.path.join(str(tmp_path), "segments", "seg-00000000.log")
        with open(log, "ab") as handle:
            handle.write(b"RSG1\x03\x00")  # truncated header

        reopened = SegmentLogBackend(str(tmp_path))
        assert set(dict(reopened.scan())) == {DataId(1), DataId(2)}
        assert np.array_equal(reopened.get(DataId(1)), payload(1))
        # The log is usable again: appends after recovery survive a rescan.
        reopened.put_many([(DataId(3), payload(3))])
        reopened.close()
        third = SegmentLogBackend(str(tmp_path))
        assert set(dict(third.scan())) == {DataId(1), DataId(2), DataId(3)}
        assert np.array_equal(third.get(DataId(3)), payload(3))
        third.close()

    def test_corrupt_crc_stops_the_scan(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path))
        backend.put_many([(DataId(1), payload(1))])
        offset_after_first = os.path.getsize(
            os.path.join(str(tmp_path), "segments", "seg-00000000.log")
        )
        backend.put_many([(DataId(2), payload(2))])
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
            backend.put_many([(DataId(i), payload(i, 256))])
        for i in range(1, 31):
            backend.delete_many([DataId(i)])
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
            backend.put_many([(DataId(i), payload(i, 256))])
        size_before = backend._total_bytes
        for i in range(1, 40):
            backend.delete_many([DataId(i)])
        assert backend._total_bytes < size_before
        assert np.array_equal(backend.get(DataId(40)), payload(40, 256))
        backend.close()

    def test_fresh_small_puts_do_not_trigger_compaction(self, tmp_path):
        # Per-record header/key overhead must not count as "dead" bytes:
        # unique tiny puts would otherwise rewrite the whole log every call.
        backend = SegmentLogBackend(str(tmp_path), compact_ratio=0.5)
        for i in range(1, 201):
            backend.put_many([(DataId(i), payload(i, 8))])
        # No compaction can have run: every record is still in the log.
        assert backend._total_bytes >= 200 * (8 + _RECORD_HEADER_SIZE)
        assert len(dict(backend.scan())) == 200
        backend.close()

    def test_auto_compaction_triggers_on_overwrite(self, tmp_path):
        backend = SegmentLogBackend(
            str(tmp_path), segment_bytes=4096, compact_ratio=0.5
        )
        # An overwrite-heavy workload must not grow the log unboundedly: dead
        # bytes stay within max(ratio x log, one segment) after every put.
        live_record = _RECORD_HEADER_SIZE + len("d-1") + 256
        for round_number in range(30):
            backend.put_many([(DataId(1), payload(round_number, 256))])
            assert backend.dead_bytes == backend._total_bytes - live_record
            assert backend.dead_bytes <= max(0.5 * backend._total_bytes, 4096)
        assert backend._total_bytes < 4096 + live_record < 30 * live_record
        assert np.array_equal(backend.get(DataId(1)), payload(29, 256))
        backend.close()


# ----------------------------------------------------------------------
# Segment log: batched tombstones, exact dead bytes, the compaction floor,
# the close-time index record and recovery from rot and torn tails
# ----------------------------------------------------------------------
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def segment_files(root) -> list:
    directory = os.path.join(str(root), "segments")
    return [os.path.join(directory, name) for name in sorted(os.listdir(directory))]


def block_records(path) -> list:
    """The records of a segment file that carry a key: blocks and tombstones."""
    return [record for record in segment_records(path) if record[1]]


def flip_byte(path, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        value = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([value ^ 0xFF]))


def assert_holds(backend, blocks) -> None:
    assert dict(backend.scan()) == {block_id: data.size for block_id, data in blocks.items()}
    for block_id, data in blocks.items():
        assert np.array_equal(backend.get(block_id), data)


def mostly_dead_log(root, **options) -> dict:
    """Close a log of twelve blocks nine of which were deleted (its tail is
    the close's index record) and return the three live blocks."""
    backend = SegmentLogBackend(str(root), **options)
    blocks = {DataId(i): payload(i) for i in range(1, 13)}
    backend.put_many(blocks.items())
    assert backend.delete_many([DataId(i) for i in range(1, 10)]) == 9
    backend.close()
    assert segment_records(segment_files(root)[-1])[-1][1] == ""  # the index
    return {block_id: data for block_id, data in blocks.items() if block_id.index > 9}


class TestSegmentLogBatchedTombstones:
    def test_delete_many_is_one_tombstone_run_one_flush_one_check(
        self, tmp_path, monkeypatch
    ):
        backend = SegmentLogBackend(str(tmp_path))
        backend.put_many((DataId(i), payload(i)) for i in range(1, 7))
        calls = []
        flush, maybe_compact = backend.flush, backend._maybe_compact
        monkeypatch.setattr(backend, "flush", lambda: (calls.append("flush"), flush()))
        monkeypatch.setattr(
            backend, "_maybe_compact", lambda: (calls.append("check"), maybe_compact())
        )
        # Absent and repeated ids are skipped: one tombstone per held block.
        assert backend.delete_many([DataId(1), DataId(2), DataId(99), DataId(2), DataId(3)]) == 3
        assert calls == ["flush", "check"]
        tail = segment_records(segment_files(tmp_path)[0])[-3:]
        assert [(key, length) for _, key, length, _ in tail] == [
            ("d-1", -1), ("d-2", -1), ("d-3", -1)
        ]
        assert set(dict(backend.scan())) == {DataId(4), DataId(5), DataId(6)}
        calls.clear()
        size = backend._total_bytes
        assert backend.delete_many([DataId(1), DataId(99)]) == 0
        assert calls == [] and backend._total_bytes == size
        backend.close()


class TestSegmentLogDeadBytes:
    def test_dead_bytes_are_exact_for_keys_of_any_length(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path), segment_bytes=600)
        ids = [DataId(7), ParityId(123, StrandClass.RIGHT_HANDED), StripeBlockId(1000, 12)]
        for round_number, block_id in enumerate(ids * 3):
            backend.put_many([(block_id, payload(round_number, 40 + round_number))])
            assert backend.dead_bytes == segment_dead_bytes(tmp_path)
        backend.delete_many(ids[:2])
        assert backend.dead_bytes == segment_dead_bytes(tmp_path)
        backend.close()  # the index record counts as dead too
        assert backend.dead_bytes == segment_dead_bytes(tmp_path)
        reopened = SegmentLogBackend(str(tmp_path), segment_bytes=600)
        assert reopened.dead_bytes == segment_dead_bytes(tmp_path)
        reopened.close()

    def test_compaction_waits_for_a_segment_of_dead_bytes(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path), segment_bytes=4096, compact_ratio=0.5)
        backend.put_many((DataId(i), payload(i, 256)) for i in range(1, 11))
        backend.delete_many([DataId(i) for i in range(1, 10)])
        # Mostly dead, but less than a segment of it: the log is left alone.
        assert 0.5 * backend._total_bytes < backend.dead_bytes < 4096
        assert len(segment_files(tmp_path)) == 1
        backend.put_many((DataId(i), payload(i, 256)) for i in range(11, 21))
        backend.delete_many([DataId(i) for i in range(11, 21)])
        # One segment of dead bytes is reached: compaction ran and emptied it
        # (the new segment's nonce record is all that is not live).
        assert backend.dead_bytes == _NONCE_RECORD_BYTES
        assert dict(backend.scan()) == {DataId(10): 256}
        assert np.array_equal(backend.get(DataId(10)), payload(10, 256))
        backend.close()


class TestSegmentLogIndexRecord:
    def test_every_close_writes_one_index(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path))
        backend.put_many((DataId(i), payload(i)) for i in range(1, 5))
        backend.close()
        # A live log gets one too: the records without a key are the nonce
        # the segment opens with and the index: 52 bytes + 18 per live block.
        records = segment_records(segment_files(tmp_path)[0])
        assert [key for _, key, _, _ in records] == ["", "d-1", "d-2", "d-3", "d-4", ""]
        assert records[-1][3] == 52 + 4 * 18
        # A reopen that adopted it and wrote nothing leaves no second one ...
        size = os.path.getsize(segment_files(tmp_path)[0])
        SegmentLogBackend(str(tmp_path)).close()
        assert os.path.getsize(segment_files(tmp_path)[0]) == size
        # ... and a write since the last index means one more.
        backend = SegmentLogBackend(str(tmp_path))
        backend.delete_many([DataId(1)])
        backend.close()
        keys = [key for _, key, _, _ in segment_records(segment_files(tmp_path)[0])]
        assert keys[-3:] == ["", "d-1", ""]

    @pytest.mark.parametrize("segment_bytes", [1 << 20, 300])
    def test_reopen_trusts_a_valid_index(self, tmp_path, monkeypatch, segment_bytes):
        # Without auto-compaction a mostly dead log can span several segments.
        live = mostly_dead_log(tmp_path, segment_bytes=segment_bytes, auto_compact=False)
        sizes = [os.path.getsize(path) for path in segment_files(tmp_path)]
        if segment_bytes == 300:
            assert len(sizes) > 2  # the index lists sealed segments too
        monkeypatch.setattr(
            SegmentLogBackend, "_scan_segment", lambda *args, **kwargs: pytest.fail("scanned")
        )
        reopened = SegmentLogBackend(str(tmp_path), segment_bytes=segment_bytes)
        assert_holds(reopened, live)
        assert reopened.dead_bytes == segment_dead_bytes(tmp_path)
        reopened.close()
        # Nothing changed since the index was written: no second index.
        assert [os.path.getsize(path) for path in segment_files(tmp_path)] == sizes
        again = SegmentLogBackend(str(tmp_path), segment_bytes=segment_bytes)
        assert_holds(again, live)
        again.close()

    def test_appends_after_an_adopted_index_are_scanned(self, tmp_path):
        live = mostly_dead_log(tmp_path)
        backend = SegmentLogBackend(str(tmp_path))
        backend.put_many([(DataId(10), payload(100))])
        live[DataId(10)] = payload(100)
        backend.flush()
        killed = tmp_path.parent / f"{tmp_path.name}-killed"
        shutil.copytree(tmp_path, killed)  # a kill: the new record ends the log
        backend.close()
        reopened = SegmentLogBackend(str(killed))
        assert_holds(reopened, live)
        reopened.close()

    def test_cut_at_every_byte_of_the_index_record(self, tmp_path):
        live = mostly_dead_log(tmp_path / "log")
        path = segment_files(tmp_path / "log")[-1]
        index_at, _, _, index_len = segment_records(path)[-1]
        for cut in range(index_at, index_at + index_len):
            image = tmp_path / f"cut-{cut}"
            shutil.copytree(tmp_path / "log", image)
            with open(segment_files(image)[-1], "r+b") as handle:
                handle.truncate(cut)
            reopened = SegmentLogBackend(str(image))
            assert_holds(reopened, live)
            # Only the torn index goes: every block record and tombstone stays.
            assert os.path.getsize(segment_files(image)[-1]) == index_at
            reopened.close()
            shutil.rmtree(image)

    def test_cut_at_every_byte_of_the_last_block_record(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path / "log"))
        blocks = {DataId(i): payload(i) for i in range(1, 6)}
        backend.put_many(blocks.items())
        backend.put_many([(DataId(3), payload(33))])  # the last block record: an overwrite
        backend.delete_many([DataId(1), DataId(2)])
        backend.close()
        path = segment_files(tmp_path / "log")[-1]
        last_at, key, _, last_len = [
            record for record in segment_records(path) if record[2] >= 0 and record[1]
        ][-1]
        assert key == "d-3"
        expected = {block_id: blocks[block_id] for block_id in (DataId(3), DataId(4), DataId(5))}
        for cut in range(last_at, last_at + last_len):
            image = tmp_path / f"cut-{cut}"
            shutil.copytree(tmp_path / "log", image)
            with open(segment_files(image)[-1], "r+b") as handle:
                handle.truncate(cut)
            reopened = SegmentLogBackend(str(image))
            # The torn overwrite never happened; what came before is intact.
            assert_holds(reopened, {**expected, DataId(1): blocks[DataId(1)], DataId(2): blocks[DataId(2)]})
            assert os.path.getsize(segment_files(image)[-1]) == last_at
            reopened.close()
            shutil.rmtree(image)

    def test_rotten_live_record_under_a_valid_index_falls_back_to_the_scan(self, tmp_path):
        live = mostly_dead_log(tmp_path)
        path = segment_files(tmp_path)[-1]
        sizes = os.path.getsize(path)
        offset, key, _, record_len = [
            record for record in segment_records(path) if record[1] == "d-10"
        ][-1]
        flip_byte(path, offset + record_len - 5)
        reopened = SegmentLogBackend(str(tmp_path))
        # The rotten block reads as missing; nothing valid was truncated.
        del live[DataId(10)]
        assert_holds(reopened, live)
        assert os.path.getsize(path) == sizes
        assert reopened.dead_bytes == os.path.getsize(path) - sum(
            record_len for _, key, _, record_len in segment_records(path) if key in {"d-11", "d-12"}
        )
        reopened.close()

    def test_stale_segment_sizes_mean_a_scan(self, tmp_path):
        live = mostly_dead_log(tmp_path, segment_bytes=300, auto_compact=False)
        sealed = segment_files(tmp_path)[0]
        with open(sealed, "ab") as handle:
            handle.write(b"\x00" * 7)  # the index no longer describes this segment
        reopened = SegmentLogBackend(str(tmp_path), segment_bytes=300)
        assert not reopened._tail_is_index
        assert_holds(reopened, live)
        reopened.close()

    def test_kill_without_close_reopens_through_the_scan(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path / "log"), segment_bytes=300)
        blocks = {DataId(i): payload(i) for i in range(1, 9)}
        backend.put_many(blocks.items())
        backend.delete_many([DataId(i) for i in range(1, 7)])
        killed = tmp_path / "killed"
        shutil.copytree(tmp_path / "log", killed)
        backend.close()
        reopened = SegmentLogBackend(str(killed), segment_bytes=300)
        assert_holds(reopened, {DataId(7): blocks[DataId(7)], DataId(8): blocks[DataId(8)]})
        reopened.close()

    def test_a_log_in_the_previous_format_opens_through_the_scan(self, tmp_path):
        # Written before index records existed: blocks, an overwrite, a
        # tombstone, two segments.  (That format's reader rejects a log with
        # an index record: its empty key is a malformed block key.)
        shutil.copytree(os.path.join(FIXTURES, "segment_log_parent"), tmp_path / "log")
        reopened = SegmentLogBackend(str(tmp_path / "log"), segment_bytes=256)
        expected = {
            DataId(1): make_payload(0, 48),
            DataId(2): make_payload(99, 40),
            ParityId(2, StrandClass.RIGHT_HANDED): make_payload(2, 48),
            DataId(3): make_payload(4, 48),
        }
        assert_holds(
            reopened,
            {block_id: np.frombuffer(data, dtype=np.uint8) for block_id, data in expected.items()},
        )
        assert not reopened._tail_is_index
        reopened.close()


class TestSegmentLogRot:
    """A record that fails its CRC but is followed by a valid one is an
    erasure, not a torn tail: its neighbours survive."""

    def test_rot_in_one_record_spares_its_neighbours(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path))
        blocks = {DataId(i): payload(i) for i in range(1, 6)}
        backend.put_many(blocks.items())
        backend.close()
        path = segment_files(tmp_path)[0]
        size = os.path.getsize(path)
        assert size == _NONCE_RECORD_BYTES + 415 + 52 + 5 * 18  # nonce, blocks, index
        flip_byte(path, _NONCE_RECORD_BYTES + _RECORD_HEADER_SIZE + len("d-1") + 10)
        reopened = SegmentLogBackend(str(tmp_path))
        # Before: scan() yielded [] and the log was truncated to 0 bytes.
        del blocks[DataId(1)]
        assert_holds(reopened, blocks)
        assert os.path.getsize(path) == size
        reopened.close()

    def test_rot_in_a_sealed_segment_spares_its_neighbours(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path), segment_bytes=200)
        blocks = {DataId(i): payload(i) for i in range(1, 7)}
        for block_id, data in blocks.items():
            backend.put_many([(block_id, data)])
        backend.close()
        assert len(segment_files(tmp_path)) > 2
        flip_byte(
            segment_files(tmp_path)[0],
            _NONCE_RECORD_BYTES + _RECORD_HEADER_SIZE + len("d-1") + 10,
        )
        reopened = SegmentLogBackend(str(tmp_path), segment_bytes=200)
        # Before: only blocks 4, 5 and 6 (the later segments) survived.
        del blocks[DataId(1)]
        assert_holds(reopened, blocks)
        reopened.close()

    def test_a_rotten_overwrite_does_not_resurrect_the_old_version(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path))
        backend.put_many([(DataId(1), payload(1))])
        backend.put_many([(DataId(2), payload(2))])
        backend.put_many([(DataId(1), payload(11))])
        backend.put_many([(DataId(3), payload(3))])
        backend.close()
        path = segment_files(tmp_path)[0]
        offset, key, _, record_len = segment_records(path)[3]
        assert key == "d-1"  # the overwrite
        flip_byte(path, offset + record_len - 1)
        reopened = SegmentLogBackend(str(tmp_path))
        assert_holds(reopened, {DataId(2): payload(2), DataId(3): payload(3)})
        reopened.close()

    def test_a_broken_frame_followed_by_valid_records_is_skipped(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path))
        blocks = {DataId(i): payload(i) for i in range(1, 5)}
        backend.put_many(blocks.items())
        backend.close()
        path = segment_files(tmp_path)[0]
        flip_byte(path, block_records(path)[1][0])  # the second block's magic
        reopened = SegmentLogBackend(str(tmp_path))
        del blocks[DataId(2)]
        assert_holds(reopened, blocks)
        reopened.close()

    def test_a_record_inside_a_torn_payload_is_not_framing(self, tmp_path):
        # The last block's payload is itself a valid record (an archived
        # segment log, say) naming d-1 with other bytes.  A crash tears that
        # block after the embedded record: nothing inside it may be indexed.
        key = b"d-1"
        forged = key + b"\x00" * 64
        embedded = _RECORD_HEADER.pack(_RECORD_MAGIC, len(key), 64, zlib.crc32(forged)) + forged
        backend = SegmentLogBackend(str(tmp_path / "log"))
        blocks = {DataId(i): payload(i) for i in range(1, 4)}
        backend.put_many(blocks.items())
        carrier = np.frombuffer(b"\x07" * 40 + embedded + b"\x09" * 40, dtype=np.uint8)
        backend.put_many([(DataId(4), carrier)])
        backend.close()
        path = segment_files(tmp_path / "log")[-1]
        torn_at, key, _, _ = block_records(path)[-1]
        assert key == "d-4"
        embedded_at = torn_at + _RECORD_HEADER_SIZE + len("d-4") + 40
        # Cut inside the embedded record, at its end (the rest of the
        # segment then frames cleanly from it), and after it.
        for cut in (embedded_at + 10, embedded_at + len(embedded), embedded_at + len(embedded) + 5):
            image = tmp_path / f"cut-{cut}"
            shutil.copytree(tmp_path / "log", image)
            with open(segment_files(image)[-1], "r+b") as handle:
                handle.truncate(cut)
            reopened = SegmentLogBackend(str(image))
            assert_holds(reopened, blocks)
            assert os.path.getsize(segment_files(image)[-1]) == torn_at
            reopened.close()

    def test_a_resync_candidate_must_frame_the_rest_of_the_segment(self, tmp_path):
        # The second block, whose payload embeds a valid record naming d-1,
        # lost its magic.  The scan resynchronises at the next magic from
        # which the rest of the segment frames: the embedded record is
        # followed by payload bytes, so it is passed over for d-3's header.
        key = b"d-1"
        forged = key + b"\x00" * 8
        embedded = _RECORD_HEADER.pack(_RECORD_MAGIC, len(key), 8, zlib.crc32(forged)) + forged
        backend = SegmentLogBackend(str(tmp_path))
        blocks = {
            DataId(1): payload(1),
            DataId(2): np.frombuffer(embedded + b"\x05" * 40, dtype=np.uint8),
            DataId(3): payload(3),
        }
        backend.put_many(blocks.items())
        backend.close()
        path = segment_files(tmp_path)[0]
        size = os.path.getsize(path)
        flip_byte(path, block_records(path)[1][0])
        reopened = SegmentLogBackend(str(tmp_path))
        del blocks[DataId(2)]
        assert_holds(reopened, blocks)
        assert os.path.getsize(path) == size
        reopened.close()


class TestSegmentLogNonce:
    """An index record is trusted only with its segment's nonce: bytes a
    payload ends in cannot pass for one."""

    @staticmethod
    def forged_empty_index(nonce: bytes) -> bytes:
        body = _INDEX_HEAD.pack(nonce, 0, 0)
        record_len = _RECORD_HEADER_SIZE + len(body) + _INDEX_TRAILER.size
        body += _INDEX_TRAILER.pack(record_len, _INDEX_MAGIC)
        return _RECORD_HEADER.pack(_RECORD_MAGIC, 0, len(body), zlib.crc32(body)) + body

    def test_every_segment_opens_with_its_own_nonce(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path), segment_bytes=200)
        for i in range(1, 7):
            backend.put_many([(DataId(i), payload(i))])
        backend.close()
        nonces = []
        for path in segment_files(tmp_path):
            offset, key, length, _ = segment_records(path)[0]
            assert (offset, key, length) == (0, "", _NONCE_RECORD_BYTES - _RECORD_HEADER_SIZE)
            with open(path, "rb") as handle:
                nonces.append(handle.read(_NONCE_RECORD_BYTES)[_RECORD_HEADER_SIZE:])
        assert len(set(nonces)) == len(nonces) > 2

    def test_a_payload_ending_in_an_index_record_is_not_adopted(self, tmp_path):
        # The last block ends in a well-formed empty index record, and a
        # kill leaves it the last thing in the log: no real index follows it.
        backend = SegmentLogBackend(str(tmp_path / "log"))
        blocks = {DataId(i): payload(i) for i in range(1, 4)}
        backend.put_many(blocks.items())
        nonce = backend._nonce
        blocks[DataId(4)] = np.frombuffer(
            b"\x01" * 30 + self.forged_empty_index(b"\x00" * 16), dtype=np.uint8
        )
        backend.put_many([(DataId(4), blocks[DataId(4)])])
        shutil.copytree(tmp_path / "log", tmp_path / "killed")
        backend.close()
        reopened = SegmentLogBackend(str(tmp_path / "killed"))
        assert not reopened._tail_is_index
        assert_holds(reopened, blocks)
        reopened.close()
        # The nonce is what stops it: with the segment's own, the same bytes
        # would pass for an index of an empty log.
        with open(segment_files(tmp_path / "log")[-1], "ab") as handle:
            handle.write(self.forged_empty_index(nonce))
        fooled = SegmentLogBackend(str(tmp_path / "log"))
        assert fooled._tail_is_index and dict(fooled.scan()) == {}
        fooled.close()

    def test_a_segment_without_a_nonce_gets_no_index(self, tmp_path):
        # The final segment of a log in the previous format: blocks are
        # appended to it, but close leaves no index the next open could
        # mistake; the next segment the log starts has a nonce again.
        shutil.copytree(os.path.join(FIXTURES, "segment_log_parent"), tmp_path / "log")
        backend = SegmentLogBackend(str(tmp_path / "log"), segment_bytes=256, auto_compact=False)
        assert backend._nonce is None
        backend.delete_many([DataId(1), DataId(2), DataId(3)])
        backend.close()
        assert segment_records(segment_files(tmp_path / "log")[-1])[-1][1] != ""
        reopened = SegmentLogBackend(str(tmp_path / "log"), segment_bytes=256)
        assert set(dict(reopened.scan())) == {ParityId(2, StrandClass.RIGHT_HANDED)}
        reopened.compact()
        assert reopened._nonce is not None
        reopened.close()
