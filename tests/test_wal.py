"""Tests for the group-committed metadata WAL and its crash safety.

Three layers:

* frame/group mechanics -- framing round trips, torn-tail scanning, commit
  seals that do not match their op run;
* concurrency -- many threads committing at once form disjoint, ordered,
  fully recoverable groups (the group-commit contract);
* service-level crash sweep -- a live ``StorageService`` data directory is
  snapshotted and its WAL truncated at *every* frame boundary (and mid-frame);
  each truncation must reopen to exactly the committed-prefix state, with
  committed documents byte-exact and no partial group visible;
* the size-triggered checkpoint -- with the threshold shrunk to a few hundred
  bytes the log collapses into the manifest every few puts, single-threaded
  and under racing front-end writers, and a dropped handle reopens byte-exact.
"""

from __future__ import annotations

import os
import shutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.system.catalogue as catalogue_module
from repro.exceptions import InvalidParametersError
from repro.storage.wal import (
    _FRAME_COMMIT,
    _FRAME_OP,
    MetadataWAL,
    _frame_bytes,
    iter_frames,
    scan_wal,
)
from repro.system.opening import open_service
from repro.system.service import StorageConfig, StorageService


def wal_path(tmp_path) -> str:
    return str(tmp_path / "wal.log")


class TestFraming:
    def test_commit_round_trips_through_frames(self, tmp_path):
        path = wal_path(tmp_path)
        with MetadataWAL(path) as wal:
            seq = wal.commit([{"op": "put_doc", "name": "a"}, {"op": "x", "n": 1}])
        assert seq == 1
        frames = iter_frames(path)
        assert [frame.frame_type for frame in frames] == [
            _FRAME_OP,
            _FRAME_OP,
            _FRAME_COMMIT,
        ]
        assert frames[0].record == {"op": "put_doc", "name": "a"}
        assert frames[1].record == {"op": "x", "n": 1}
        assert frames[2].record == {"seq": 1, "ops": 2}
        # Frame extents tile the file exactly.
        assert frames[0].start == 0
        assert frames[1].start == frames[0].end
        assert frames[2].end == os.path.getsize(path)

    def test_scan_groups_and_sequence(self, tmp_path):
        path = wal_path(tmp_path)
        with MetadataWAL(path) as wal:
            wal.commit([{"op": "a"}])
            wal.commit([{"op": "b"}, {"op": "c"}])
        groups, valid_end = scan_wal(path)
        assert [group.seq for group in groups] == [1, 2]
        assert [len(group.ops) for group in groups] == [1, 2]
        assert valid_end == os.path.getsize(path)
        assert groups[1].end_offset == valid_end

    def test_missing_file_is_empty(self, tmp_path):
        path = wal_path(tmp_path)
        assert iter_frames(path) == []
        assert scan_wal(path) == ([], 0)

    def test_empty_commit_is_a_noop(self, tmp_path):
        path = wal_path(tmp_path)
        with MetadataWAL(path) as wal:
            assert wal.commit([]) == 0
            wal.commit([{"op": "a"}])
            assert wal.commit([]) == 1
        assert len(scan_wal(path)[0]) == 1

    def test_corrupt_crc_hides_the_tail(self, tmp_path):
        path = wal_path(tmp_path)
        with MetadataWAL(path) as wal:
            wal.commit([{"op": "a"}])
            wal.commit([{"op": "b"}])
        data = bytearray(open(path, "rb").read())
        first_end = scan_wal(path)[0][0].end_offset
        data[first_end + 20] ^= 0xFF  # flip a byte inside the second group
        with open(path, "wb") as handle:
            handle.write(data)
        groups, valid_end = scan_wal(path)
        assert [group.seq for group in groups] == [1]
        assert valid_end == first_end

    def test_commit_seal_with_wrong_op_count_stops_the_scan(self, tmp_path):
        path = wal_path(tmp_path)
        blob = (
            _frame_bytes(_FRAME_OP, {"op": "a"})
            + _frame_bytes(_FRAME_COMMIT, {"seq": 1, "ops": 1})
            + _frame_bytes(_FRAME_OP, {"op": "b"})
            + _frame_bytes(_FRAME_COMMIT, {"seq": 2, "ops": 5})  # lies
            + _frame_bytes(_FRAME_OP, {"op": "c"})
            + _frame_bytes(_FRAME_COMMIT, {"seq": 3, "ops": 1})
        )
        with open(path, "wb") as handle:
            handle.write(blob)
        groups, valid_end = scan_wal(path)
        # The mismatched seal poisons everything after it, group 3 included.
        assert [group.seq for group in groups] == [1]
        assert valid_end == groups[0].end_offset


class TestRecovery:
    def test_reopen_recovers_groups_and_continues_sequence(self, tmp_path):
        path = wal_path(tmp_path)
        with MetadataWAL(path) as wal:
            wal.commit([{"op": "a"}])
            wal.commit([{"op": "b"}])
        reopened = MetadataWAL(path)
        assert [group.seq for group in reopened.recovered_groups()] == [1, 2]
        assert reopened.last_seq == 2
        assert reopened.commit([{"op": "c"}]) == 3
        reopened.close()
        assert [group.seq for group in scan_wal(path)[0]] == [1, 2, 3]

    def test_open_truncates_a_torn_tail_in_place(self, tmp_path):
        path = wal_path(tmp_path)
        with MetadataWAL(path) as wal:
            wal.commit([{"op": "a"}])
        good_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(_frame_bytes(_FRAME_OP, {"op": "torn"})[:-2])
        reopened = MetadataWAL(path)
        assert os.path.getsize(path) == good_size
        assert reopened.commit([{"op": "b"}]) == 2
        reopened.close()
        assert [group.seq for group in scan_wal(path)[0]] == [1, 2]

    def test_torn_tail_sweep_every_byte(self, tmp_path):
        """Cut the log at *every* byte length: the scan must always return a
        committed prefix, and reopening must always truncate and append
        cleanly after the cut."""
        path = wal_path(tmp_path)
        with MetadataWAL(path) as wal:
            for number in range(4):
                wal.commit([{"op": "put", "n": number}, {"op": "state", "n": number}])
        blob = open(path, "rb").read()
        boundaries = [0] + [g.end_offset for g in scan_wal(path)[0]]
        for cut in range(len(blob) + 1):
            trimmed = str(tmp_path / "cut.log")
            with open(trimmed, "wb") as handle:
                handle.write(blob[:cut])
            groups, valid_end = scan_wal(trimmed)
            # Only whole groups survive, up to the last boundary <= cut.
            expected_end = max(b for b in boundaries if b <= cut)
            assert valid_end == expected_end
            assert [g.seq for g in groups] == list(range(1, boundaries.index(expected_end) + 1))
            # Reopen-after-crash: the torn bytes are cut, appends work.
            wal = MetadataWAL(trimmed)
            assert os.path.getsize(trimmed) == expected_end
            wal.commit([{"op": "after-crash"}])
            wal.close()
            regrown, _ = scan_wal(trimmed)
            assert len(regrown) == len(groups) + 1
            assert regrown[-1].ops == [{"op": "after-crash"}]
            os.remove(trimmed)


class TestGroupCommit:
    def test_concurrent_commits_form_ordered_recoverable_groups(self, tmp_path):
        path = wal_path(tmp_path)
        wal = MetadataWAL(path)
        threads, per_thread = 8, 50
        seqs: list = [[] for _ in range(threads)]
        barrier = threading.Barrier(threads)

        def committer(index: int) -> None:
            barrier.wait()
            for number in range(per_thread):
                seqs[index].append(
                    wal.commit([{"op": "put", "writer": index, "n": number}])
                )

        workers = [
            threading.Thread(target=committer, args=(index,)) for index in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        wal.close()

        flat = sorted(seq for batch in seqs for seq in batch)
        assert flat == list(range(1, threads * per_thread + 1))
        # Every thread sees its own commits in submission order.
        for batch in seqs:
            assert batch == sorted(batch)
        groups, valid_end = scan_wal(path)
        assert valid_end == os.path.getsize(path)
        assert [group.seq for group in groups] == flat  # file order == seq order
        recovered = {
            (record["writer"], record["n"]) for group in groups for record in group.ops
        }
        assert len(recovered) == threads * per_thread

    def test_reset_discards_content_but_keeps_counting(self, tmp_path):
        path = wal_path(tmp_path)
        wal = MetadataWAL(path)
        wal.commit([{"op": "a"}])
        wal.commit([{"op": "b"}])
        wal.reset()
        assert wal.size_bytes == 0
        assert os.path.getsize(path) == 0
        assert wal.recovered_groups() == []
        assert wal.commit([{"op": "c"}]) == 3  # sequence keeps climbing
        wal.close()
        groups, _ = scan_wal(path)
        assert [(group.seq, group.ops) for group in groups] == [(3, [{"op": "c"}])]

    def test_closed_wal_refuses_commits(self, tmp_path):
        wal = MetadataWAL(wal_path(tmp_path))
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(InvalidParametersError):
            wal.commit([{"op": "a"}])

    def test_fsync_mode_round_trips(self, tmp_path):
        path = wal_path(tmp_path)
        with MetadataWAL(path, fsync=True) as wal:
            wal.commit([{"op": "a"}])
            wal.reset()
            wal.commit([{"op": "b"}])
        groups, _ = scan_wal(path)
        assert [group.ops for group in groups] == [[{"op": "b"}]]


class TestServiceCrashSweep:
    """Truncate a live service's WAL at every frame boundary and reopen."""

    def _open(self, data_dir) -> StorageService:
        return StorageService.open(
            StorageConfig(
                scheme="ae-3-2-5",
                topology=8,
                block_size=256,
                backend="disk",
                data_dir=str(data_dir),
            )
        )

    def test_every_truncation_point_reopens_to_the_committed_prefix(self, tmp_path):
        home = tmp_path / "live"
        payloads = {}
        service = self._open(home)
        # Base state, checkpointed into manifest.json.
        for name in ("base-0", "base-1"):
            payloads[name] = name.encode() * 100
            service.put(name, payloads[name])
        service.flush()
        assert os.path.getsize(home / "wal.log") == 0
        # Tail state, only in the WAL: puts plus a delete of a base doc.
        for number in range(4):
            name = f"tail-{number}"
            payloads[name] = bytes([number + 1]) * (200 + 32 * number)
            service.put(name, payloads[name])
        service.delete("base-0")

        # Snapshot the directory while the service is still open (a crash
        # image), then sweep truncation points over the snapshot's WAL.
        image = tmp_path / "image"
        shutil.copytree(home, image)
        service.close()

        blob = open(image / "wal.log", "rb").read()
        frames = iter_frames(str(image / "wal.log"))
        assert frames, "the crash image must hold a WAL tail"
        cuts = [0] + [frame.end for frame in frames]
        cuts += [frame.end - 3 for frame in frames]  # mid-frame tears
        for cut in sorted(set(cuts)):
            trial = tmp_path / f"trial-{cut}"
            shutil.copytree(image, trial)
            with open(trial / "wal.log", "r+b") as handle:
                handle.truncate(cut)
            # What a correct recovery must see: manifest docs + committed
            # WAL groups up to the cut, replayed in order.
            expected = {name: payloads[name] for name in ("base-0", "base-1")}
            committed, _ = scan_wal(str(trial / "wal.log"))
            for group in committed:
                for record in group.ops:
                    if record.get("op") == "put_doc":
                        expected[record["name"]] = payloads[record["name"]]
                    elif record.get("op") == "delete_doc":
                        expected.pop(record["name"], None)
            reopened = self._open(trial)
            try:
                assert set(reopened.documents) == set(expected), f"cut={cut}"
                for name, payload in expected.items():
                    assert reopened.get(name) == payload, f"cut={cut} doc={name}"
                # The reopened service keeps working past the crash.
                reopened.put("post-crash", b"z" * 64)
                assert reopened.get("post-crash") == b"z" * 64
            finally:
                reopened.close()
            shutil.rmtree(trial)
        assert len(blob) == frames[-1].end  # the image's tail was clean

    def test_uncheckpointed_mutations_survive_reopen(self, tmp_path):
        home = tmp_path / "plain"
        service = self._open(home)
        service.put("doc", b"v1" * 64)
        service.put("doc", b"v2" * 64)  # overwrite in the same epoch
        wal_size = os.path.getsize(home / "wal.log")
        assert wal_size > 0
        image = tmp_path / "plain-image"
        shutil.copytree(home, image)
        service.close()
        reopened = self._open(image)
        assert reopened.get("doc") == b"v2" * 64
        reopened.close()


@pytest.mark.parametrize("scheme", ["ae-3-2-5", "rs-10-4"])
class TestSizeTriggeredCheckpoint:
    """The checkpoint a mutation takes once the log passes
    ``WAL_CHECKPOINT_BYTES``, here shrunk so it runs every few puts."""

    ROUNDS = 6
    NAMES_PER_WRITER = 3

    @pytest.fixture
    def resets(self, monkeypatch):
        """Shrinks the threshold; returns the list ``MetadataWAL.reset`` grows."""
        monkeypatch.setattr(catalogue_module, "WAL_CHECKPOINT_BYTES", 600)
        seen = []
        original = MetadataWAL.reset

        def counted(wal):
            seen.append(wal.size_bytes)
            original(wal)

        monkeypatch.setattr(MetadataWAL, "reset", counted)
        return seen

    def _config(self, scheme, data_dir) -> StorageConfig:
        return StorageConfig(
            scheme=scheme,
            topology=16,
            block_size=128,
            backend="segment",
            data_dir=str(data_dir),
        )

    def _write(self, service, writer, payloads):
        """Puts and overwrites: every name ends on its last round's bytes."""
        for round_number in range(self.ROUNDS):
            for slot in range(self.NAMES_PER_WRITER):
                name = f"w{writer}-doc{slot}"
                data = bytes([writer * 16 + round_number * 3 + slot + 1]) * (
                    300 + 50 * slot + round_number
                )
                service.put(name, data)
                payloads[name] = data

    def _crash_and_reopen(self, scheme, home, tmp_path, payloads):
        image = tmp_path / "image"
        shutil.copytree(home, image)  # the handle is dropped, never closed
        reopened = StorageService.open(self._config(scheme, image))
        try:
            assert set(reopened.documents) == set(payloads)
            for name, data in payloads.items():
                assert reopened.get(name) == data, name
            # The write position came back too: a new document lands beside
            # the old ones, not over them.
            reopened.put("post-crash", b"z" * 700)
            for name, data in payloads.items():
                assert reopened.get(name) == data, f"{name} after a new put"
        finally:
            reopened.close()

    def test_single_writer(self, scheme, tmp_path, resets):
        home = tmp_path / "live"
        service = StorageService.open(self._config(scheme, home))
        del resets[:]  # open() checkpoints once itself
        payloads = {}
        self._write(service, 0, payloads)
        assert len(resets) >= 2 and all(size >= 600 for size in resets)
        assert os.path.getsize(home / "wal.log") < 2 * 600
        self._crash_and_reopen(scheme, home, tmp_path, payloads)

    def test_front_end_writers_race_the_checkpoint(self, scheme, tmp_path, resets):
        home = tmp_path / "live"
        service = open_service(self._config(scheme, home), workers=4)
        del resets[:]
        written = [{} for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings around the checkpoint
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                writers = [
                    pool.submit(self._write, service, writer, written[writer])
                    for writer in range(4)
                ]
                for writer in writers:
                    writer.result(timeout=60)  # re-raises what a writer hit
        finally:
            sys.setswitchinterval(interval)
        payloads = {name: data for mine in written for name, data in mine.items()}
        assert len(resets) >= 2
        self._crash_and_reopen(scheme, home, tmp_path, payloads)


@pytest.mark.parametrize("scheme", ["ae-3-2-5", "rs-4-2"])
class TestACheckpointCoversEveryHandedOutCommit:
    """Regression: a mutator builds its records under the state lock and
    commits them outside it.  A checkpoint that ran in between reset the log
    under them, they landed after it, and replay restored their older scheme
    state over the manifest's newer one.  On ``ae-3-2-5`` a reopen came back
    at ``blocks_encoded`` 8 instead of 18 (``rs-4-2``: ``next_stripe`` 2
    instead of 5), its next put overwrote the second document, and a get of
    that returned wrong bytes without raising.  A checkpoint now waits until
    every record handed out before it is in the log."""

    #: Name -> bytes; ``a`` and ``e`` sit on different lock stripes of a
    #: two-worker front-end under both schemes.
    DOCUMENTS = {"a": b"\x01" * 512, "e": b"\x02" * 640, "c": b"\x03" * 300}

    @pytest.fixture
    def held(self, monkeypatch):
        """Holds the commit of the thread named ``held`` until the returned
        ``release`` event is set; ``holding`` is set once it waits."""
        holding, release = threading.Event(), threading.Event()
        original = MetadataWAL.commit

        def commit(wal, ops):
            if threading.current_thread().name == "held" and not release.is_set():
                holding.set()
                release.wait(timeout=30)
            return original(wal, ops)

        monkeypatch.setattr(MetadataWAL, "commit", commit)
        return holding, release

    @staticmethod
    def config(scheme, data_dir) -> StorageConfig:
        return StorageConfig(
            scheme=scheme, topology=8, block_size=64, backend="segment", data_dir=str(data_dir)
        )

    def race(self, service, checkpoint, held) -> None:
        """``put("a")`` held before its commit, then ``checkpoint`` on its own
        thread; ``a``'s commit is let go once the checkpoint returned or had
        half a second to."""
        holding, release = held
        writer = threading.Thread(
            target=service.put, args=("a", self.DOCUMENTS["a"]), name="held"
        )
        writer.start()
        assert holding.wait(timeout=10)
        checkpointer = threading.Thread(target=checkpoint)
        checkpointer.start()
        checkpointer.join(timeout=0.5)
        release.set()
        for thread in (writer, checkpointer):
            thread.join(timeout=30)
            assert not thread.is_alive()

    def check_the_copy(self, scheme, service, home, tmp_path) -> None:
        state = service.scheme.state()
        image = tmp_path / "image"
        shutil.copytree(home, image)
        service.close()
        reopened = StorageService.open(self.config(scheme, image))
        try:
            assert reopened.scheme.state() == state
            reopened.put("c", self.DOCUMENTS["c"])
            for name, data in self.DOCUMENTS.items():
                assert reopened.get(name) == data, name
        finally:
            reopened.close()

    def test_a_flush(self, scheme, tmp_path, held):
        home = tmp_path / "live"
        service = StorageService.open(self.config(scheme, home))

        def put_e_then_flush():
            service.put("e", self.DOCUMENTS["e"])
            service.flush()

        self.race(service, put_e_then_flush, held)
        self.check_the_copy(scheme, service, home, tmp_path)

    def test_the_automatic_checkpoint_behind_the_front_end(
        self, scheme, tmp_path, held, monkeypatch
    ):
        home = tmp_path / "live"
        service = open_service(self.config(scheme, home), workers=2)
        for number in range(8):
            service.put(f"filler-{number}", bytes([number]) * 70)
        # e's commit crosses the threshold; a's records alone, in a fresh
        # log, stay under it.
        size = os.path.getsize(home / "wal.log")
        monkeypatch.setattr(catalogue_module, "WAL_CHECKPOINT_BYTES", size + 1)
        self.race(service, lambda: service.put("e", self.DOCUMENTS["e"]), held)
        self.check_the_copy(scheme, service, home, tmp_path)
