"""Group-committed metadata write-ahead log for the storage service.

PR 4 made the service durable by rewriting the whole ``manifest.json``
after *every* mutation -- an O(catalogue) JSON dump plus (with ``fsync``)
two forced flushes per put.  Once the encoder went batched (PR 5/6) that
rewrite became the write-path bottleneck: metadata, not entanglement, was
the cost of a put.

:class:`MetadataWAL` replaces the per-mutation rewrite with an append-only
log of CRC-framed records.  Mutations append O(delta) bytes instead of
rewriting O(catalogue) JSON, and concurrent mutators *group commit*: every
committer enqueues its records, one of them (the leader) drains the queue,
writes every enqueued group and issues a single ``flush``/``fsync`` for the
whole batch.  Under N concurrent writers the per-mutation fsync cost is
amortised N ways -- the classic group-commit win from write-ahead-logging
databases.

Framing follows :class:`~repro.storage.backends.SegmentLogBackend`: a fixed
struct header (magic, frame type, body length, CRC32) followed by a JSON
body.  A *group* is a run of ``op`` frames sealed by one ``commit`` frame
carrying the group's sequence number and record count; replay only yields
groups whose commit frame checks out, so a torn tail (crash mid-batch) can
never surface a partial group.  Recovery truncates the log back to the last
committed group -- the same contract as the segment log's torn-tail scan.

The service's catalogue (:mod:`repro.system.catalogue`) checkpoints by
collapsing the log into ``manifest.json`` (atomic ``write_json``) and
calling :meth:`MetadataWAL.reset`; reopen = load the manifest + replay the
tail.  Record *content* (``put_doc`` / ``delete_doc`` / ``scheme_state`` /
``placement``) is owned by the catalogue; this module only knows framed
JSON dicts.  See ``docs/persistence.md`` for the full format and the
crash-window walkthrough.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import InvalidParametersError

#: File name of the metadata WAL inside a durable ``data_dir``.
WAL_NAME = "wal.log"

#: Per-frame header: magic, frame type, body length, CRC32 of type + body.
_FRAME_HEADER = struct.Struct("<4sBII")
_FRAME_MAGIC = b"RWL1"

#: Frame types: one metadata record / the seal of a commit group.
_FRAME_OP = 1
_FRAME_COMMIT = 2

#: Upper bound on one frame body; anything larger is treated as corruption
#: by the scanner (a real record is a few hundred bytes of JSON).
_MAX_FRAME_BYTES = 1 << 26


@dataclass
class WalFrame:
    """One decoded frame, with its byte extent (for crash-safety sweeps)."""

    frame_type: int
    record: Dict[str, object]
    start: int
    end: int


@dataclass
class WalGroup:
    """One committed group: the records of a single atomic metadata commit."""

    seq: int
    ops: List[Dict[str, object]]
    #: Byte offset just past this group's commit frame (a valid truncation
    #: point: cutting the file here keeps exactly the groups up to this one).
    end_offset: int


@dataclass
class _PendingGroup:
    """A group enqueued for commit, waited on by its submitting thread."""

    ops: Sequence[Dict[str, object]]
    seq: int
    done: bool = False
    error: Optional[BaseException] = field(default=None)


def _frame_bytes(frame_type: int, record: Dict[str, object]) -> bytes:
    body = json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")
    header = _FRAME_HEADER.pack(
        _FRAME_MAGIC, frame_type, len(body), zlib.crc32(bytes([frame_type]) + body)
    )
    return header + body


def iter_frames(path: str) -> List[WalFrame]:
    """Decode the valid frame prefix of a WAL file (stops at the first tear).

    Exposed for the crash-safety sweep in the tests: the frame extents are
    the interesting truncation points.
    """
    frames: List[WalFrame] = []
    try:
        handle: IO[bytes] = open(path, "rb")
    except FileNotFoundError:
        return frames
    with handle:
        offset = 0
        while True:
            header = handle.read(_FRAME_HEADER.size)
            if len(header) < _FRAME_HEADER.size:
                return frames
            magic, frame_type, body_len, crc = _FRAME_HEADER.unpack(header)
            if magic != _FRAME_MAGIC or body_len > _MAX_FRAME_BYTES:
                return frames
            body = handle.read(body_len)
            if len(body) < body_len:
                return frames
            if zlib.crc32(bytes([frame_type]) + body) != crc:
                return frames
            try:
                record = json.loads(body)
            except ValueError:
                return frames
            if not isinstance(record, dict):
                return frames
            end = offset + _FRAME_HEADER.size + body_len
            frames.append(WalFrame(frame_type, record, offset, end))
            offset = end


def scan_wal(path: str) -> Tuple[List[WalGroup], int]:
    """Scan a WAL file into its committed groups.

    Returns ``(groups, valid_end)`` where ``valid_end`` is the byte offset
    of the end of the last *committed* group -- everything past it (torn
    frames, op frames with no commit seal) is recovery garbage to truncate.
    Only fully sealed groups are returned: a crash anywhere inside a batch
    makes the whole group invisible, never partially visible.
    """
    groups: List[WalGroup] = []
    valid_end = 0
    pending: List[Dict[str, object]] = []
    for frame in iter_frames(path):
        if frame.frame_type == _FRAME_OP:
            pending.append(frame.record)
        elif frame.frame_type == _FRAME_COMMIT:
            count = int(frame.record.get("ops", -1))
            if count != len(pending):
                # A commit seal that does not match its op run means the
                # writer was interleaved or the file was edited; nothing
                # after this point can be trusted.
                break
            groups.append(
                WalGroup(
                    seq=int(frame.record.get("seq", 0)),
                    ops=pending,
                    end_offset=frame.end,
                )
            )
            pending = []
            valid_end = frame.end
        else:
            break
    return groups, valid_end


class MetadataWAL:
    """Append-only, group-committed metadata log with torn-tail recovery.

    Thread-safe: any number of threads may call :meth:`commit`
    concurrently; the records of one call form one atomic group.  Opening
    an existing file recovers the committed groups (exposed through
    :meth:`recovered_groups` for the service to replay) and truncates any
    torn tail in place.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self._path = path
        self._fsync = bool(fsync)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._recovered, valid_end = scan_wal(path)
        if os.path.exists(path) and os.path.getsize(path) > valid_end:
            # Torn tail: cut the log back to the last committed group so
            # appended frames always follow a clean boundary.
            with open(path, "r+b") as handle:
                handle.truncate(valid_end)
        self._handle: IO[bytes] = open(path, "ab")
        self._size = valid_end
        self._cond = threading.Condition()
        self._pending: List[_PendingGroup] = []
        self._writing = False
        self._closed = False
        self._next_seq = (self._recovered[-1].seq + 1) if self._recovered else 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        return self._path

    @property
    def size_bytes(self) -> int:
        """Committed log size (drives the service's checkpoint threshold)."""
        with self._cond:
            return self._size

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently assigned group (0 if none)."""
        with self._cond:
            return self._next_seq - 1

    def recovered_groups(self) -> List[WalGroup]:
        """The committed groups found when this WAL was opened."""
        return list(self._recovered)

    # ------------------------------------------------------------------
    # Group commit
    # ------------------------------------------------------------------
    def commit(self, ops: Sequence[Dict[str, object]]) -> int:
        """Durably append one group of records, returning its sequence number.

        Concurrent callers are batched: whichever thread finds no write in
        progress becomes the *leader*, drains every enqueued group, writes
        all their frames and issues a single ``flush`` (+ ``fsync`` when
        enabled) for the whole batch; the followers just wait on the
        condition variable.  All groups of a batch become durable together.
        """
        if not ops:
            with self._cond:
                return self._next_seq - 1
        with self._cond:
            if self._closed:
                raise InvalidParametersError(
                    f"metadata WAL {self._path!r} is closed"
                )
            group = _PendingGroup(ops=list(ops), seq=self._next_seq)
            self._next_seq += 1
            self._pending.append(group)
            while not group.done and self._writing:
                self._cond.wait()
            if group.done:
                # A previous leader carried this group in its batch.
                if group.error is not None:
                    raise group.error
                return group.seq
            # Leadership: claim the writer role and the current queue.
            self._writing = True
            batch = self._pending
            self._pending = []
            base = self._size
        error: Optional[BaseException] = None
        poisoned = False
        written = 0
        try:
            written = self._write_batch(batch)
        except BaseException as exc:  # noqa: B036,RPR004 - re-raised below; every waiter must wake
            error = exc
            # Cut any torn bytes of the failed batch so later appends do not
            # land after garbage (replay stops at the first tear, which
            # would silently hide every group written after it).
            try:
                self._handle.truncate(base)
            except OSError:
                poisoned = True
        with self._cond:
            self._writing = False
            self._size += written
            if poisoned:
                # The file may hold torn frames we could not cut; refuse
                # further commits instead of losing them silently.
                self._closed = True
            for member in batch:
                member.done = True
                member.error = error
            self._cond.notify_all()
        if error is not None:
            raise error
        return group.seq

    def _write_batch(self, batch: Sequence[_PendingGroup]) -> int:
        chunks: List[bytes] = []
        for member in batch:
            for record in member.ops:
                chunks.append(_frame_bytes(_FRAME_OP, dict(record)))
            chunks.append(
                _frame_bytes(
                    _FRAME_COMMIT, {"seq": member.seq, "ops": len(member.ops)}
                )
            )
        blob = b"".join(chunks)
        self._handle.write(blob)
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
        return len(blob)

    # ------------------------------------------------------------------
    # Checkpoint support and lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Discard the log after its content was checkpointed elsewhere.

        Waits for an in-flight batch to finish, then truncates the file to
        empty.  The group sequence keeps counting up -- replay correctness
        only needs ordering, not density.
        """
        with self._cond:
            while self._writing:
                self._cond.wait()
            if self._closed:
                return
            self._handle.flush()
            self._handle.truncate(0)
            if self._fsync:
                os.fsync(self._handle.fileno())
            self._size = 0
            self._recovered = []

    def close(self) -> None:
        """Flush and release the log file.  Idempotent."""
        with self._cond:
            while self._writing:
                self._cond.wait()
            if self._closed:
                return
            self._closed = True
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "MetadataWAL":
        return self

    def __exit__(self, exc_type: object, exc_value: object, traceback: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetadataWAL(path={self._path!r}, size={self._size})"
