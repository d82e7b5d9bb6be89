"""Pluggable storage backends: where a location's block payloads live.

A :class:`~repro.storage.block_store.BlockStore` models *one* storage
location of the paper's evaluation (a disk, a server, a peer).  Which medium
actually holds the payload bytes is delegated to a :class:`StorageBackend`,
resolved from a string spec through the registry in this module::

    from repro.storage import backends

    backend = backends.get("memory")                       # Python dict
    backend = backends.get("disk", root="/data/loc-0")     # one file per block
    backend = backends.get("segment", root="/data/loc-0")  # append-only log

Three built-in backends cover the durability spectrum:

* :class:`MemoryBackend` -- the historical behaviour: payloads in a dict,
  gone at process exit.  Zero IO cost; the default for simulations.
* :class:`DiskBackend` -- one file per block under a root directory.  Writes
  are atomic (temp file + ``os.replace``) and optionally fsynced, so a crash
  never leaves a torn block.  Reopening the root recovers every block.
* :class:`SegmentLogBackend` -- blocks appended to capped segment files with
  an in-RAM offset index, the classic log-structured layout (one sequential
  write per put, no per-block file overhead).  Deletes append tombstones;
  segments are compacted once the dead-byte ratio passes a threshold.
  Reopening rescans the segments and rebuilds the index, stopping cleanly at
  a torn tail record (crash safety).

Backends are keyed by **block identifiers** (:class:`~repro.core.blocks.DataId`,
:class:`~repro.core.blocks.ParityId`, stripe ids, ...).  Persistent backends
serialise them with :func:`encode_block_id` / :func:`decode_block_id`, which
is also what the service manifest uses, so an on-disk layout is self-describing:
listing a backend is enough to rebuild a cluster's placement directory.

New media (S3, a key-value store, ...) plug in with :func:`register`.
"""

from __future__ import annotations

import functools
import json
import mmap
import os
import struct
import zlib
from abc import ABC, abstractmethod
from typing import BinaryIO, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.blocks import DataId, ParityId
from repro.core.parameters import StrandClass
from repro.core.xor import UINT8, Payload, as_payload
from repro.exceptions import InvalidParametersError, UnknownBlockError

__all__ = [
    "DiskBackend",
    "MemoryBackend",
    "SegmentLogBackend",
    "StorageBackend",
    "available",
    "decode_block_id",
    "encode_block_id",
    "get",
    "register",
    "write_json",
]


# ----------------------------------------------------------------------
# Block-id codec
# ----------------------------------------------------------------------
@functools.cache
def stripe_block_id_type() -> type:
    """:class:`~repro.schemes.stripe.StripeBlockId`, imported on first use:
    ``repro.schemes`` sits above ``repro.storage`` in the layering."""
    from repro.schemes.stripe import StripeBlockId

    return StripeBlockId


def encode_block_id(block_id: object) -> str:
    """Serialise a block identifier to a stable, filesystem-safe string.

    ``d-<index>`` for data blocks, ``p-<index>-<class>`` for lattice
    parities, ``s-<stripe>-<position>`` for stripe blocks.  The inverse is
    :func:`decode_block_id`; persistent backends and the service manifest
    share this vocabulary.
    """
    kind = type(block_id)
    if kind is DataId:
        return f"d-{block_id.index}"
    if kind is ParityId:
        return f"p-{block_id.index}-{block_id.strand_class.value}"
    if kind is stripe_block_id_type():
        return f"s-{block_id.stripe}-{block_id.position}"
    raise InvalidParametersError(
        f"cannot serialise block id {block_id!r} of type {type(block_id).__name__}"
    )


def decode_block_id(key: str) -> object:
    """Inverse of :func:`encode_block_id`."""
    parts = key.split("-")
    try:
        if parts[0] == "d" and len(parts) == 2:
            return DataId(int(parts[1]))
        if parts[0] == "p" and len(parts) == 3:
            return ParityId(int(parts[1]), StrandClass(parts[2]))
        if parts[0] == "s" and len(parts) == 3:
            return stripe_block_id_type()(int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise InvalidParametersError(f"malformed block key {key!r}: {exc}") from exc
    raise InvalidParametersError(f"malformed block key {key!r}")


def _as_bytes_payload(payload: Payload) -> np.ndarray:
    if type(payload) is np.ndarray and payload.dtype == UINT8 and payload.ndim == 1:
        return payload
    return as_payload(payload)


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------
class StorageBackend(ABC):
    """Payload storage for one location: a (block id -> bytes) medium.

    The backend is deliberately dumb: no availability flag, no capacity, no
    counters -- those belong to :class:`~repro.storage.block_store.BlockStore`,
    which stays the single model of a *location*.  A backend only stores,
    retrieves, deletes and enumerates payloads.
    """

    #: Registry name of the backend family (``"memory"``, ``"disk"``, ...).
    name: str = "abstract"
    #: Whether payloads survive :meth:`close` + re-instantiation on the same root.
    persistent: bool = False

    @abstractmethod
    def put(self, block_id: object, payload: Payload) -> None:
        """Store (or overwrite) one payload."""

    def put_many(self, items: Iterable[Tuple[object, Payload]]) -> int:
        """Store a batch; returns the number of payloads written."""
        count = 0
        for block_id, payload in items:
            self.put(block_id, payload)
            count += 1
        return count

    @abstractmethod
    def get(self, block_id: object) -> Payload:
        """Return a stored payload; raises :class:`KeyError` when absent."""

    @abstractmethod
    def delete(self, block_id: object) -> None:
        """Remove a payload; raises :class:`KeyError` when absent."""

    @abstractmethod
    def clear(self) -> None:
        """Drop every payload (the destructive ``wipe`` of a location)."""

    @abstractmethod
    def scan(self) -> Iterator[Tuple[object, int]]:
        """Yield ``(block_id, payload_size)`` for every stored block.

        Used once at open time to rebuild the location index (and, one level
        up, the cluster's placement directory) from pre-existing data.
        """

    def flush(self) -> None:
        """Push buffered writes to the medium."""

    def close(self) -> None:
        """Release file handles; the backend must not be used afterwards."""


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
class MemoryBackend(StorageBackend):
    """The historical in-process behaviour: payloads in a Python dict."""

    name = "memory"
    persistent = False

    def __init__(self, root: Optional[str] = None) -> None:
        # ``root`` is accepted (and ignored) so every backend shares one
        # factory signature.
        self._payloads: Dict[object, Payload] = {}

    def put(self, block_id: object, payload: Payload) -> None:
        self._payloads[block_id] = _as_bytes_payload(payload)

    def put_many(self, items: Iterable[Tuple[object, Payload]]) -> int:
        payloads = self._payloads
        count = 0
        for block_id, payload in items:
            # :func:`_as_bytes_payload`, spelled out: once per stored block.
            payloads[block_id] = (
                payload
                if type(payload) is np.ndarray
                and payload.dtype == UINT8
                and payload.ndim == 1
                else as_payload(payload)
            )
            count += 1
        return count

    def get(self, block_id: object) -> Payload:
        return self._payloads[block_id]

    def delete(self, block_id: object) -> None:
        del self._payloads[block_id]

    def clear(self) -> None:
        self._payloads.clear()

    def scan(self) -> Iterator[Tuple[object, int]]:
        for block_id, payload in self._payloads.items():
            yield block_id, int(payload.size)


# ----------------------------------------------------------------------
# Disk: one file per block
# ----------------------------------------------------------------------
class DiskBackend(StorageBackend):
    """One file per block under ``<root>/blocks/``.

    Writes go to a temp file in the same directory and are published with
    ``os.replace``, so a reader (or a reopen after a crash) never observes a
    torn block: either the old payload, the new payload, or nothing.  With
    ``fsync=True`` the file is fsynced before the rename, trading write
    latency for power-loss durability.
    """

    name = "disk"
    persistent = True

    def __init__(self, root: str, fsync: bool = False) -> None:
        if not root:
            raise InvalidParametersError("the disk backend needs a root directory")
        self._root = root
        self._blocks_dir = os.path.join(root, "blocks")
        self._fsync = bool(fsync)
        os.makedirs(self._blocks_dir, exist_ok=True)

    @property
    def root(self) -> str:
        return self._root

    def _path(self, block_id: object) -> str:
        return os.path.join(self._blocks_dir, encode_block_id(block_id))

    def put(self, block_id: object, payload: Payload) -> None:
        data = _as_bytes_payload(payload)
        path = self._path(block_id)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data.tobytes())
            if self._fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if self._fsync:
            # The rename itself must reach the disk, not just the file data.
            _fsync_dir(self._blocks_dir)

    def get(self, block_id: object) -> Payload:
        try:
            with open(self._path(block_id), "rb") as handle:
                return np.frombuffer(handle.read(), dtype=np.uint8)
        except FileNotFoundError:
            raise KeyError(block_id) from None

    def delete(self, block_id: object) -> None:
        try:
            os.remove(self._path(block_id))
        except FileNotFoundError:
            raise KeyError(block_id) from None

    def clear(self) -> None:
        # Materialise the listing first: unlinking while a scandir iterator
        # is live is unspecified and can skip entries on some filesystems.
        for entry in list(os.scandir(self._blocks_dir)):
            os.remove(entry.path)

    def scan(self) -> Iterator[Tuple[object, int]]:
        for entry in sorted(os.scandir(self._blocks_dir), key=lambda e: e.name):
            if entry.name.endswith(".tmp"):
                # A write that never committed; drop the orphan.
                os.remove(entry.path)
                continue
            yield decode_block_id(entry.name), entry.stat().st_size


# ----------------------------------------------------------------------
# Segment log
# ----------------------------------------------------------------------
#: Per-record header: magic, key length, payload length (-1 = tombstone),
#: CRC32 of key + payload bytes.
_RECORD_HEADER = struct.Struct("<4sIiI")
_RECORD_MAGIC = b"RSG1"

#: Default cap on one segment file (1 MiB keeps tests fast; production roots
#: would use tens or hundreds of MiB).
DEFAULT_SEGMENT_BYTES = 1 << 20


class SegmentLogBackend(StorageBackend):
    """Append-only segment files with an in-RAM offset index.

    Every ``put`` appends one record (header + key + payload) to the active
    segment; when the active segment passes ``segment_bytes`` it is sealed
    and a new one is started.  ``delete`` appends a tombstone.  The index
    maps each live block id to ``(segment, offset, length)``, so a read is
    one ``seek`` + one ``read``.

    Reopening the root rescans the segments in order and rebuilds the index.
    The scan validates each record's magic and CRC and stops at the first
    torn record of the final segment, truncating the garbage tail -- exactly
    the state after a crash mid-append: every fully written block survives,
    the half-written one is discarded.

    Deleted and overwritten records leave dead bytes behind; once they exceed
    ``compact_ratio`` of the log, :meth:`compact` rewrites live records into
    fresh segments and removes the old files.
    """

    name = "segment"
    persistent = True

    def __init__(
        self,
        root: str,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        compact_ratio: float = 0.5,
        fsync: bool = False,
        auto_compact: bool = True,
    ) -> None:
        if not root:
            raise InvalidParametersError("the segment backend needs a root directory")
        if segment_bytes < _RECORD_HEADER.size + 1:
            raise InvalidParametersError("segment_bytes is too small for one record")
        self._root = root
        self._dir = os.path.join(root, "segments")
        self._segment_bytes = int(segment_bytes)
        self._compact_ratio = float(compact_ratio)
        self._fsync = bool(fsync)
        self._auto_compact = bool(auto_compact)
        os.makedirs(self._dir, exist_ok=True)
        #: block id -> (segment index, payload offset, payload length)
        self._index: Dict[object, Tuple[int, int, int]] = {}
        self._readers: Dict[int, object] = {}
        #: segment index -> (read-only mmap, mapped size); reads are served
        #: as zero-copy numpy views over these maps.
        self._maps: Dict[int, Tuple[mmap.mmap, int]] = {}
        self._live_bytes = 0
        self._total_bytes = 0
        self._active = -1
        self._writer = None
        self._recover()

    # -- open / recovery ------------------------------------------------
    def _segment_path(self, segment: int) -> str:
        return os.path.join(self._dir, f"seg-{segment:08d}.log")

    def _segments_on_disk(self) -> List[int]:
        numbers = []
        for entry in os.scandir(self._dir):
            if entry.name.startswith("seg-") and entry.name.endswith(".log"):
                numbers.append(int(entry.name[4:-4]))
        return sorted(numbers)

    def _recover(self) -> None:
        """Rebuild the index by scanning every segment (crash-safe reopen)."""
        segments = self._segments_on_disk()
        for position, segment in enumerate(segments):
            valid_end = self._scan_segment(segment)
            if position == len(segments) - 1 and valid_end is not None:
                # Torn tail record after a crash: drop the garbage so future
                # appends produce a log that rescans cleanly.
                with open(self._segment_path(segment), "r+b") as handle:
                    handle.truncate(valid_end)
        self._active = segments[-1] if segments else 0
        self._open_writer()
        self._total_bytes = sum(
            os.path.getsize(self._segment_path(segment)) for segment in segments
        )

    def _scan_segment(self, segment: int) -> Optional[int]:
        """Index one segment; returns the truncation offset on a torn tail."""
        path = self._segment_path(segment)
        with open(path, "rb") as handle:
            offset = 0
            while True:
                header = handle.read(_RECORD_HEADER.size)
                if not header:
                    return None
                if len(header) < _RECORD_HEADER.size:
                    return offset
                magic, key_len, payload_len, crc = _RECORD_HEADER.unpack(header)
                if magic != _RECORD_MAGIC:
                    return offset
                tombstone = payload_len < 0
                body_len = key_len + (0 if tombstone else payload_len)
                body = handle.read(body_len)
                if len(body) < body_len:
                    return offset
                if zlib.crc32(body) != crc:
                    return offset
                key = body[:key_len].decode("ascii")
                block_id = decode_block_id(key)
                record_len = _RECORD_HEADER.size + body_len
                if tombstone:
                    previous = self._index.pop(block_id, None)
                    if previous is not None:
                        self._live_bytes -= previous[2]
                else:
                    previous = self._index.get(block_id)
                    if previous is not None:
                        self._live_bytes -= previous[2]
                    payload_offset = offset + _RECORD_HEADER.size + key_len
                    self._index[block_id] = (segment, payload_offset, payload_len)
                    self._live_bytes += payload_len
                offset += record_len

    def _open_writer(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._writer = open(self._segment_path(self._active), "ab")

    def _reader(self, segment: int) -> BinaryIO:
        handle = self._readers.get(segment)
        if handle is None:
            handle = open(self._segment_path(segment), "rb")
            self._readers[segment] = handle
        return handle

    # -- write path -----------------------------------------------------
    def _append(self, block_id: object, payload: Optional[np.ndarray]) -> None:
        key = encode_block_id(block_id).encode("ascii")
        body = key + (payload.tobytes() if payload is not None else b"")
        payload_len = int(payload.size) if payload is not None else -1
        header = _RECORD_HEADER.pack(
            _RECORD_MAGIC, len(key), payload_len, zlib.crc32(body)
        )
        writer = self._writer
        offset = writer.tell()
        writer.write(header)
        writer.write(body)
        record_len = len(header) + len(body)
        self._total_bytes += record_len
        if payload is not None:
            previous = self._index.get(block_id)
            if previous is not None:
                self._live_bytes -= previous[2]
            self._index[block_id] = (
                self._active,
                offset + len(header) + len(key),
                payload_len,
            )
            self._live_bytes += payload_len
        if offset + record_len >= self._segment_bytes:
            self._roll()

    def _roll(self) -> None:
        self.flush()
        self._active += 1
        self._open_writer()
        if self._fsync:
            _fsync_dir(self._dir)  # persist the new segment's directory entry

    def put(self, block_id: object, payload: Payload) -> None:
        data = _as_bytes_payload(payload)
        self._append(block_id, data)
        self.flush()
        self._maybe_compact()

    def put_many(self, items: Iterable[Tuple[object, Payload]]) -> int:
        count = 0
        for block_id, payload in items:
            self._append(block_id, _as_bytes_payload(payload))
            count += 1
        self.flush()
        self._maybe_compact()
        return count

    def delete(self, block_id: object) -> None:
        previous = self._index.get(block_id)
        if previous is None:
            raise KeyError(block_id)
        self._append(block_id, None)
        self._index.pop(block_id, None)
        self._live_bytes -= previous[2]
        self.flush()
        self._maybe_compact()

    def clear(self) -> None:
        for handle in self._readers.values():
            handle.close()
        self._readers.clear()
        # Maps are dropped, not closed: live zero-copy views may still
        # reference them.  Unlinking a mapped file is safe on POSIX.
        self._maps = {}
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        for segment in self._segments_on_disk():
            os.remove(self._segment_path(segment))
        self._index.clear()
        self._live_bytes = 0
        self._total_bytes = 0
        self._active = 0
        self._open_writer()

    # -- read path ------------------------------------------------------
    def _mapped(self, segment: int, end_needed: int) -> Optional[mmap.mmap]:
        """A read-only memory map of the segment covering ``end_needed`` bytes.

        The active segment keeps growing, so its map is re-created whenever a
        requested record lies beyond the mapped size.  A superseded map is
        *dropped*, never closed: numpy views handed out by :meth:`get` may
        still reference its buffer (``mmap.close`` with live exports raises
        ``BufferError``); the map is unmapped when the last view dies.
        """
        entry = self._maps.get(segment)
        if entry is not None and entry[1] >= end_needed:
            return entry[0]
        if segment == self._active:
            # The active segment's appends may still sit in the writer buffer.
            self._writer.flush()
        path = self._segment_path(segment)
        try:
            size = os.path.getsize(path)
        except OSError:
            return None
        if size == 0 or size < end_needed:
            return None
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self._maps[segment] = (mapped, size)
        return mapped

    def get(self, block_id: object) -> Payload:
        entry = self._index.get(block_id)
        if entry is None:
            raise KeyError(block_id)
        segment, offset, length = entry
        mapped = self._mapped(segment, offset + length)
        if mapped is not None:
            # Zero-copy: a read-only uint8 view straight over the mapped
            # segment -- the payload reaches the XOR kernels without an
            # intermediate copy (repair kernels gather into fresh matrices
            # and never write into their sources).
            return np.frombuffer(mapped, dtype=np.uint8, count=length, offset=offset)
        if segment == self._active:
            # The active segment's appends may still sit in the writer buffer.
            self._writer.flush()
        handle = self._reader(segment)
        handle.seek(offset)
        return np.frombuffer(handle.read(length), dtype=np.uint8)

    def scan(self) -> Iterator[Tuple[object, int]]:
        for block_id, (_, _, length) in self._index.items():
            yield block_id, length

    # -- compaction -----------------------------------------------------
    @property
    def dead_bytes(self) -> int:
        """Bytes held by deleted or overwritten records (reclaimed by compaction)."""
        return max(0, self._total_bytes - self._live_bytes - self._overhead_bytes())

    def _overhead_bytes(self) -> int:
        # Header + key bytes of the live records (an estimate: keys are short).
        return len(self._index) * (_RECORD_HEADER.size + 8)

    @property
    def segment_count(self) -> int:
        return len(self._segments_on_disk())

    def _maybe_compact(self) -> None:
        if not self._auto_compact or self._total_bytes == 0:
            return
        # dead_bytes excludes the live records' header/key overhead, which
        # compaction cannot reduce -- comparing raw total-live would retrigger
        # a full-log rewrite on every put for small blocks.
        if self.dead_bytes > self._compact_ratio * self._total_bytes:
            self.compact()

    def compact(self) -> None:
        """Rewrite live records into fresh segments and drop the old files.

        Live payloads are streamed one record at a time from the old
        segments into the new log (never materialised together), so
        compaction of an arbitrarily large location runs in constant memory.
        A crash mid-compact is safe: the rescan on reopen replays segments
        in order, so the new (higher-numbered) records win and leftover old
        segments are merely re-compacted later.
        """
        self.flush()
        old_segments = self._segments_on_disk()
        entries = list(self._index.items())  # metadata only, not payloads
        self._writer.close()
        self._active = (old_segments[-1] + 1) if old_segments else 0
        self._open_writer()
        self._index = {}
        self._live_bytes = 0
        self._total_bytes = 0
        for block_id, (segment, offset, length) in entries:
            handle = self._reader(segment)
            handle.seek(offset)
            payload = np.frombuffer(handle.read(length), dtype=np.uint8)
            self._append(block_id, payload)
        self.flush()
        for handle in self._readers.values():
            handle.close()
        self._readers.clear()
        self._maps = {}  # dropped, not closed: views may outlive compaction
        for segment in old_segments:
            os.remove(self._segment_path(segment))

    # -- lifecycle ------------------------------------------------------
    def flush(self) -> None:
        if self._writer is not None:
            self._writer.flush()
            if self._fsync:
                os.fsync(self._writer.fileno())

    def close(self) -> None:
        self.flush()
        for handle in self._readers.values():
            handle.close()
        self._readers.clear()
        self._maps = {}  # dropped, not closed: callers may hold live views
        if self._writer is not None:
            self._writer.close()
            self._writer = None


# ----------------------------------------------------------------------
# Atomic JSON publication (the service manifest in
# :mod:`repro.system.service`, the federation manifest)
# ----------------------------------------------------------------------
def _fsync_dir(path: str) -> None:
    """fsync a directory so a just-published rename survives power loss."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_json(path: str, payload: Dict[str, object], fsync: bool = False) -> None:
    """Atomically publish a JSON document (temp file + ``os.replace``).

    With ``fsync=True`` the temp file is flushed to stable storage before
    the rename and the containing directory is fsynced after it, so a power
    loss can neither truncate the document nor lose the rename.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(os.path.dirname(path) or ".")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: A factory builds a backend from ``(root, options)``.
BackendFactory = Callable[..., StorageBackend]

_BACKENDS: Dict[str, BackendFactory] = {}


def register(name: str, factory: BackendFactory) -> None:
    """Register a backend family under ``name`` (used by ``--backend``)."""
    _BACKENDS[name.lower()] = factory


def available() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def get(spec: str, root: Optional[str] = None, **options: object) -> StorageBackend:
    """Resolve a backend spec to a fresh backend instance.

    ``spec`` is a registered name (``"memory"``, ``"disk"``, ``"segment"``).
    Persistent backends require ``root``; the memory backend ignores it.
    Extra keyword options are forwarded to the factory (``fsync=True``,
    ``segment_bytes=...``, ...).
    """
    name = spec.strip().lower()
    if name not in _BACKENDS:
        raise InvalidParametersError(
            f"unknown storage backend {spec!r}; available: " + ", ".join(available())
        )
    try:
        return _BACKENDS[name](root=root, **options)
    except TypeError as exc:
        raise InvalidParametersError(
            f"cannot build storage backend {spec!r}: {exc}"
        ) from exc


def _check_options(name: str, options: Dict[str, object], allowed: set) -> None:
    """Reject misspelled/unsupported factory options instead of dropping them."""
    unknown = set(options) - allowed
    if unknown:
        raise InvalidParametersError(
            f"unknown option(s) for backend {name!r}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed) or 'none'}"
        )


def _memory_factory(root: Optional[str] = None, **options: object) -> StorageBackend:
    # ``fsync`` is accepted (and meaningless) so one config can name any
    # backend without tailoring its options.
    _check_options("memory", options, {"fsync"})
    return MemoryBackend()


def _disk_factory(root: Optional[str] = None, **options: object) -> StorageBackend:
    _check_options("disk", options, {"fsync"})
    if root is None:
        raise InvalidParametersError(
            "the 'disk' backend needs a root directory (data_dir / --data-dir)"
        )
    return DiskBackend(root, fsync=bool(options.get("fsync", False)))


def _segment_factory(root: Optional[str] = None, **options: object) -> StorageBackend:
    _check_options(
        "segment", options, {"segment_bytes", "compact_ratio", "fsync", "auto_compact"}
    )
    if root is None:
        raise InvalidParametersError(
            "the 'segment' backend needs a root directory (data_dir / --data-dir)"
        )
    return SegmentLogBackend(root, **options)


register("memory", _memory_factory)
register("disk", _disk_factory)
register("segment", _segment_factory)
