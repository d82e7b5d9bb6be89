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
  write per block, no per-block file overhead).  A batch of deletes appends
  one run of tombstones; the log is compacted once its dead bytes pass a
  ratio and fill a segment.  Every close leaves an index record that the
  next open adopts; after a kill it rescans the segments instead, dropping
  rotten records and truncating a torn tail (crash safety).

Backends are keyed by **block identifiers** (:class:`~repro.core.blocks.DataId`,
:class:`~repro.core.blocks.ParityId`, stripe ids, ...).  Persistent backends
serialise them with :func:`encode_block_id` / :func:`decode_block_id`, which
is also what the service manifest uses, so an on-disk layout is self-describing:
listing a backend is enough to rebuild a cluster's placement directory.

New media (S3, a key-value store, ...) plug in with :func:`register`.
"""

from __future__ import annotations

import functools
import itertools
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
from repro.exceptions import InvalidParametersError

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


_STRAND_CLASSES: Dict[str, StrandClass] = {member.value: member for member in StrandClass}


def decode_block_id(key: str) -> object:
    """Inverse of :func:`encode_block_id`, and strict: every number must be
    spelled as it writes them -- ASCII digits, no leading zero -- so a name
    like ``d-01``, ``d-+1`` or ``d- 1`` raises :class:`InvalidParametersError`
    instead of aliasing ``d-1``.  Ids are built with ``tuple.__new__``, as
    :func:`~repro.core.blocks.data_ids_for` does: a reopen decodes one key
    per stored block."""
    kind, _, rest = key.partition("-")
    first, dash, second = rest.partition("-")
    if key.isascii() and first.isdigit() and (first[0] != "0" or first == "0"):
        if kind == "d":
            if not dash:
                return tuple.__new__(DataId, (int(first),))
        elif kind == "p":
            strand_class = _STRAND_CLASSES.get(second)
            if strand_class is not None:
                return tuple.__new__(ParityId, (int(first), strand_class))
        elif kind == "s":
            if second.isdigit() and (second[0] != "0" or second == "0"):
                return tuple.__new__(stripe_block_id_type(), (int(first), int(second)))
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
    def put_many(self, items: Iterable[Tuple[object, Payload]]) -> int:
        """Store (or overwrite) a batch; returns the number of payloads written."""

    @abstractmethod
    def get(self, block_id: object) -> Payload:
        """Return a stored payload; raises :class:`KeyError` when absent."""

    @abstractmethod
    def delete_many(self, block_ids: Iterable[object]) -> int:
        """Remove the stored payloads among ``block_ids`` as one batch.

        Absent ids are skipped; returns the number of payloads removed.
        """

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

    def delete_many(self, block_ids: Iterable[object]) -> int:
        payloads = self._payloads
        count = 0
        for block_id in block_ids:
            if payloads.pop(block_id, None) is not None:
                count += 1
        return count

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

    def put_many(self, items: Iterable[Tuple[object, Payload]]) -> int:
        count = 0
        for block_id, payload in items:
            path = self._path(block_id)
            tmp = path + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(_as_bytes_payload(payload).tobytes())
                if self._fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
            if self._fsync:
                # The rename itself must reach the disk, not just the file data.
                _fsync_dir(self._blocks_dir)
            count += 1
        return count

    def get(self, block_id: object) -> Payload:
        try:
            with open(self._path(block_id), "rb") as handle:
                return np.frombuffer(handle.read(), dtype=np.uint8)
        except FileNotFoundError:
            raise KeyError(block_id) from None

    def delete_many(self, block_ids: Iterable[object]) -> int:
        count = 0
        for block_id in block_ids:
            try:
                os.remove(self._path(block_id))
            except FileNotFoundError:
                continue
            count += 1
        return count

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

#: Every segment the backend starts opens with a nonce record: an empty key
#: and a random payload.  An index record repeats its segment's nonce under
#: its CRC, so the tail of a stored payload can never pass for an index (a
#: payload cannot know the nonce).
_NONCE_BYTES = 16
_NONCE_RECORD_BYTES = _RECORD_HEADER.size + _NONCE_BYTES

#: The index record :meth:`SegmentLogBackend.close` appends is an ordinary
#: record with an empty key.  Its payload is a head, the sealed segments'
#: sizes, one entry per live record (the in-RAM index value: a record's key
#: is read back from the record itself) and a trailer that ends the file, so
#: open finds the record from EOF.
_INDEX_HEAD = struct.Struct(f"<{_NONCE_BYTES}sII")  # nonce, sealed segments, live entries
_INDEX_SEGMENT = struct.Struct("<IQ")  # segment number, size in bytes
_INDEX_ENTRY = struct.Struct("<IQIH")  # segment, payload offset and length, key length
_INDEX_TRAILER = struct.Struct("<Q4s")  # index record length, magic
_INDEX_MAGIC = b"RSGX"
_INDEX_MIN_BYTES = _RECORD_HEADER.size + _INDEX_HEAD.size + _INDEX_TRAILER.size


def _record_bytes(entry: Tuple[int, int, int, int]) -> int:
    """Header + key + payload bytes of the record an index entry names."""
    return _RECORD_HEADER.size + entry[3] + entry[2]


def _nonce_record(nonce: bytes) -> bytes:
    return _RECORD_HEADER.pack(_RECORD_MAGIC, 0, len(nonce), zlib.crc32(nonce)) + nonce


def _read_nonce(head: bytes) -> Optional[bytes]:
    """The nonce a segment's first bytes hold; ``None`` for a segment that
    does not open with an intact nonce record (an older format, or rot)."""
    nonce = bytes(head[_RECORD_HEADER.size : _NONCE_RECORD_BYTES])
    if len(nonce) == _NONCE_BYTES and head[:_NONCE_RECORD_BYTES] == _nonce_record(nonce):
        return nonce
    return None


def _chains_to_end(data, view: memoryview, offset: int, size: int) -> bool:
    """Whether the records from ``offset`` on pass their frame and CRC
    checks and end exactly at ``size``."""
    header_size = _RECORD_HEADER.size
    while offset < size:
        if offset + header_size > size:
            return False
        magic, key_len, payload_len, crc = _RECORD_HEADER.unpack_from(data, offset)
        end = offset + header_size + key_len + max(payload_len, 0)
        if (
            magic != _RECORD_MAGIC
            or end > size
            or zlib.crc32(view[offset + header_size : end]) != crc
        ):
            return False
        offset = end
    return True


def _resync(data, view: memoryview, offset: int, size: int) -> int:
    """The first record magic after ``offset`` from which the rest of the
    segment chains cleanly; ``size`` when there is none.  A payload may hold
    the magic, or a whole record, so a lone match is never taken as framing."""
    candidate = data.find(_RECORD_MAGIC, offset + 1)
    while candidate >= 0:
        if _chains_to_end(data, view, candidate, size):
            return candidate
        candidate = data.find(_RECORD_MAGIC, candidate + 1)
    return size


#: Default cap on one segment file (1 MiB keeps tests fast; production roots
#: would use tens or hundreds of MiB).
DEFAULT_SEGMENT_BYTES = 1 << 20


class SegmentLogBackend(StorageBackend):
    """Append-only segment files with an in-RAM offset index.

    Four record kinds share one frame -- header (magic, key length, payload
    length, CRC32 of key + payload) + key + payload:

    * a **nonce** record (empty key, random payload) opens every segment;
    * a **block** record per stored payload;
    * a **tombstone** (payload length -1) per deleted block; a batch of
      deletes is one run of tombstones, one flush and one compaction check;
    * an **index** record (empty key) that :meth:`close` appends unless the
      log already ends in one: its segment's nonce, where each live record
      lies and the sealed segments' sizes, ended by a fixed trailer.

    Each stored payload appends one record to the active segment, which is
    sealed for a new one once it passes ``segment_bytes``.
    The index maps each live block id to ``(segment, payload offset, payload
    length, key length)``, so a read is one view over a memory-mapped
    segment.

    Reopening trusts an index record only when it is the last thing in the
    log, it carries the final segment's nonce, its CRC and the segment sizes
    match and every live record it names passes the record checks, so a
    clean reopen costs one checked read and one key decode per live block.
    Anything else (a kill, a torn tail, rot) means a scan of every segment
    in order.  The scan skips nonce and index records, drops a record that
    fails its checks but is followed by a valid one (bit rot: the block
    reads as missing and the scheme repairs it), and truncates only a bad
    tail of the final segment -- the state after a crash mid-append: every
    fully written block survives, the half-written one is discarded.

    Deleted and overwritten records, tombstones, nonce and index records are
    dead bytes; once they exceed ``compact_ratio`` of the log *and* fill one
    ``segment_bytes``, :meth:`compact` rewrites the live records into fresh
    segments and removes the old files.  After every write the dead bytes
    are therefore at most ``max(compact_ratio x log, segment_bytes)``.
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
        #: block id -> (segment index, payload offset, payload length, key
        #: length): where the live record lies, header + key + payload.
        self._index: Dict[object, Tuple[int, int, int, int]] = {}
        self._readers: Dict[int, object] = {}
        #: segment index -> (read-only mmap, mapped size); reads are served
        #: as zero-copy numpy views over these maps.
        self._maps: Dict[int, Tuple[mmap.mmap, int]] = {}
        #: Header + key + payload bytes of the live records; every other byte
        #: of the log is dead.
        self._live_bytes = 0
        self._total_bytes = 0
        #: Whether the log ends in an index record describing its state.
        self._tail_is_index = False
        self._active = -1
        #: The active segment's nonce; ``None`` when it has none (a segment
        #: of an older format), and then no index record is written to it.
        self._nonce: Optional[bytes] = None
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
        """Rebuild the index: from the close-time index record when it can be
        trusted, else by scanning every segment (crash-safe reopen).  Either
        way the final segment's nonce is read on the way."""
        segments = self._segments_on_disk()
        if not self._adopt_index(segments):
            for position, segment in enumerate(segments):
                self._scan_segment(segment, final=position == len(segments) - 1)
        self._active = segments[-1] if segments else 0
        self._total_bytes = sum(
            os.path.getsize(self._segment_path(segment)) for segment in segments
        )
        self._open_writer()

    def _map_segment(self, segment: int) -> Optional[mmap.mmap]:
        """A read-only map of a whole segment (memory stays bounded for any
        segment size); ``None`` for an empty file."""
        with open(self._segment_path(segment), "rb") as handle:
            if not os.fstat(handle.fileno()).st_size:
                return None
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)

    def _adopt_index(self, segments: List[int]) -> bool:
        """Load the index record that ends the log, if it can be trusted.

        It must be the last thing in the final segment with a valid CRC and
        that segment's nonce, the sealed segments on disk must be exactly the
        ones it lists at the sizes it lists, and every live record it names
        must pass the checks the scan applies (magic, key, length, CRC),
        read through one map per segment.  ``False`` means: scan.
        """
        if not segments:
            return False
        final = segments[-1]
        data = self._map_segment(final)
        if data is None:
            return False
        header_size = _RECORD_HEADER.size
        unpack = _RECORD_HEADER.unpack_from
        maps = {final: data}
        try:
            size = len(data)
            if size < _NONCE_RECORD_BYTES + _INDEX_MIN_BYTES:
                return False
            self._nonce = _read_nonce(data[:_NONCE_RECORD_BYTES])
            record_len, magic = _INDEX_TRAILER.unpack_from(data, size - _INDEX_TRAILER.size)
            if (
                self._nonce is None
                or magic != _INDEX_MAGIC
                or not _INDEX_MIN_BYTES <= record_len <= size - _NONCE_RECORD_BYTES
            ):
                return False
            record = data[size - record_len :]
            magic, key_len, payload_len, crc = unpack(record)
            if (
                magic != _RECORD_MAGIC
                or key_len
                or payload_len != record_len - header_size
                or zlib.crc32(memoryview(record)[header_size:]) != crc
            ):
                return False
            nonce, sealed_count, entry_count = _INDEX_HEAD.unpack_from(record, header_size)
            if nonce != self._nonce:
                return False
            sealed_at = header_size + _INDEX_HEAD.size
            entries_at = sealed_at + sealed_count * _INDEX_SEGMENT.size
            entries_end = record_len - _INDEX_TRAILER.size
            if entries_at + entry_count * _INDEX_ENTRY.size != entries_end:
                return False
            sizes = dict(_INDEX_SEGMENT.iter_unpack(record[sealed_at:entries_at]))
            if list(sizes) != segments[:-1] or any(
                os.path.getsize(self._segment_path(segment)) != expected
                for segment, expected in sizes.items()
            ):
                return False
            sizes[final] = size - record_len
            index: Dict[object, Tuple[int, int, int, int]] = {}
            live = 0
            for entry in _INDEX_ENTRY.iter_unpack(record[entries_at:entries_end]):
                segment, offset, length, key_len = entry
                start = offset - header_size - key_len
                end = offset + length
                if not key_len or start < 0 or end > sizes.get(segment, -1):
                    return False
                mapped = maps.get(segment)
                if mapped is None:
                    mapped = self._map_segment(segment)
                    if mapped is None:
                        return False
                    maps[segment] = mapped
                key_at = start + header_size
                if unpack(mapped, start) != (
                    _RECORD_MAGIC,
                    key_len,
                    length,
                    zlib.crc32(mapped[key_at:end]),
                ):
                    return False
                index[decode_block_id(mapped[key_at:offset].decode("ascii"))] = entry
                live += end - start
        finally:
            for mapped in maps.values():
                mapped.close()
        self._index = index
        self._live_bytes = live
        self._tail_is_index = True
        return True

    def _scan_segment(self, segment: int, final: bool) -> None:
        """Index one segment's records, in order.

        A damaged stretch is skipped: a record whose frame holds but whose
        CRC fails is stepped over by its length, bytes that do not frame as
        a record by resynchronising where the rest of the segment frames
        cleanly (:func:`_resync`).  Followed by a valid record, or at the end
        of a sealed segment (fully written before it rolled), it is rot: the
        blocks its intact frames name are dropped from the index, so they
        read as missing and the scheme repairs them.  At the end of the final
        segment it is a torn tail and is truncated, leaving the blocks' older
        records live; so is a header there whose record runs past the end (a
        crash mid-append: what follows it is its payload, never framing).
        """
        data = self._map_segment(segment)
        if data is None:
            return
        size = len(data)
        if final:
            self._nonce = _read_nonce(data[:_NONCE_RECORD_BYTES])
        index = self._index
        header_size = _RECORD_HEADER.size
        unpack = _RECORD_HEADER.unpack_from
        live = 0
        offset = 0
        damaged = -1  # start of a damaged stretch no valid record followed yet
        rotten: List[bytes] = []  # keys named by that stretch's intact frames
        with data, memoryview(data) as view:
            while offset < size:
                end = -1
                if offset + header_size <= size:
                    magic, key_len, payload_len, crc = unpack(data, offset)
                    end = offset + header_size + key_len + max(payload_len, 0)
                    if magic != _RECORD_MAGIC:
                        end = -1
                    elif end > size:
                        if final:  # a torn append: the rest is its payload
                            if damaged < 0:
                                damaged = offset
                            break
                        end = -1
                key_at = offset + header_size
                if end < 0 or zlib.crc32(view[key_at:end]) != crc:
                    if damaged < 0:
                        damaged = offset
                    if end >= 0:  # the frame holds: step over the rotten record
                        rotten.append(data[key_at : key_at + key_len])
                        offset = end
                    else:
                        offset = _resync(data, view, offset, size)
                    continue
                if damaged >= 0:
                    live -= self._erase(rotten)
                    damaged, rotten = -1, []
                if key_len:  # an empty key is a nonce or index record: dead bytes
                    key = data[key_at : key_at + key_len].decode("ascii")
                    block_id = decode_block_id(key)
                    if payload_len < 0:
                        previous = index.pop(block_id, None)
                    else:
                        previous = index.get(block_id)
                        index[block_id] = (segment, key_at + key_len, payload_len, key_len)
                        live += end - offset
                    if previous is not None:
                        live -= _record_bytes(previous)
                offset = end
        if damaged >= 0:
            if final:
                with open(self._segment_path(segment), "r+b") as handle:
                    handle.truncate(damaged)
            else:
                live -= self._erase(rotten)
        self._live_bytes += live

    def _erase(self, keys: List[bytes]) -> int:
        """Drop the blocks rotten records name from the index (keys that no
        longer decode name nothing); returns the live bytes dropped."""
        dropped = 0
        for key in keys:
            try:
                block_id = decode_block_id(key.decode("ascii"))
            except (UnicodeDecodeError, InvalidParametersError):
                continue
            previous = self._index.pop(block_id, None)
            if previous is not None:
                dropped += _record_bytes(previous)
        return dropped

    def _open_writer(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._writer = open(self._segment_path(self._active), "ab")
        if not self._writer.tell():  # a new segment opens with a fresh nonce
            self._nonce = os.urandom(_NONCE_BYTES)
            self._writer.write(_nonce_record(self._nonce))
            self._total_bytes += _NONCE_RECORD_BYTES

    def _reader(self, segment: int) -> BinaryIO:
        handle = self._readers.get(segment)
        if handle is None:
            handle = open(self._segment_path(segment), "rb")
            self._readers[segment] = handle
        return handle

    # -- write path -----------------------------------------------------
    def _append(self, block_id: object, payload: Optional[np.ndarray]) -> None:
        """Append a block record, or a tombstone when ``payload`` is None."""
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
        self._tail_is_index = False
        if payload is not None:
            previous = self._index.get(block_id)
            self._index[block_id] = (
                self._active,
                offset + len(header) + len(key),
                payload_len,
                len(key),
            )
            self._live_bytes += record_len
        else:
            previous = self._index.pop(block_id, None)
        if previous is not None:
            self._live_bytes -= _record_bytes(previous)
        if offset + record_len >= self._segment_bytes:
            self._roll()

    def _roll(self) -> None:
        self.flush()
        self._active += 1
        self._open_writer()
        if self._fsync:
            _fsync_dir(self._dir)  # persist the new segment's directory entry

    def put_many(self, items: Iterable[Tuple[object, Payload]]) -> int:
        count = 0
        for block_id, payload in items:
            self._append(block_id, _as_bytes_payload(payload))
            count += 1
        self.flush()
        self._maybe_compact()
        return count

    def delete_many(self, block_ids: Iterable[object]) -> int:
        """One tombstone per held id, then one flush and one compaction check."""
        index = self._index
        count = 0
        for block_id in block_ids:
            if block_id in index:
                self._append(block_id, None)
                count += 1
        if count:
            self.flush()
            self._maybe_compact()
        return count

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
        self._tail_is_index = False
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
        segment, offset, length, _ = entry
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
        for block_id, (_, _, length, _) in self._index.items():
            yield block_id, length

    # -- compaction -----------------------------------------------------
    @property
    def dead_bytes(self) -> int:
        """Log bytes that are not a live record: overwritten and deleted
        records, tombstones, index records (reclaimed by compaction)."""
        return self._total_bytes - self._live_bytes

    @property
    def segment_count(self) -> int:
        return len(self._segments_on_disk())

    def _maybe_compact(self) -> None:
        # A segment is the unit the log allocates in: rewriting a location
        # before one segment of it is dead would cost a file create and an
        # unlink per few KiB reclaimed.
        if (
            self._auto_compact
            and self.dead_bytes >= self._segment_bytes
            and self.dead_bytes > self._compact_ratio * self._total_bytes
        ):
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
        self._index = {}
        self._live_bytes = 0
        self._total_bytes = 0
        self._tail_is_index = False
        self._open_writer()
        for block_id, (segment, offset, length, _) in entries:
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

    def _append_index(self) -> None:
        """Append the index record: the live entries and the sealed segments'
        sizes, so the next open can skip the scan.  It costs 52 bytes, 12 per
        sealed segment and 18 per live block."""
        sealed = self._segments_on_disk()[:-1]
        index = self._index
        body = b"".join(
            [
                _INDEX_HEAD.pack(self._nonce, len(sealed), len(index)),
                *[
                    _INDEX_SEGMENT.pack(
                        segment, os.path.getsize(self._segment_path(segment))
                    )
                    for segment in sealed
                ],
                # The in-RAM entries as they are, in one pack call.
                struct.pack(
                    "<" + _INDEX_ENTRY.format[1:] * len(index),
                    *itertools.chain.from_iterable(index.values()),
                ),
            ]
        )
        record_len = _RECORD_HEADER.size + len(body) + _INDEX_TRAILER.size
        payload = body + _INDEX_TRAILER.pack(record_len, _INDEX_MAGIC)
        self._writer.write(
            _RECORD_HEADER.pack(_RECORD_MAGIC, 0, len(payload), zlib.crc32(payload))
            + payload
        )
        self._total_bytes += record_len
        self._tail_is_index = True

    def close(self) -> None:
        if self._writer is not None and self._nonce is not None and not self._tail_is_index:
            self._append_index()
        self.flush()
        for handle in self._readers.values():
            handle.close()
        self._readers.clear()
        self._maps = {}  # dropped, not closed: callers may hold live views
        if self._writer is not None:
            self._writer.close()
            self._writer = None


# ----------------------------------------------------------------------
# Atomic JSON publication and its reader (the service manifest in
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
        # ``dumps`` runs the C encoder; ``dump`` would run the Python one.
        handle.write(json.dumps(payload))
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(os.path.dirname(path) or ".")


def read_json(path: str, kind: str, version: int) -> Optional[Dict[str, object]]:
    """Read a JSON object :func:`write_json` published, ``None`` if absent.

    Anything else -- bytes that are not UTF-8 JSON, a value that is not an
    object, a ``format`` other than ``version`` -- is refused with an
    :class:`~repro.exceptions.InvalidParametersError` naming the file:
    reopening over an unreadable ``kind`` would scatter new writes over the
    data it describes, which is still on disk.
    """
    def corrupt(problem: str) -> InvalidParametersError:
        return InvalidParametersError(
            f"corrupt {kind} {path!r}: {problem}; the data it describes is "
            "still on disk -- restore the file from a backup or rebuild it "
            "before reopening"
        )

    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return None
    try:
        record = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise corrupt(str(exc)) from exc
    if not isinstance(record, dict):
        raise corrupt(f"{raw[:20]!r} is not a JSON object")
    if record.get("format") != version:
        raise InvalidParametersError(
            f"unsupported {kind} format in {path!r}: {record.get('format')!r}"
        )
    return record


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
