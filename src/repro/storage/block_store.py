"""A single storage location: availability, capacity, counters and a backend.

The paper's evaluation treats storage locations abstractly: a location is a
disk, a server or a peer; blocks are mapped to locations by a placement
policy; a disaster flips a set of locations to *unavailable* (paper,
Sec. V-C).  This class models one such location.

Where the payload bytes live is pluggable: a
:class:`~repro.storage.backends.StorageBackend` (memory / disk / segment log,
see :mod:`repro.storage.backends`) holds the content, while this class keeps
everything that makes the location a *location* -- the availability flag, the
capacity limit, read/write accounting, and a small write-through LRU read
cache that keeps repeated reads on persistent backends close to memory speed.
Opening a store over a persistent backend with pre-existing data rebuilds the
block index, so a location survives a process restart with its content intact
(the counters are per-process and start at 0).

Block operations are thread-safe: one lock per store guards the block
index, the LRU cache (an ``OrderedDict`` whose re-linking is *not* atomic
under concurrent mutation) and the read/write/hit/miss counters, so the
concurrent front-end (:mod:`repro.system.frontend`) can drive reads during
repair without corrupting the cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.blocks import BlockId
from repro.core.xor import UINT8, Payload, as_payload
from repro.exceptions import BlockUnavailableError, StorageFullError, UnknownBlockError
from repro.storage import backends as _backends
from repro.storage.backends import MemoryBackend, StorageBackend

#: Default LRU read-cache size (in blocks) for persistent backends; volatile
#: backends default to no cache (a dict lookup needs no caching).
DEFAULT_CACHE_BLOCKS = 1024


class BlockStore:
    """Content store for one storage location over a pluggable backend."""

    def __init__(
        self,
        location_id: int,
        capacity_blocks: Optional[int] = None,
        backend: Optional[Union[str, StorageBackend]] = None,
        cache_blocks: Optional[int] = None,
    ) -> None:
        self._location_id = location_id
        self._capacity = capacity_blocks
        if backend is None:
            backend = MemoryBackend()
        elif isinstance(backend, str):
            backend = _backends.get(backend)
        self._backend = backend
        if cache_blocks is None:
            cache_blocks = DEFAULT_CACHE_BLOCKS if backend.persistent else 0
        self._cache_blocks = max(0, int(cache_blocks))
        self._cache: "OrderedDict[BlockId, Payload]" = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        # Guards the index, the cache and the counters (reentrant: put_many
        # and wipe call helpers that also take it).
        self._lock = threading.RLock()
        self._available = True
        # Index of stored blocks (id -> payload size): membership, capacity
        # and byte accounting without touching the backend medium.
        self._sizes: Dict[BlockId, int] = {}
        self._bytes = 0
        for block_id, size in backend.scan():
            self._sizes[block_id] = size
            self._bytes += size
        self._reads = 0
        self._writes = 0

    # ------------------------------------------------------------------
    # Identity and state
    # ------------------------------------------------------------------
    @property
    def location_id(self) -> int:
        return self._location_id

    @property
    def backend(self) -> StorageBackend:
        """The payload medium behind this location."""
        return self._backend

    @property
    def available(self) -> bool:
        """Whether the location currently serves requests."""
        return self._available

    @property
    def capacity_blocks(self) -> Optional[int]:
        return self._capacity

    @property
    def block_count(self) -> int:
        return len(self._sizes)

    @property
    def bytes_stored(self) -> int:
        return self._bytes

    @property
    def read_count(self) -> int:
        return self._reads

    @property
    def write_count(self) -> int:
        return self._writes

    @property
    def cache_hits(self) -> int:
        """Reads served by the LRU cache instead of the backend medium."""
        return self._cache_hits

    @property
    def cache_misses(self) -> int:
        """Reads that had to touch the backend medium."""
        return self._cache_misses

    def fail(self) -> None:
        """Mark the location unavailable (disaster / crash / departure)."""
        self._available = False

    def restore(self) -> None:
        """Bring the location back online with its stored content intact."""
        self._available = True

    def wipe(self) -> None:
        """Simulate a destructive failure: content is lost, location stays down."""
        with self._lock:
            self._backend.clear()
            self._sizes.clear()
            self._bytes = 0
            self._cache.clear()
            self._available = False

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _cache_store(self, block_id: BlockId, payload: Payload) -> None:
        cache = self._cache
        cache[block_id] = payload
        cache.move_to_end(block_id)
        while len(cache) > self._cache_blocks:
            cache.popitem(last=False)

    def _cached_read(self, block_id: BlockId) -> Payload:
        """Read through the LRU cache (the caller has checked membership)."""
        cache = self._cache
        payload = cache.get(block_id)
        if payload is not None:
            self._cache_hits += 1
            cache.move_to_end(block_id)
            return payload
        payload = self._backend.get(block_id)
        if self._cache_blocks:
            self._cache_misses += 1
            self._cache_store(block_id, payload)
        return payload

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def put(self, block_id: BlockId, payload: Payload) -> None:
        if not self._available:
            raise BlockUnavailableError(
                f"location {self._location_id} is unavailable for writes"
            )
        payload = as_payload(payload)
        with self._lock:
            if (
                self._capacity is not None
                and block_id not in self._sizes
                and len(self._sizes) >= self._capacity
            ):
                raise StorageFullError(
                    f"location {self._location_id} is full ({self._capacity} blocks)"
                )
            self._backend.put(block_id, payload)
            self._bytes += int(payload.size) - self._sizes.get(block_id, 0)
            self._sizes[block_id] = int(payload.size)
            # Write-through coherence: refresh a cached entry, never insert
            # one (bulk ingest must not evict the hot read set).
            if block_id in self._cache:
                self._cache[block_id] = payload
            self._writes += 1

    def put_many(self, items: Iterable[Tuple[BlockId, Payload]]) -> int:
        """Store a batch of blocks in one call, returning how many were stored.

        The availability and capacity checks run once for the whole batch
        (all-or-nothing: nothing is stored when the batch would overflow the
        capacity), and the backend receives one bulk write.  This is the
        amortised write path of the batched ingest pipeline.
        """
        if not self._available:
            raise BlockUnavailableError(
                f"location {self._location_id} is unavailable for writes"
            )
        # The one staging structure of the call: ids deduplicated (first
        # position, last payload), payloads checked once -- batch rows pass
        # as they are, anything else is converted.
        staged = {
            block_id: payload
            if type(payload) is np.ndarray
            and payload.dtype == UINT8
            and payload.ndim == 1
            else as_payload(payload)
            for block_id, payload in items
        }
        with self._lock:
            sizes = self._sizes
            if self._capacity is not None:
                new_blocks = len(staged.keys() - sizes.keys())
                if len(sizes) + new_blocks > self._capacity:
                    raise StorageFullError(
                        f"location {self._location_id} cannot absorb {new_blocks} new "
                        f"blocks (capacity {self._capacity}, holding {len(sizes)})"
                    )
            self._backend.put_many(staged.items())
            added = 0
            for block_id, payload in staged.items():
                size = payload.size
                added += size - sizes.get(block_id, 0)
                sizes[block_id] = size
            self._bytes += added
            cache = self._cache
            if cache:
                # Write-through coherence: refresh cached entries, never
                # insert one (bulk ingest must not evict the hot read set).
                for block_id in cache.keys() & staged.keys():
                    cache[block_id] = staged[block_id]
            self._writes += len(staged)
        return len(staged)

    def try_get(self, block_id: BlockId) -> Optional[Payload]:
        """One payload; ``None`` when the location is down or lacks the block."""
        if not self._available:
            return None
        with self._lock:
            if block_id not in self._sizes:
                return None
            self._reads += 1
            return self._cached_read(block_id)

    def try_get_many(self, block_ids: Iterable[BlockId]) -> List[Optional[Payload]]:
        """Bulk :meth:`try_get`: ``None`` for absent blocks, everything ``None``
        when the location is down.  One availability check per batch; the read
        counter advances by the number of payloads returned."""
        wanted = list(block_ids)
        if not self._available:
            return [None] * len(wanted)
        payloads: List[Optional[Payload]] = []
        hits = 0
        with self._lock:
            if not self._cache_blocks:
                # No read cache configured: serve straight from the backend
                # at list-comprehension speed (the hot path of batched
                # repair; one lock acquisition for the whole batch).
                sizes = self._sizes
                backend_get = self._backend.get
                payloads = [
                    backend_get(block_id) if block_id in sizes else None
                    for block_id in wanted
                ]
                hits = sum(1 for payload in payloads if payload is not None)
                self._reads += hits
                return payloads
            for block_id in wanted:
                if block_id in self._sizes:
                    payloads.append(self._cached_read(block_id))
                    hits += 1
                else:
                    payloads.append(None)
            self._reads += hits
        return payloads

    def delete(self, block_id: BlockId) -> None:
        if not self.delete_many((block_id,)):
            raise UnknownBlockError(
                f"block {block_id!r} is not stored at location {self._location_id}"
            )

    def delete_many(self, block_ids: Iterable[BlockId]) -> int:
        """Remove the stored blocks among ``block_ids`` in one backend call
        (absent ids are skipped), returning how many were removed.

        Like every delete it works on a location that is down: availability
        models request serving, while a delete reclaims space.
        """
        with self._lock:
            sizes = self._sizes
            doomed = [
                block_id for block_id in dict.fromkeys(block_ids) if block_id in sizes
            ]
            if doomed:
                self._backend.delete_many(doomed)
                cache = self._cache
                for block_id in doomed:
                    self._bytes -= sizes.pop(block_id)
                    cache.pop(block_id, None)
            return len(doomed)

    def contains(self, block_id: BlockId) -> bool:
        """True when the block is physically present (even if unavailable)."""
        return block_id in self._sizes

    def holds(self, block_id: BlockId) -> bool:
        """True when the block is present *and* the location is available."""
        return self._available and block_id in self._sizes

    def block_ids(self) -> Iterator[BlockId]:
        with self._lock:
            return iter(list(self._sizes.keys()))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Push buffered backend writes to the medium."""
        self._backend.flush()

    def close(self) -> None:
        """Release the backend (counters are per-process: they restart at 0)."""
        self._backend.close()

    def __len__(self) -> int:
        return len(self._sizes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "up" if self._available else "down"
        return (
            f"BlockStore(location={self._location_id}, blocks={len(self._sizes)}, "
            f"backend={self._backend.name}, {state})"
        )
