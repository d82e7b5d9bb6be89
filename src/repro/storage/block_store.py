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

A store serves a backend payload only at the length its index recorded: a
record cut or grown behind its back is not returned and leaves the index (it
is *un-held*: as unavailable as a block on a wiped disk, its record kept on
the medium until a write or a delete reaches it).

Block operations are thread-safe: one lock per store guards the block
index, the LRU cache (an ``OrderedDict`` whose re-linking is *not* atomic
under concurrent mutation) and the read/write/hit/miss counters, so the
concurrent front-end (:mod:`repro.system.frontend`) can drive reads during
repair without corrupting the cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.blocks import BlockId
from repro.core.xor import UINT8, Payload, as_payload
from repro.exceptions import BlockUnavailableError, StorageFullError
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
        # Ids whose record is still on the medium but left the index.
        self._unheld: Set[BlockId] = set()
        # Held ids whose last backend read raised an ``OSError``.
        self._refused: Set[BlockId] = set()
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
            self._unheld.clear()
            self._refused.clear()
            self._bytes = 0
            self._cache.clear()
            self._available = False

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def put_many(self, items: Iterable[Tuple[BlockId, Payload]]) -> int:
        """Store a batch of blocks in one call, returning how many were stored.

        The availability and capacity checks run once for the whole batch
        (all-or-nothing: nothing is stored when the batch would overflow the
        capacity), and the backend receives one bulk write.  A backend that
        raises mid-batch may have written part of it: the batch's ids this
        location did not hold are deleted from the medium before the error
        propagates, so no unindexed record outlives the refusal (an
        overwritten id keeps its record).
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
            if self._unheld:  # a write replaces an un-held record, a refusal deletes it
                self._unheld.difference_update(staged)
            if self._refused:
                self._refused.difference_update(staged)
            written = False
            try:
                self._backend.put_many(staged.items())
                written = True
            finally:
                if not written:
                    self._backend.delete_many(staged.keys() - sizes.keys())
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

    def try_get_many(self, block_ids: Iterable[BlockId]) -> List[Optional[Payload]]:
        """Payloads in request order: ``None`` for absent blocks, everything
        ``None`` when the location is down.  One availability check and one
        loop under one lock acquisition per batch, through the LRU cache when
        one is configured; the read counter advances by the number of
        payloads returned.  A backend payload of another length than the
        index recorded is ``None`` too, and its block is un-held.  A read the
        backend refuses with an ``OSError`` (an EIO) is ``None`` as well --
        an erasure a degraded read reads around -- and the block is
        *refused*: still held, so a later read tries the medium again, and
        listed by :meth:`StorageCluster.unreadable_blocks
        <repro.storage.cluster.StorageCluster.unreadable_blocks>` until a
        write or delete reaches it, so
        :meth:`~repro.system.service.StorageService.repair` rewrites it."""
        wanted = block_ids if isinstance(block_ids, list) else list(block_ids)
        if not self._available:
            return [None] * len(wanted)
        payloads: List[Optional[Payload]] = []
        append = payloads.append
        missing = hits = 0
        with self._lock:
            sizes = self._sizes
            backend_get = self._backend.get
            cache = self._cache
            limit = self._cache_blocks
            for block_id in wanted:
                size = sizes.get(block_id)
                if size is None:
                    missing += 1
                    append(None)
                    continue
                if limit and block_id in cache:
                    hits += 1
                    cache.move_to_end(block_id)
                    append(cache[block_id])
                    continue
                try:
                    payload = backend_get(block_id)
                except OSError:
                    self._refused.add(block_id)
                    missing += 1
                    append(None)
                    continue
                if len(payload) != size:
                    missing += self._unhold((block_id,))
                    append(None)
                    continue
                if limit:
                    cache[block_id] = payload
                    if len(cache) > limit:
                        cache.popitem(last=False)
                append(payload)
            self._reads += len(wanted) - missing
            if limit:
                self._cache_hits += hits
                self._cache_misses += len(wanted) - missing - hits
        return payloads

    def _unhold(self, block_ids: Sequence[BlockId]) -> int:
        """Drop blocks from the index, their records left on the medium."""
        for block_id in block_ids:
            self._bytes -= self._sizes.pop(block_id)
            self._cache.pop(block_id, None)
        self._unheld.update(block_ids)
        return len(block_ids)

    def unhold_other_sizes(self, size: int) -> int:
        """Un-hold every block whose indexed size is not ``size`` (what a
        read would find, learnt without one); returns how many."""
        with self._lock:
            return self._unhold([b for b, held in self._sizes.items() if held != size])

    def delete_many(self, block_ids: Iterable[BlockId]) -> int:
        """Remove the stored blocks among ``block_ids``, un-held records too,
        in one backend call (absent ids are skipped); returns how many.

        Like every delete it works on a location that is down: availability
        models request serving, while a delete reclaims space.
        """
        with self._lock:
            sizes, unheld, refused = self._sizes, self._unheld, self._refused
            doomed = [b for b in dict.fromkeys(block_ids) if b in sizes or b in unheld]
            if doomed:
                self._backend.delete_many(doomed)
                cache = self._cache
                for block_id in doomed:
                    self._bytes -= sizes.pop(block_id, 0)
                    unheld.discard(block_id)
                    refused.discard(block_id)
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
