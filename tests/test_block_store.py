"""Tests for the single-location block store.

The backend-parametrised tests pin down the invariants every
:class:`~repro.storage.backends.StorageBackend` must preserve behind the
unchanged :class:`BlockStore` API: capacity-full behaviour, ``bytes_stored``
accounting across delete/wipe, all-or-nothing ``put_many`` and content that
survives a persistent-backend reopen (the counters are per-process).
"""

from __future__ import annotations

import os

import pytest

from repro.core.blocks import DataId, ParityId
from repro.core.parameters import StrandClass
from repro.exceptions import BlockUnavailableError, StorageFullError, UnknownBlockError
from repro.storage import backends
from repro.storage.block_store import BlockStore

BACKENDS = ["memory", "disk", "segment"]


def make_store(spec, tmp_path, **kwargs):
    backend = backends.get(
        spec, root=str(tmp_path / spec) if spec != "memory" else None
    )
    return BlockStore(0, backend=backend, **kwargs)


class TestBlockStore:
    def test_put_get_roundtrip(self):
        store = BlockStore(0)
        store.put(DataId(1), b"\x01\x02")
        assert store.try_get(DataId(1)).tolist() == [1, 2]
        assert store.block_count == 1
        assert store.bytes_stored == 2
        assert store.contains(DataId(1))
        assert store.holds(DataId(1))

    def test_missing_block_reads_none(self):
        store = BlockStore(0)
        assert store.try_get(DataId(1)) is None

    def test_failed_location_rejects_io(self):
        store = BlockStore(3)
        store.put(DataId(1), b"x")
        store.fail()
        assert not store.available
        with pytest.raises(BlockUnavailableError):
            store.put(DataId(2), b"y")
        assert store.try_get(DataId(1)) is None
        assert store.contains(DataId(1))  # data still physically there
        assert not store.holds(DataId(1))
        store.restore()
        assert store.try_get(DataId(1)).tolist() == [120]

    def test_wipe_loses_content(self):
        store = BlockStore(0)
        store.put(DataId(1), b"x")
        store.wipe()
        assert not store.available
        assert not store.contains(DataId(1))

    def test_capacity_enforced(self):
        store = BlockStore(0, capacity_blocks=1)
        store.put(DataId(1), b"x")
        with pytest.raises(StorageFullError):
            store.put(DataId(2), b"y")
        # Overwriting an existing block is allowed.
        store.put(DataId(1), b"z")

    def test_delete_and_iteration(self):
        store = BlockStore(0)
        store.put(DataId(1), b"a")
        store.put(ParityId(1, StrandClass.HORIZONTAL), b"b")
        assert len(list(store.block_ids())) == 2
        store.delete(DataId(1))
        assert len(store) == 1
        with pytest.raises(UnknownBlockError):
            store.delete(DataId(1))

    def test_read_write_counters(self):
        store = BlockStore(0)
        store.put(DataId(1), b"a")
        store.try_get(DataId(1))
        store.try_get(DataId(1))
        assert store.write_count == 1
        assert store.read_count == 2


@pytest.mark.parametrize("spec", BACKENDS)
class TestBackendInvariants:
    """The BlockStore contract must hold identically over every backend."""

    def test_roundtrip_and_iteration(self, spec, tmp_path):
        store = make_store(spec, tmp_path)
        store.put(DataId(1), b"\x01\x02")
        store.put(ParityId(1, StrandClass.HORIZONTAL), b"abc")
        assert store.try_get(DataId(1)).tolist() == [1, 2]
        assert sorted(store.block_ids(), key=repr) == [
            DataId(1),
            ParityId(1, StrandClass.HORIZONTAL),
        ]
        store.close()

    def test_capacity_full_behaviour(self, spec, tmp_path):
        store = make_store(spec, tmp_path, capacity_blocks=2)
        store.put(DataId(1), b"a")
        store.put(DataId(2), b"b")
        with pytest.raises(StorageFullError):
            store.put(DataId(3), b"c")
        # Overwrites never count against the capacity.
        store.put(DataId(1), b"z")
        assert store.try_get(DataId(1)).tolist() == [122]
        # Deleting frees a slot.
        store.delete(DataId(2))
        store.put(DataId(3), b"c")
        assert store.block_count == 2
        store.close()

    def test_put_many_is_all_or_nothing_on_overflow(self, spec, tmp_path):
        store = make_store(spec, tmp_path, capacity_blocks=3)
        store.put(DataId(1), b"a")
        with pytest.raises(StorageFullError):
            store.put_many([(DataId(i), b"x") for i in range(2, 6)])
        # Nothing from the failed batch may have landed.
        assert store.block_count == 1
        assert not store.contains(DataId(2))
        assert store.write_count == 1
        # A batch that exactly fills the capacity is accepted, overwrites
        # of existing blocks not counting as new.
        assert store.put_many([(DataId(1), b"y"), (DataId(2), b"b"), (DataId(3), b"c")]) == 3
        assert store.block_count == 3
        store.close()

    def test_put_many_unavailable_stores_nothing(self, spec, tmp_path):
        store = make_store(spec, tmp_path)
        store.fail()
        with pytest.raises(BlockUnavailableError):
            store.put_many([(DataId(1), b"a")])
        store.restore()
        assert store.block_count == 0
        store.close()

    def test_bytes_stored_accounting(self, spec, tmp_path):
        store = make_store(spec, tmp_path)
        store.put(DataId(1), b"aaaa")
        store.put(DataId(2), b"bb")
        assert store.bytes_stored == 6
        store.put(DataId(1), b"a")  # overwrite shrinks
        assert store.bytes_stored == 3
        store.delete(DataId(2))
        assert store.bytes_stored == 1
        store.put_many([(DataId(3), b"ccc"), (DataId(4), b"dddd")])
        assert store.bytes_stored == 8
        store.wipe()
        assert store.bytes_stored == 0
        assert store.block_count == 0
        store.close()

    def test_delete_many_removes_held_blocks_in_one_backend_call(self, spec, tmp_path):
        store = make_store(spec, tmp_path, cache_blocks=4)
        store.put_many([(DataId(i), bytes([i]) * i) for i in range(1, 6)])
        store.try_get(DataId(2))  # cached
        calls = []
        delete_many = store.backend.delete_many
        store.backend.delete_many = lambda ids: (calls.append(list(ids)), delete_many(ids))[1]
        store.fail()  # a delete reclaims space on a location that is down too
        # Absent and repeated ids are skipped.
        assert store.delete_many([DataId(2), DataId(9), DataId(4), DataId(2)]) == 2
        assert calls == [[DataId(2), DataId(4)]]
        assert store.bytes_stored == 1 + 3 + 5 and store.block_count == 3
        store.restore()
        assert store.try_get(DataId(2)) is None
        assert store.delete_many([DataId(9)]) == 0 and len(calls) == 1
        store.close()

    def test_wipe_loses_content_and_stays_down(self, spec, tmp_path):
        store = make_store(spec, tmp_path)
        store.put(DataId(1), b"x")
        store.wipe()
        assert not store.available
        assert not store.contains(DataId(1))
        store.restore()
        assert store.try_get(DataId(1)) is None
        store.close()


@pytest.mark.parametrize("spec", ["disk", "segment"])
class TestPersistentStore:
    def test_content_survives_reopen_and_counters_restart(self, spec, tmp_path):
        store = make_store(spec, tmp_path)
        store.put(DataId(1), b"hello")
        store.put(DataId(2), b"world")
        store.try_get(DataId(1))
        store.try_get(DataId(2))
        store.try_get(DataId(1))
        assert (store.read_count, store.write_count) == (3, 2)
        store.close()
        # A location root holds block data only; the counter file an older
        # version left there is ignored.
        assert sorted(os.listdir(tmp_path / spec)) == [
            "blocks" if spec == "disk" else "segments"
        ]
        (tmp_path / spec / "meta.json").write_text('{"reads": 3, "writes": 2}')

        reopened = make_store(spec, tmp_path)
        assert (reopened.read_count, reopened.write_count) == (0, 0)
        assert reopened.block_count == 2
        assert reopened.bytes_stored == 10
        assert bytes(reopened.try_get(DataId(2)).tobytes()) == b"world"
        assert reopened.read_count == 1
        reopened.close()

    def test_capacity_enforced_against_preexisting_blocks(self, spec, tmp_path):
        store = make_store(spec, tmp_path)
        store.put_many([(DataId(i), b"x") for i in range(1, 4)])
        store.close()
        reopened = make_store(spec, tmp_path, capacity_blocks=3)
        with pytest.raises(StorageFullError):
            reopened.put(DataId(9), b"y")
        reopened.close()


@pytest.mark.parametrize("spec", ["disk", "segment"])
class TestReadCache:
    def test_hit_miss_counters(self, spec, tmp_path):
        store = make_store(spec, tmp_path, cache_blocks=2)
        store.put(DataId(1), b"a")
        store.put(DataId(2), b"b")
        store.try_get(DataId(1))
        assert (store.cache_hits, store.cache_misses) == (0, 1)
        store.try_get(DataId(1))
        assert (store.cache_hits, store.cache_misses) == (1, 1)
        store.close()

    def test_lru_eviction(self, spec, tmp_path):
        store = make_store(spec, tmp_path, cache_blocks=2)
        for i in range(1, 4):
            store.put(DataId(i), bytes([i]))
        store.try_get(DataId(1))
        store.try_get(DataId(2))
        store.try_get(DataId(3))  # evicts DataId(1)
        store.try_get(DataId(2))  # hit
        store.try_get(DataId(1))  # miss again
        assert store.cache_misses == 4
        assert store.cache_hits == 1
        store.close()

    def test_write_through_keeps_cache_coherent(self, spec, tmp_path):
        store = make_store(spec, tmp_path, cache_blocks=4)
        store.put(DataId(1), b"old")
        store.try_get(DataId(1))  # cached
        store.put(DataId(1), b"new")  # write-through refresh
        assert bytes(store.try_get(DataId(1)).tobytes()) == b"new"
        store.delete(DataId(1))
        assert store.try_get(DataId(1)) is None
        store.close()


def test_memory_backend_defaults_to_no_cache():
    store = BlockStore(0)
    store.put(DataId(1), b"a")
    store.try_get(DataId(1))
    store.try_get(DataId(1))
    assert (store.cache_hits, store.cache_misses) == (0, 0)


class TestConcurrentAccess:
    """Hammer the store from many threads: the LRU cache's OrderedDict
    re-linking and the hit/miss/read/write counters must stay coherent
    under concurrent mutation (the concurrent front-end drives exactly
    this access pattern during reads-under-repair)."""

    THREADS = 8
    OPS_PER_THREAD = 2000
    BLOCKS = 128

    def test_cache_and_counters_survive_hammering(self):
        import random
        import threading

        # A small cache over the memory backend forces constant eviction
        # and re-linking -- the racy part of an unlocked OrderedDict.
        store = BlockStore(0, backend="memory", cache_blocks=16)
        for number in range(self.BLOCKS):
            store.put(DataId(number), bytes([number % 251]) * 8)

        errors: list = []
        barrier = threading.Barrier(self.THREADS)

        def worker(index: int) -> None:
            rng = random.Random(1000 + index)
            # Each thread is the sole writer of its own block slice, so the
            # final payloads are deterministic; reads roam the whole range.
            own = range(index, self.BLOCKS, self.THREADS)
            try:
                barrier.wait()
                for _ in range(self.OPS_PER_THREAD):
                    roll = rng.random()
                    if roll < 0.25:
                        victim = rng.choice(list(own))
                        store.put(DataId(victim), bytes([index]) * 8)
                    elif roll < 0.35:
                        store.try_get_many(
                            [DataId(rng.randrange(self.BLOCKS)) for _ in range(4)]
                        )
                    else:
                        store.try_get(DataId(rng.randrange(self.BLOCKS)))
            except Exception as exc:  # noqa: RPR004 - hammer thread collects any failure
                errors.append(exc)  # pragma: no cover - failure path

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        # No blocks lost or duplicated, byte accounting intact.
        assert store.block_count == self.BLOCKS
        assert store.bytes_stored == self.BLOCKS * 8
        # Cache coherence: every read returns the last write of the block's
        # sole writer (either the seed payload or that thread's stamp).
        for number in range(self.BLOCKS):
            writer = number % self.THREADS
            got = bytes(store.try_get(DataId(number)).tobytes())
            assert got in (bytes([number % 251]) * 8, bytes([writer]) * 8)
            assert len(got) == 8
        # Counter sanity: every completed get/try_get_many hit advanced the
        # read counter; hits + misses never exceeds reads.
        assert store.read_count >= self.THREADS * self.OPS_PER_THREAD * 0.5
        assert store.cache_hits + store.cache_misses <= store.read_count
