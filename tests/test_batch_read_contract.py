"""The batch-read contract of the healthy read path, pinned from outside.

A document read is one :meth:`StorageCluster.try_get_many` over its data
ids, which asks every location holding some of them for its share in one
:meth:`BlockStore.try_get_many`, and one :func:`join_blocks` of what comes
back.  These tests hold that path to what it returned and counted before it
was made leaner:

* a Hypothesis property compares ``StorageCluster.try_get_many`` with a
  per-id reference model -- request order, duplicate ids, unknown ids, a
  down location, a location up but empty (the directory still names it)
  and a generator argument, on ``memory`` and ``segment``,
  with and without an LRU read cache -- including every location's
  ``read_count`` / ``cache_hits`` / ``cache_misses`` and its number of
  ``BlockStore.try_get_many`` calls;
* ``COUNTER_GOLDEN`` holds every location's counters after one scripted
  sequence of healthy, duplicate-id, degraded, streamed and cached reads
  (recorded before the change; ``PYTHONPATH=src:. python
  tests/test_batch_read_contract.py`` prints the table -- record on the
  parent of a read-path change, never to make a failing test pass);
* :func:`join_blocks` over bytes, read-only views, unaligned lengths and the
  empty document;
* a data block whose stored length is not the scheme's block size (a file
  truncated or extended behind the store's back) is read as unavailable and
  rebuilt, so ``get`` and ``get_stream`` stay byte-exact; a stripe parity of
  the wrong length is an erasure to the repair pass, so neither a degraded
  read nor ``repair()`` decodes from it.
"""

from __future__ import annotations

import os
import tempfile
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import DataId, ParityId, join_blocks
from repro.core.parameters import StrandClass
from repro.schemes.stripe import StripeBlockId
from repro.storage.cluster import StorageCluster
from repro.storage.placement import DictionaryPlacement
from repro.system.service import StorageConfig, StorageService

LOCATIONS = 6
#: Ids 1..STORED are stored; a request draws from 1..STORED + 4 plus parities.
STORED = 18
CACHE = 3
BLOCK = 16


def _payload(index: int) -> bytes:
    return bytes((index * 7 + offset) % 256 for offset in range(BLOCK))


def _request_id(value: int) -> object:
    # Values past the data range name parity ids nobody stored.
    if value <= STORED + 4:
        return DataId(value)
    return ParityId(value, StrandClass.HORIZONTAL)


class _Model:
    """The per-id reference: which location holds what, and one LRU each."""

    def __init__(self, cache_blocks: int) -> None:
        self.home = {DataId(i): (i * 5) % LOCATIONS for i in range(1, STORED + 1)}
        self.cache_blocks = cache_blocks
        self.lru: Dict[int, "OrderedDict[object, None]"] = {
            location: OrderedDict() for location in range(LOCATIONS)
        }

    def read(
        self, ids: List[object], down: set, empty: set
    ) -> Tuple[List[Optional[bytes]], Dict[int, List[int]], set]:
        """Expected payloads, per-location counter deltas ``[reads, hits,
        misses]`` and the locations that get one batch call."""
        expected: List[Optional[bytes]] = []
        deltas = {location: [0, 0, 0] for location in range(LOCATIONS)}
        asked = set()
        for block_id in ids:
            location = self.home.get(block_id)
            if location is None:
                expected.append(None)
                continue
            asked.add(location)
            if location in down or location in empty:
                expected.append(None)
                continue
            expected.append(_payload(block_id.index))
            deltas[location][0] += 1
            if self.cache_blocks:
                lru = self.lru[location]
                if block_id in lru:
                    deltas[location][1] += 1
                    lru.move_to_end(block_id)
                else:
                    deltas[location][2] += 1
                    lru[block_id] = None
                    if len(lru) > self.cache_blocks:
                        lru.popitem(last=False)
        return expected, deltas, asked


def _counters(cluster: StorageCluster) -> List[List[int]]:
    return [
        [store.read_count, store.cache_hits, store.cache_misses]
        for store in cluster.locations()
    ]


@pytest.mark.parametrize("backend", ["memory", "segment"])
@pytest.mark.parametrize("cache_blocks", [0, CACHE])
def test_cluster_batch_read_matches_a_per_id_model(backend: str, cache_blocks: int) -> None:
    with tempfile.TemporaryDirectory() as root:
        model = _Model(cache_blocks)
        cluster = StorageCluster(
            LOCATIONS,
            DictionaryPlacement(LOCATIONS, model.home),
            backend=backend,
            root=root if backend == "segment" else None,
            cache_blocks=cache_blocks,
        )
        try:
            cluster.put_many(
                (block_id, np.frombuffer(_payload(block_id.index), dtype=np.uint8).copy())
                for block_id in model.home
            )
            calls = [0] * LOCATIONS
            for store in cluster.locations():

                def counted(ids, _store=store, _read=store.try_get_many):
                    calls[_store.location_id] += 1
                    return _read(ids)

                store.try_get_many = counted  # type: ignore[method-assign]

            @settings(max_examples=60, deadline=None, database=None)
            @given(
                values=st.lists(st.integers(1, STORED + 6), max_size=30),
                down=st.sets(st.integers(0, LOCATIONS - 1), max_size=2),
                empty=st.sets(st.integers(0, LOCATIONS - 1), max_size=1),
                as_generator=st.booleans(),
            )
            def check(values: List[int], down: set, empty: set, as_generator: bool) -> None:
                ids = [_request_id(value) for value in values]
                for location in empty:
                    # An empty replacement disk: up, known to the directory.
                    cluster.wipe_locations([location])
                    cluster.restore_locations([location])
                    model.lru[location].clear()
                expected, deltas, asked = model.read(ids, down, empty)
                before = _counters(cluster)
                calls[:] = [0] * LOCATIONS
                cluster.fail_locations(down)
                try:
                    got = cluster.try_get_many(iter(ids) if as_generator else ids)
                finally:
                    cluster.restore_locations(down)
                    cluster.put_many(
                        (block_id, np.frombuffer(_payload(block_id.index), dtype=np.uint8).copy())
                        for block_id, location in model.home.items()
                        if location in empty
                    )
                assert [None if p is None else np.asarray(p).tobytes() for p in got] == expected
                after = _counters(cluster)
                for location in range(LOCATIONS):
                    assert [a - b for a, b in zip(after[location], before[location])] == deltas[
                        location
                    ], f"location {location}"
                assert calls == [int(location in asked) for location in range(LOCATIONS)]

            check()
        finally:
            cluster.close()


def _scripted_counters(
    scheme: str, backend: str, data_dir: Optional[str]
) -> List[Tuple[int, int, int]]:
    """Healthy, duplicate-id, degraded, streamed and cached reads on one
    service; every location's ``(read_count, cache_hits, cache_misses)``."""
    service = StorageService.open(
        StorageConfig(
            scheme=scheme,
            block_size=256,
            topology=8,
            seed=1,
            batch_blocks=5,
            backend=backend,
            data_dir=data_dir,
            cache_blocks=6,
        )
    )
    try:
        rng = np.random.default_rng(42)
        documents = {
            name: rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
            for name, length in (("a", 2000), ("b", 777), ("c", 4096), ("empty", 0))
        }
        for name, data in documents.items():
            service.put(name, data)
        for name, data in documents.items():  # healthy
            assert service.get(name) == data
        cluster = service.cluster
        a_ids = list(service.documents["a"].data_ids)
        duplicated = a_ids + a_ids[:3] + [a_ids[1], ParityId(10**6, StrandClass.HORIZONTAL)]
        assert cluster.try_get_many(duplicated)[-1] is None
        victim = cluster.location_of(a_ids[2])
        cluster.fail_locations([victim])  # degraded
        assert service.get("a") == documents["a"]
        assert b"".join(service.get_stream("b")) == documents["b"]
        cluster.restore_locations([victim])
        for _ in range(2):  # cached
            assert service.get("a") == documents["a"]
            assert service.get("c") == documents["c"]
        return [
            (store.read_count, store.cache_hits, store.cache_misses)
            for store in cluster.locations()
        ]
    finally:
        service.close()


COUNTER_CASES = [
    (scheme, backend)
    for scheme in ("ae-3-2-5", "rs-4-2")
    for backend in ("memory", "segment")
]

COUNTER_GOLDEN: Dict[Tuple[str, str], List[Tuple[int, int, int]]] = {
    ('ae-3-2-5', 'memory'): [(21, 15, 6), (13, 9, 4), (14, 11, 3), (20, 8, 12), (4, 1, 3), (6, 4, 2), (17, 12, 5), (7, 5, 2)],
    ('ae-3-2-5', 'segment'): [(21, 15, 6), (13, 9, 4), (14, 11, 3), (20, 8, 12), (4, 1, 3), (6, 4, 2), (17, 12, 5), (7, 5, 2)],
    ('rs-4-2', 'memory'): [(16, 12, 4), (9, 5, 4), (6, 5, 1), (16, 10, 6), (21, 16, 5), (10, 6, 4), (12, 9, 3), (15, 11, 4)],
    ('rs-4-2', 'segment'): [(16, 12, 4), (9, 5, 4), (6, 5, 1), (16, 10, 6), (21, 16, 5), (10, 6, 4), (12, 9, 3), (15, 11, 4)],
}


@pytest.mark.parametrize("scheme,backend", COUNTER_CASES)
def test_read_counters_are_unchanged(scheme: str, backend: str, tmp_path) -> None:
    data_dir = None if backend == "memory" else str(tmp_path / "service")
    assert _scripted_counters(scheme, backend, data_dir) == COUNTER_GOLDEN[(scheme, backend)]


class TestJoinBlocks:
    def test_bytes(self) -> None:
        assert join_blocks([b"abcd", b"efgh"]) == b"abcdefgh"
        assert join_blocks([b"abcd", b"efgh"], 6) == b"abcdef"

    def test_read_only_views(self) -> None:
        views = [np.frombuffer(b"abcd", dtype=np.uint8), np.frombuffer(b"efgh", dtype=np.uint8)]
        assert not views[0].flags.writeable
        assert join_blocks(views, 5) == b"abcde"
        assert join_blocks(views) == b"abcdefgh"

    def test_rows_of_a_matrix_and_mixed_kinds(self) -> None:
        matrix = np.arange(12, dtype=np.uint8).reshape(3, 4)
        mixed = [matrix[0], np.frombuffer(b"\x10\x11\x12\x13", dtype=np.uint8), b"\x20\x21\x22\x23"]
        assert join_blocks(list(matrix), 10) == bytes(range(10))
        assert join_blocks(mixed, 9) == bytes([0, 1, 2, 3, 16, 17, 18, 19, 32])

    @pytest.mark.parametrize("length", [1, 15, 16, 17, 31, 32, 33, 47, 48])
    def test_unaligned_lengths(self, length: int) -> None:
        data = bytes(range(48))
        blocks = [np.frombuffer(data[i : i + 16], dtype=np.uint8) for i in range(0, 48, 16)]
        count = -(-length // 16)
        joined = join_blocks(blocks[:count], length)
        assert type(joined) is bytes
        assert joined == data[:length]

    def test_a_length_past_the_blocks_keeps_them_whole(self) -> None:
        # A streamed move joins a chunk with the rest of the document's length.
        assert join_blocks([b"abcd", b"efgh"], 100) == b"abcdefgh"

    def test_empty_document(self) -> None:
        assert join_blocks([]) == b""
        assert join_blocks([], 0) == b""


WRONG_LENGTH_CASES = [
    (scheme, length) for scheme in ("ae-3-2-5", "rs-4-2", "rep-3") for length in (32, 96)
]


@pytest.mark.parametrize("scheme,length", WRONG_LENGTH_CASES)
def test_a_data_block_of_the_wrong_length_is_rebuilt(scheme: str, length: int, tmp_path) -> None:
    """A data block whose file was cut to 32 B or grown to 96 B (64 B
    blocks) reads as unavailable, so the degraded-read pass rebuilds it."""
    data_dir = str(tmp_path / "service")
    document = np.random.default_rng(7).integers(0, 256, size=400, dtype=np.uint8).tobytes()
    config = StorageConfig(
        scheme=scheme, block_size=64, topology=8, seed=1, backend="disk", data_dir=data_dir
    )
    service = StorageService.open(config)
    try:
        service.put("doc", document)
        victim = service.documents["doc"].data_ids[1]
        cluster = service.cluster
        path = cluster.location(cluster.location_of(victim)).backend._path(victim)
    finally:
        service.close()
    with open(path, "rb") as handle:
        stored = handle.read()
    assert len(stored) == 64
    with open(path, "wb") as handle:
        handle.write((stored * 2)[:length])
    assert os.path.getsize(path) == length
    service = StorageService.open(config)
    try:
        assert service.get("doc") == document
        assert b"".join(service.get_stream("doc")) == document
    finally:
        service.close()


def _stripe_service_with_a_resized_parity(
    scheme: str, length: int, data_dir: str
) -> Tuple[StorageConfig, bytes]:
    """One 400 B document of ``scheme`` on one node per site, its first
    parity's file cut or grown to ``length`` bytes behind the store."""
    sites = 14 if scheme == "rs-10-4" else 6
    document = np.random.default_rng(11).integers(0, 256, size=400, dtype=np.uint8).tobytes()
    config = StorageConfig(
        scheme=scheme,
        block_size=64,
        topology=f"sites={sites},racks=1,nodes=1",
        placement="spread-domains",
        seed=1,
        backend="disk",
        data_dir=data_dir,
    )
    service = StorageService.open(config)
    try:
        service.put("doc", document)
        parity = StripeBlockId(0, service.scheme.code.k)
        cluster = service.cluster
        path = cluster.location(cluster.location_of(parity)).backend._path(parity)
    finally:
        service.close()
    with open(path, "rb") as handle:
        stored = handle.read()
    with open(path, "wb") as handle:
        handle.write((stored * 2)[:length])
    return config, document


@pytest.mark.parametrize(
    "scheme,length", [(scheme, length) for scheme in ("rs-4-2", "rs-10-4") for length in (32, 96)]
)
def test_a_stripe_survivor_of_the_wrong_length_is_not_decoded(
    scheme: str, length: int, tmp_path
) -> None:
    """A parity cut to 32 B or grown to 96 B (64 B blocks) is an erasure to
    the stripe repair: a degraded read decodes from the other survivors
    instead of zero-padding the short one or refusing the long one."""
    config, document = _stripe_service_with_a_resized_parity(
        scheme, length, str(tmp_path / "service")
    )
    service = StorageService.open(config)
    try:
        victim = StripeBlockId(0, 1)
        service.fail_locations([service.cluster.location_of(victim)])
        assert service.get("doc") == document
        assert b"".join(service.get_stream("doc")) == document
    finally:
        service.close()


def test_repair_writes_back_no_block_decoded_from_a_resized_parity(tmp_path) -> None:
    """``repair()`` decodes from the other survivors, not from a zero-padded
    parity, so what it writes back reads byte-exact after the failed
    location is restored and after a reopen."""
    config, document = _stripe_service_with_a_resized_parity(
        "rs-4-2", 32, str(tmp_path / "service")
    )
    service = StorageService.open(config)
    try:
        service.fail_locations([service.cluster.location_of(StripeBlockId(0, 1))])
        assert service.repair().data_loss == 0
        service.restore_locations()
        assert service.get("doc") == document
    finally:
        service.close()
    service = StorageService.open(config)
    try:
        assert service.get("doc") == document
    finally:
        service.close()


if __name__ == "__main__":  # pragma: no cover - recording helper
    print("COUNTER_GOLDEN: Dict[Tuple[str, str], List[Tuple[int, int, int]]] = {")
    for scheme, backend in COUNTER_CASES:
        with tempfile.TemporaryDirectory() as root:
            rows = _scripted_counters(
                scheme, backend, None if backend == "memory" else os.path.join(root, "service")
            )
        print(f"    {(scheme, backend)!r}: {rows!r},")
    print("}")
