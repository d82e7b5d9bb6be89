"""Tests for the streaming ingest pipeline and the bulk storage paths.

Covers the satellite guarantees of the batch-ingest work: byte-exact round
trips through ``put_stream``/``get_stream`` (including empty documents and
payloads that are not a multiple of the block size), the property-style
encode -> corrupt -> repair -> decode cycle over several AE(alpha, s, p)
settings, and the ``put_many``/``get_many`` bulk paths of the storage layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocks import DataId, ParityId
from repro.core.parameters import AEParameters
from repro.exceptions import (
    BlockUnavailableError,
    StorageFullError,
    UnknownBlockError,
)
from repro.storage.block_store import BlockStore
from repro.storage.cluster import StorageCluster
from repro.system.service import StorageConfig, StorageService

BLOCK = 128


def make_system(params=None, locations=40, block_size=BLOCK, batch_blocks=4, seed=3):
    return StorageService.open(
        StorageConfig(
            scheme=(params or AEParameters.triple(2, 5)).scheme_id,
            topology=locations,
            block_size=block_size,
            batch_blocks=batch_blocks,
            seed=seed,
        )
    )


def document_bytes(size: int, seed: int = 5) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def chunked(payload: bytes, chunk: int):
    return [payload[offset : offset + chunk] for offset in range(0, len(payload), chunk)]


class TestPutStreamRoundTrip:
    @pytest.mark.parametrize(
        "size",
        [
            0,  # empty document
            1,  # sub-block payload
            BLOCK - 1,  # padding in the only block
            BLOCK,  # exact single block
            5 * BLOCK,  # exact multiple, spans batches (batch_blocks=4)
            5 * BLOCK + 17,  # padding in the last block of the second batch
        ],
    )
    def test_byte_exact_round_trip(self, size):
        system = make_system()
        payload = document_bytes(size)
        document = system.put_stream("doc", chunked(payload, 300))
        assert document.length == size
        assert b"".join(system.get_stream("doc")) == payload
        # The non-streaming read path sees the same document.
        assert system.get("doc") == payload

    def test_chunk_sizes_do_not_matter(self):
        payload = document_bytes(3 * BLOCK + 5)
        reference = None
        for chunk in [1, 7, BLOCK, BLOCK * 2 + 3, len(payload)]:
            system = make_system()
            system.put_stream("doc", chunked(payload, chunk))
            recovered = b"".join(system.get_stream("doc"))
            assert recovered == payload
            reference = reference or recovered
            assert recovered == reference

    def test_empty_iterable(self):
        system = make_system()
        document = system.put_stream("empty", [])
        assert document.length == 0
        assert document.block_count == 0
        assert list(system.get_stream("empty")) == []
        assert system.get("empty") == b""

    def test_equivalent_to_put(self):
        """put and put_stream produce documents with identical lattice content."""
        payload = document_bytes(7 * BLOCK + 9)
        via_put = make_system()
        via_stream = make_system()
        doc_put = via_put.put("doc", payload)
        doc_stream = via_stream.put_stream("doc", chunked(payload, 333))
        assert doc_put.data_ids == doc_stream.data_ids
        assert doc_put.length == doc_stream.length
        for data_id in doc_put.data_ids:
            assert np.array_equal(via_put.get_block(data_id), via_stream.get_block(data_id))
        for index in range(1, len(doc_put.data_ids) + 1):
            for cls in via_put.scheme.params.strand_classes:
                parity = ParityId(index, cls)
                assert np.array_equal(via_put.get_block(parity), via_stream.get_block(parity))

    def test_get_stream_unknown_document(self):
        with pytest.raises(UnknownBlockError):
            make_system().get_stream("nope")

    def test_multiple_documents_share_the_lattice(self):
        system = make_system()
        first = document_bytes(2 * BLOCK + 3, seed=1)
        second = document_bytes(3 * BLOCK + 1, seed=2)
        system.put_stream("first", [first])
        system.put_stream("second", [second])
        assert b"".join(system.get_stream("first")) == first
        assert b"".join(system.get_stream("second")) == second


class TestWholeStripeChunks:
    """A streamed write is cut at whole stripes, so it stores exactly what
    one ``put`` of the same bytes stores: no zero-padded stripe at a chunk
    boundary, whether ``put_stream`` or a re-encode does the streaming."""

    SIZE = 300 * 64  # 300 blocks: several chunks even at the default 256

    @staticmethod
    def stored(scheme, batch_blocks, write):
        """``(blocks, bytes)`` stored after ``write(service, payload)`` on a
        fresh ``scheme`` service."""
        service = StorageService.open(
            StorageConfig(scheme=scheme, topology=20, block_size=64, batch_blocks=batch_blocks)
        )
        payload = document_bytes(TestWholeStripeChunks.SIZE, seed=7)
        write(service, payload)
        assert service.get("doc") == payload
        status = service.status()
        return status.blocks, status.bytes_stored

    @pytest.mark.parametrize("scheme", ["rs-10-4", "lrc-azure"])
    @pytest.mark.parametrize("batch_blocks", [1, 4, 7, 256])
    def test_stream_and_reencode_store_what_a_put_stores(self, scheme, batch_blocks):
        def put(service, payload):
            service.put("doc", payload)

        def put_stream(service, payload):
            service.put_stream("doc", chunked(payload, 1000))

        def reencode(service, payload):
            service.put("doc", payload)
            service.transition_to(scheme)

        expected = self.stored(scheme, batch_blocks, put)
        assert self.stored(scheme, batch_blocks, put_stream) == expected
        assert self.stored("rep-3", batch_blocks, reencode) == expected


class TestStreamingUnderFailures:
    """Property-style: encode -> corrupt -> repair -> decode, several settings."""

    @pytest.mark.parametrize(
        "spec", ["AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)", "AE(3,5,5)"]
    )
    def test_degraded_stream_reads(self, spec):
        params = AEParameters.parse(spec)
        system = make_system(params=params, locations=40)
        payload = document_bytes(40 * BLOCK + 11)
        system.put_stream("doc", chunked(payload, 1000))
        # Single-location losses are always recoverable for every setting.
        system.fail_locations([0, 1] if params.alpha == 1 else list(range(8)))
        assert b"".join(system.get_stream("doc")) == payload

    @pytest.mark.parametrize("spec", ["AE(2,2,5)", "AE(3,2,5)", "AE(3,5,5)"])
    def test_repair_then_stream(self, spec):
        params = AEParameters.parse(spec)
        system = make_system(params=params, locations=40)
        payload = document_bytes(30 * BLOCK)
        system.put_stream("doc", chunked(payload, 512))
        system.fail_locations(range(12))  # 30% disaster
        report = system.repair()
        assert report.data_loss == 0
        assert system.status().unavailable_blocks == 0
        assert b"".join(system.get_stream("doc")) == payload


class TestBlockStoreBulk:
    def make_items(self, count, size=16):
        rng = np.random.default_rng(0)
        return [
            (DataId(index + 1), rng.integers(0, 256, size=size, dtype=np.uint8))
            for index in range(count)
        ]

    def test_put_many_and_get_many(self):
        store = BlockStore(0)
        items = self.make_items(5)
        assert store.put_many(items) == 5
        assert store.block_count == 5
        assert store.write_count == 5
        payloads = store.try_get_many([block_id for block_id, _ in items])
        for (_, want), got in zip(items, payloads):
            assert np.array_equal(want, got)
        assert store.read_count == 5

    def test_put_many_respects_capacity_atomically(self):
        store = BlockStore(0, capacity_blocks=3)
        with pytest.raises(StorageFullError):
            store.put_many(self.make_items(5))
        # All-or-nothing: the failed batch stored nothing.
        assert store.block_count == 0

    def test_put_many_counts_overwrites_within_capacity(self):
        store = BlockStore(0, capacity_blocks=3)
        items = self.make_items(3)
        store.put_many(items)
        store.put_many(items)  # overwrites fit: no new blocks
        assert store.block_count == 3

    def test_bulk_ops_unavailable_location(self):
        store = BlockStore(0)
        store.put_many(self.make_items(2))
        store.fail()
        with pytest.raises(BlockUnavailableError):
            store.put_many(self.make_items(1))
        assert store.try_get_many([DataId(1)]) == [None]

    def test_get_many_unknown_block(self):
        store = BlockStore(0)
        assert store.try_get_many([DataId(99)]) == [None]


class TestClusterBulk:
    def make_items(self, count, size=16):
        rng = np.random.default_rng(1)
        return [
            (DataId(index + 1), rng.integers(0, 256, size=size, dtype=np.uint8))
            for index in range(count)
        ]

    def test_put_many_matches_per_block_placement(self):
        items = self.make_items(40)
        bulk = StorageCluster(10)
        single = StorageCluster(10)
        bulk.put_many(items)
        for item in items:
            single.put_many([item])
        for block_id, _ in items:
            assert bulk.location_of(block_id) == single.location_of(block_id)

    def test_get_many_round_trip_in_request_order(self):
        cluster = StorageCluster(7)
        items = self.make_items(20)
        assert cluster.put_many(items) == 20
        wanted = [items[13][0], items[2][0], items[19][0]]
        payloads = cluster.try_get_many(wanted)
        assert np.array_equal(payloads[0], items[13][1])
        assert np.array_equal(payloads[1], items[2][1])
        assert np.array_equal(payloads[2], items[19][1])

    def test_get_many_unknown_block(self):
        cluster = StorageCluster(3)
        assert cluster.try_get_many([DataId(1)]) == [None]
