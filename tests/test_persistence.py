"""Close/reopen round trips of a durable StorageService (disk and segment).

These are the acceptance tests of the persistence layer: a service configured
with ``backend="disk"`` or ``"segment"`` is closed and reconstructed on the
same root path, then must serve byte-exact ``get`` / ``get_stream``, run
``repair`` on the pre-existing data, and keep accepting writes (for AE this
exercises the paper's broker crash recovery: strand heads are refetched from
storage, Sec. IV-A).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro import open_service
from repro.core.blocks import DataId, ParityId
from repro.core.xor import payloads_equal
from repro.exceptions import InvalidParametersError
from repro.storage.backends import SegmentLogBackend, decode_block_id, encode_block_id
from repro.storage.block_store import BlockStore
from repro.storage.wal import WAL_NAME, MetadataWAL, scan_wal
from repro.system.service import StorageConfig, StorageService
from tests.conftest import segment_records

BACKENDS = ["disk", "segment"]
#: One scheme per family: the streaming AE lattice and an erasable stripe code.
SCHEMES = ["ae-3-2-5", "rs-10-4"]


def config(scheme, backend, root, **overrides):
    base = dict(
        scheme=scheme,
        topology=20,
        block_size=512,
        backend=backend,
        data_dir=str(root),
    )
    base.update(overrides)
    return StorageConfig(**base)


def workload(seed=11, size=40_000) -> bytes:
    return random.Random(seed).randbytes(size)


def assert_encoded_id_runs(entries) -> None:
    """Every catalogue entry is an ``encode_block_id`` string or a
    ``[string, count]`` run -- never a raw id, which ``json`` would happily
    write as a list now that ids are tuples (``[3]``, ``[3, 1]``)."""
    assert entries
    for entry in entries:
        key = entry
        if not isinstance(entry, str):
            key, count = entry
            assert isinstance(count, int) and count > 1
        assert isinstance(key, str)
        assert encode_block_id(decode_block_id(key)) == key


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme", SCHEMES)
class TestServiceReopen:
    def test_wal_and_manifest_hold_only_encoded_ids(self, scheme, backend, tmp_path):
        service = StorageService.open(config(scheme, backend, tmp_path))
        documents = {"run": workload(), "single": workload(seed=12, size=100)}
        for name, payload in documents.items():
            service.put(name, payload)
        # Before any checkpoint folds the log into the manifest.
        groups, _ = scan_wal(os.path.join(str(tmp_path), "wal.log"))
        logged = [op for group in groups for op in group.ops if "data_ids" in op]
        assert {op["name"] for op in logged} == set(documents)
        for op in logged:
            assert_encoded_id_runs(op["data_ids"])
        service.close()
        with open(os.path.join(str(tmp_path), "manifest.json")) as handle:
            manifest = json.load(handle)
        assert set(manifest["documents"]) == set(documents)
        for entry in manifest["documents"].values():
            assert_encoded_id_runs(entry["data_ids"])

        reopened = StorageService.open(config(scheme, backend, tmp_path))
        for name, payload in documents.items():
            assert reopened.get(name) == payload
        reopened.close()

    def test_byte_exact_get_and_stream_after_reopen(self, scheme, backend, tmp_path):
        payload = workload()
        service = StorageService.open(config(scheme, backend, tmp_path))
        service.put("doc", payload)
        service.put_stream("streamed", [payload[:999], payload[999:]])
        service.close()

        reopened = StorageService.open(config(scheme, backend, tmp_path))
        assert set(reopened.documents) == {"doc", "streamed"}
        assert reopened.get("doc") == payload
        assert b"".join(reopened.get_stream("streamed")) == payload
        reopened.close()

    def test_repair_preexisting_data_after_reopen(self, scheme, backend, tmp_path):
        payload = workload()
        service = StorageService.open(config(scheme, backend, tmp_path))
        service.put("doc", payload)
        service.close()

        reopened = StorageService.open(config(scheme, backend, tmp_path))
        reopened.fail_locations([0, 1])
        report = reopened.repair()
        assert report.data_loss == 0
        assert reopened.get("doc") == payload
        # Repaired blocks were rewritten to healthy locations: the document
        # still reads byte-exact after yet another close/reopen cycle.
        reopened.close()
        third = StorageService.open(config(scheme, backend, tmp_path))
        assert third.get("doc") == payload
        third.close()

    def test_writes_continue_after_reopen(self, scheme, backend, tmp_path):
        first = workload(seed=1)
        second = workload(seed=2, size=10_000)
        service = StorageService.open(config(scheme, backend, tmp_path))
        service.put("first", first)
        service.close()

        reopened = StorageService.open(config(scheme, backend, tmp_path))
        reopened.put("second", second)
        assert reopened.get("first") == first
        assert reopened.get("second") == second
        reopened.close()

        third = StorageService.open(config(scheme, backend, tmp_path))
        assert third.get("first") == first
        assert third.get("second") == second
        third.close()

    def test_close_is_idempotent_and_context_manager_closes(
        self, scheme, backend, tmp_path
    ):
        payload = workload(size=5_000)
        with StorageService.open(config(scheme, backend, tmp_path)) as service:
            service.put("doc", payload)
        service.close()  # second close is a no-op
        with StorageService.open(config(scheme, backend, tmp_path)) as reopened:
            assert reopened.get("doc") == payload


@pytest.mark.parametrize("backend", BACKENDS)
class TestManifest:
    def test_put_is_durable_before_close(self, backend, tmp_path):
        # No close()/flush() yet: the mutation must already be committed to
        # the WAL, so a copy of the directory (= a crash image) reopens with
        # the document catalogued and byte-exact.
        payload = workload(size=4_000)
        service = StorageService.open(config("rs-10-4", backend, tmp_path))
        service.put("doc", payload)
        crash_dir = tmp_path.parent / f"{tmp_path.name}-crash-image"
        shutil.copytree(tmp_path, crash_dir)
        service.close()
        reopened = StorageService.open(config("rs-10-4", backend, crash_dir))
        assert reopened.get("doc") == payload
        reopened.close()

    def test_flush_collapses_wal_into_manifest(self, backend, tmp_path):
        # After flush() the manifest alone describes the catalogue (the WAL
        # is empty), so external tooling may read it directly.
        service = StorageService.open(config("rs-10-4", backend, tmp_path))
        service.put("doc", workload(size=4_000))
        service.flush()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scheme"] == "rs-10-4"
        assert "doc" in manifest["documents"]
        assert (tmp_path / "wal.log").stat().st_size == 0
        service.close()

    def test_delete_updates_manifest(self, backend, tmp_path):
        service = StorageService.open(config("rs-10-4", backend, tmp_path))
        service.put("doc", workload(size=4_000))
        service.delete("doc")
        service.close()
        reopened = StorageService.open(config("rs-10-4", backend, tmp_path))
        assert reopened.documents == {}
        reopened.close()

    def test_delete_uncatalogues_before_reclaiming(self, backend, tmp_path, monkeypatch):
        # A crash mid-delete must leave orphan blocks, never a catalogued
        # document whose payloads are gone.
        service = StorageService.open(config("rs-10-4", backend, tmp_path))
        service.put("doc", workload(size=8_000))
        # The reclaim reaches each location as one delete_many batch.
        monkeypatch.setattr(
            BlockStore,
            "delete_many",
            lambda store, block_ids: (_ for _ in ()).throw(RuntimeError),
        )
        with pytest.raises(RuntimeError):
            service.delete("doc")
        monkeypatch.undo()
        service.flush()
        reopened = StorageService.open(config("rs-10-4", backend, tmp_path))
        assert reopened.documents == {}  # catalogue already committed
        reopened.close()

    def test_delete_while_location_down_does_not_resurrect_blocks(
        self, backend, tmp_path
    ):
        service = StorageService.open(config("rs-10-4", backend, tmp_path))
        service.put("doc", workload(size=8_000))
        service.fail_locations([0, 1])
        service.delete("doc")
        service.close()
        reopened = StorageService.open(config("rs-10-4", backend, tmp_path))
        status = reopened.status()
        assert status.documents == 0
        assert status.blocks == 0
        assert status.bytes_stored == 0
        reopened.close()

    def test_corrupt_manifest_is_rejected_with_clear_error(self, backend, tmp_path):
        service = StorageService.open(config("rs-10-4", backend, tmp_path))
        service.put("doc", workload(size=4_000))
        service.close()
        (tmp_path / "manifest.json").write_text("{ torn")
        with pytest.raises(InvalidParametersError, match="corrupt service manifest"):
            StorageService.open(config("rs-10-4", backend, tmp_path))

    def test_scheme_mismatch_is_rejected(self, backend, tmp_path):
        service = StorageService.open(config("rs-10-4", backend, tmp_path))
        service.put("doc", workload(size=4_000))
        service.close()
        with pytest.raises(InvalidParametersError):
            StorageService.open(config("rep-3", backend, tmp_path))

    def test_backend_mismatch_is_rejected(self, backend, tmp_path):
        service = StorageService.open(config("rs-10-4", backend, tmp_path))
        service.put("doc", workload(size=4_000))
        service.close()
        other = "disk" if backend == "segment" else "segment"
        with pytest.raises(InvalidParametersError, match="backend"):
            StorageService.open(config("rs-10-4", other, tmp_path))

    def test_new_version_is_catalogued_before_old_blocks_are_reclaimed(
        self, backend, tmp_path, monkeypatch
    ):
        v1, v2 = workload(seed=1, size=8_000), workload(seed=2, size=8_000)
        service = StorageService.open(config("rs-10-4", backend, tmp_path))
        service.put("doc", v1)
        # Simulate a crash between the manifest sync and the reclaim of the
        # old version's blocks: the committed catalogue must already name v2.
        monkeypatch.setattr(
            service, "_reclaim", lambda *_version: (_ for _ in ()).throw(RuntimeError)
        )
        with pytest.raises(RuntimeError):
            service.put("doc", v2)
        service.flush()
        reopened = StorageService.open(config("rs-10-4", backend, tmp_path))
        assert reopened.get("doc") == v2
        reopened.close()

    def test_block_size_mismatch_is_rejected(self, backend, tmp_path):
        service = StorageService.open(config("rs-10-4", backend, tmp_path))
        service.close()
        with pytest.raises(InvalidParametersError):
            StorageService.open(config("rs-10-4", backend, tmp_path, block_size=1024))

    def test_custom_placement_must_be_supplied_on_reopen(self, backend, tmp_path):
        from repro.storage.placement import RandomPlacement

        payload = workload(size=6_000)
        placement = RandomPlacement(20, seed=99)
        service = StorageService.open(
            config("rs-10-4", backend, tmp_path, placement=placement)
        )
        service.put("doc", payload)
        service.close()
        with pytest.raises(InvalidParametersError, match="custom placement"):
            StorageService.open(config("rs-10-4", backend, tmp_path))
        reopened = StorageService.open(
            config("rs-10-4", backend, tmp_path, placement=RandomPlacement(20, seed=99))
        )
        assert reopened.get("doc") == payload
        reopened.close()

    def test_seed_survives_reopen(self, backend, tmp_path):
        service = StorageService.open(config("rs-10-4", backend, tmp_path, seed=42))
        service.put("doc", workload(size=4_000))
        service.close()
        reopened = StorageService.open(config("rs-10-4", backend, tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 42
        reopened.close()

    def test_location_count_comes_from_manifest(self, backend, tmp_path):
        payload = workload(size=6_000)
        service = StorageService.open(
            config("rs-10-4", backend, tmp_path, topology=14)
        )
        service.put("doc", payload)
        service.close()
        # A reopen without an explicit topology follows the manifest
        # instead of spreading blocks over phantom locations ...
        reopened = StorageService.open(
            config("rs-10-4", backend, tmp_path, topology=None)
        )
        assert reopened.cluster.location_count == 14
        assert reopened.get("doc") == payload
        reopened.close()
        # ... while an explicitly contradicting one is rejected.
        with pytest.raises(InvalidParametersError, match="14 locations"):
            StorageService.open(config("rs-10-4", backend, tmp_path, topology=100))

    def test_a_directory_written_before_the_location_count_option_went_reopens(
        self, backend, tmp_path
    ):
        """``StorageConfig.location_count`` retired into ``topology`` without a
        format change: the literal below is the ``manifest.json`` the parent
        of that change (407e8d4) wrote for this very workload -- a flat layout
        is still stored as its ``location_count`` key and nothing else."""
        parent_manifest = (
            '{"format": 1, "scheme": "rs-10-4", "block_size": 512, '
            f'"location_count": 14, "backend": "{backend}", "seed": 0, '
            '"custom_placement": false, "scheme_state": {"next_stripe": 2, '
            '"real_count": {"1": 2}}, "documents": {"doc": {"data_ids": '
            '[["s-0-0", 10], ["s-1-0", 2]], "length": 6000}}}'
        )
        payload = workload(size=6_000)
        service = StorageService.open(config("rs-10-4", backend, tmp_path, topology=14))
        service.put("doc", payload)
        service.close()
        path = tmp_path / "manifest.json"
        assert json.loads(path.read_text()) == json.loads(parent_manifest)
        # Reopen from the parent's bytes: no topology named, then the same one.
        for topology in (None, 14, "14"):
            path.write_text(parent_manifest)
            reopened = StorageService.open(
                config("rs-10-4", backend, tmp_path, topology=topology)
            )
            assert reopened.cluster.location_count == 14
            assert reopened.topology.is_flat()
            assert reopened.get("doc") == payload
            reopened.close()
            assert json.loads(path.read_text()) == json.loads(parent_manifest)
        # A count that contradicts the stored one is a topology mismatch ...
        with pytest.raises(InvalidParametersError, match="different topology"):
            StorageService.open(config("rs-10-4", backend, tmp_path, topology=15))
        # ... and a flat manifest pins the count alone: sites may be named.
        reopened = StorageService.open(
            config("rs-10-4", backend, tmp_path, topology="sites=2,nodes=7")
        )
        assert reopened.get("doc") == payload
        reopened.close()
        assert "topology" in json.loads(path.read_text())

    def test_manifest_stores_id_runs_not_per_block_strings(self, backend, tmp_path):
        service = StorageService.open(config("rs-10-4", backend, tmp_path))
        service.put("doc", workload(size=40_000))  # ~79 data blocks
        document = service.documents["doc"]
        service.flush()  # checkpoint the WAL so the manifest holds the doc
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        entries = manifest["documents"]["doc"]["data_ids"]
        # Run-length encoding keeps the catalogue O(stripes), not O(blocks).
        assert len(entries) < document.block_count / 5
        service.close()
        reopened = StorageService.open(config("rs-10-4", backend, tmp_path))
        assert reopened.documents["doc"].data_ids == document.data_ids
        reopened.close()


def test_volatile_backend_with_data_dir_is_rejected(tmp_path):
    # A memory backend cannot honour a manifest on reopen; combining it
    # with data_dir must fail loudly instead of writing one.
    with pytest.raises(InvalidParametersError, match="persistent backend"):
        StorageService.open(config("rs-10-4", "memory", tmp_path))
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("backend", BACKENDS)
def test_repair_does_not_leak_stale_copies(backend, tmp_path):
    """Repair + restore must reclaim the failed location's stale copies."""
    payload = workload()
    service = StorageService.open(config("rs-10-4", backend, tmp_path))
    service.put("doc", payload)
    blocks = service.status().blocks
    bytes_before = service.status().bytes_stored
    service.fail_locations([0, 1])
    service.repair()
    service.restore_locations()
    assert service.get("doc") == payload
    # Directory entries and physical copies agree again.
    physical = sum(
        len(list(store.block_ids())) for store in service.cluster.locations()
    )
    assert physical == blocks
    assert service.status().bytes_stored == bytes_before
    service.close()
    # And the reconciled state survives a reopen.
    reopened = StorageService.open(config("rs-10-4", backend, tmp_path))
    physical = sum(
        len(list(store.block_ids())) for store in reopened.cluster.locations()
    )
    assert physical == blocks
    assert reopened.status().bytes_stored == bytes_before
    assert reopened.get("doc") == payload
    reopened.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_scheme_instance_config_reopens_its_own_data_dir(backend, tmp_path):
    import repro.schemes as schemes

    payload = workload(size=6_000)
    # The config carries a scheme *instance* with a non-default block size;
    # the manifest must validate against the scheme, not config.block_size.
    first = StorageService.open(
        StorageConfig(
            scheme=schemes.get("rs-10-4", block_size=512),
            topology=20, backend=backend, data_dir=str(tmp_path),
        )
    )
    first.put("doc", payload)
    first.close()
    reopened = StorageService.open(
        StorageConfig(
            scheme=schemes.get("rs-10-4", block_size=512),
            topology=20, backend=backend, data_dir=str(tmp_path),
        )
    )
    assert reopened.get("doc") == payload
    reopened.close()


class TestStatusCounters:
    def test_cache_counters_reach_service_status(self, tmp_path):
        service = StorageService.open(config("rs-10-4", "disk", tmp_path))
        payload = workload(size=8_000)
        service.put("doc", payload)
        assert service.get("doc") == payload
        assert service.get("doc") == payload
        status = service.status()
        assert status.cache_misses > 0
        assert status.cache_hits > 0
        service.close()


class TestCliPersistence:
    def test_ingest_then_reopen(self, tmp_path):
        from repro.cli import ingest_main

        sample = tmp_path / "sample.bin"
        sample.write_bytes(workload(size=30_000))
        data_dir = tmp_path / "store"
        rc = ingest_main(
            [
                str(sample),
                "--scheme",
                "rs-10-4",
                "--backend",
                "segment",
                "--data-dir",
                str(data_dir),
                "--block-size",
                "512",
                "--verify",
            ]
        )
        assert rc == 0
        reopened = StorageService.open(
            StorageConfig(
                scheme="rs-10-4", block_size=512, backend="segment",
                data_dir=str(data_dir),
            )
        )
        assert reopened.get("ingest") == sample.read_bytes()
        reopened.close()

    def test_persistent_backend_requires_data_dir(self, capsys):
        from repro.cli import ingest_main

        with pytest.raises(SystemExit):
            ingest_main(["missing.bin", "--backend", "disk"])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme", ["ae-3-2-5", "ae-3-2-5-p75"])
class TestReopenAfterLosingADisk:
    """A location's sub-root disappears between close and open.  Half the
    locations hold a strand head, so the encoder's state has to be rebuilt
    through repair like any other unreadable block (PR 24: ``open`` used to
    refuse -- ``cannot restore encoder state: parity p[318,rh] unavailable``
    -- a two-read single failure)."""

    @staticmethod
    def filled(scheme, backend, root):
        service = StorageService.open(
            config(scheme, backend, root, block_size=64, seed=0)
        )
        documents = {
            f"doc{i}": bytes((i * 7 + j) % 251 for j in range(2048)) for i in range(10)
        }
        for name, data in documents.items():
            service.put(name, data)
        return service, documents

    @classmethod
    def reopened_without_a_head_disk(cls, scheme, backend, root):
        service, documents = cls.filled(scheme, backend, root)
        cluster = service.cluster
        heads = [h for h in service.scheme.entangler.strand_head_ids() if cluster.knows(h)]
        victim = min(map(cluster.location_of, heads))
        stored = service.status().blocks
        service.close()
        shutil.rmtree(root / f"loc-{victim:04d}")
        return StorageService.open(config(scheme, backend, root, block_size=64)), documents, stored

    def test_reopens_reads_and_keeps_entangling(self, scheme, backend, tmp_path):
        service, documents, _ = self.reopened_without_a_head_disk(
            scheme, backend, tmp_path / "lost"
        )
        twin, _ = self.filled(scheme, backend, tmp_path / "twin")
        for name, data in documents.items():
            assert service.get(name) == data
        late = workload(seed=5, size=3_000)
        for each in (service, twin):
            each.put("late", late)
            assert each.get("late") == late
        # The new blocks chained onto the rebuilt heads: every parity they
        # created equals the one a service that never lost the disk computed.
        classes = twin.scheme.params.strand_classes
        for data_id in twin.documents["late"].data_ids:
            for strand_class in classes:
                parity = ParityId(data_id.index, strand_class)
                assert payloads_equal(service.get_block(parity), twin.get_block(parity))
        service.close()
        twin.close()

    def test_blocks_of_the_lost_disk_are_forgotten_not_repaired(
        self, scheme, backend, tmp_path
    ):
        """Not fixed by PR 24, pinned so ROADMAP item 1 changes it on purpose:
        the directory is rebuilt from what the backends still hold, so the
        lost blocks are not *unavailable*, they are unknown -- reads survive
        (they repair on demand) but ``repair()`` never restores the lost
        redundancy (``docs/performance.md``, PR 24)."""
        service, documents, stored = self.reopened_without_a_head_disk(
            scheme, backend, tmp_path / "lost"
        )
        status = service.status()
        assert status.blocks < stored
        assert status.unavailable_blocks == 0
        assert service.repair().repaired_count == 0
        assert service.status().blocks == status.blocks
        for name, data in documents.items():
            assert service.get(name) == data
        service.close()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_rot_in_one_segment_record_is_repaired_not_truncated(scheme, tmp_path):
    """One flipped byte in one block of a closed ``segment`` service: reopen
    drops that block only (the location used to be truncated from the rotten
    record on, losing every later block it held) and ``get`` is byte-exact
    through repair."""
    service = StorageService.open(config(scheme, "segment", tmp_path, seed=0))
    documents = {f"doc{i}": workload(seed=i, size=12_000) for i in range(3)}
    for name, data in documents.items():
        service.put(name, data)
    victim = max(
        range(service.cluster.location_count),
        key=lambda location: len(service.cluster.location(location)),
    )
    held = set(service.cluster.location(victim).block_ids())
    service.close()
    log = os.path.join(str(tmp_path), f"loc-{victim:04d}", "segments", "seg-00000000.log")
    offset, key, _, record_len = [record for record in segment_records(log) if record[1]][0]
    with open(log, "r+b") as handle:
        handle.seek(offset + record_len - 1)
        value = handle.read(1)[0]
        handle.seek(offset + record_len - 1)
        handle.write(bytes([value ^ 0xFF]))

    reopened = StorageService.open(config(scheme, "segment", tmp_path))
    assert set(reopened.cluster.location(victim).block_ids()) == held - {decode_block_id(key)}
    for name, data in documents.items():
        assert reopened.get(name) == data
    reopened.close()


def published(path) -> tuple:
    """A metadata file's inode and bytes.  ``write_json`` publishes by
    rename, so the same inode means the file was not rewritten."""
    return os.stat(path).st_ino, path.read_bytes()


class TestCleanReopenWritesNoMetadata:
    """Close -> open with an empty WAL: the manifests the close wrote are
    adopted, never republished, and no segment log is scanned."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scheme", ["ae-3-2-5", "ae-3-2-5-p80", "rs-10-4", "rep-3"])
    def test_the_manifest_keeps_its_inode_and_bytes(self, scheme, backend, tmp_path, monkeypatch):
        documents = {"a": workload(seed=1, size=9_000), "b": workload(seed=2, size=700)}
        service = StorageService.open(config(scheme, backend, tmp_path))
        for name, data in documents.items():
            service.put(name, data)
        service.delete("b")
        service.close()
        manifest = published(tmp_path / "manifest.json")
        monkeypatch.setattr(
            SegmentLogBackend, "_scan_segment", lambda *args, **kwargs: pytest.fail("scanned")
        )
        reopened = StorageService.open(config(scheme, backend, tmp_path))
        # Before: the open republished the same bytes under a new inode.
        assert published(tmp_path / "manifest.json") == manifest
        assert os.path.getsize(tmp_path / "wal.log") == 0
        assert reopened.get("a") == documents["a"]
        reopened.close()

    def test_a_federation_keeps_every_manifest(self, tmp_path, monkeypatch):
        sharded = config("ae-3-2-5", "segment", tmp_path, shards=2)
        service = open_service(sharded)
        documents = {f"doc-{i}": workload(seed=i, size=3_000) for i in range(8)}
        for name, data in documents.items():
            service.put(name, data)
        service.close()
        paths = [tmp_path / "federation.json", *sorted(tmp_path.glob("shard-*/manifest.json"))]
        assert len(paths) == 3
        before = [published(path) for path in paths]
        monkeypatch.setattr(
            SegmentLogBackend, "_scan_segment", lambda *args, **kwargs: pytest.fail("scanned")
        )
        reopened = open_service(sharded)
        assert [published(path) for path in paths] == before
        for name, data in documents.items():
            assert reopened.get(name) == data
        reopened.close()

    def test_a_reopen_that_names_more_is_published_at_open(self, tmp_path):
        # A flat manifest pins the location count alone; naming sites over it
        # changes what the manifest records, so the open republishes it (a
        # crash before the close must not lose the layout).
        service = StorageService.open(config("rs-10-4", "segment", tmp_path, topology=14))
        service.put("doc", workload(size=6_000))
        service.close()
        before = published(tmp_path / "manifest.json")
        reopened = StorageService.open(
            config("rs-10-4", "segment", tmp_path, topology="sites=2,nodes=7")
        )
        assert published(tmp_path / "manifest.json") != before
        assert "topology" in json.loads((tmp_path / "manifest.json").read_text())
        reopened.close()

    def test_a_committed_wal_tail_is_still_absorbed(self, tmp_path):
        service = StorageService.open(config("ae-3-2-5", "segment", tmp_path / "live"))
        service.put("a", workload(seed=1, size=5_000))
        service.flush()
        service.put("b", workload(seed=2, size=5_000))
        # A kill: the WAL holds b's committed put, the manifest only a.
        shutil.copytree(tmp_path / "live", tmp_path / "crash")
        service.close()
        assert scan_wal(str(tmp_path / "crash" / "wal.log"))[0]
        reopened = StorageService.open(config("ae-3-2-5", "segment", tmp_path / "crash"))
        assert os.path.getsize(tmp_path / "crash" / "wal.log") == 0
        manifest = json.loads((tmp_path / "crash" / "manifest.json").read_text())
        assert set(manifest["documents"]) == {"a", "b"}
        assert reopened.get("b") == workload(seed=2, size=5_000)
        reopened.close()


class TestRottenMetadataIsRefusedTyped:
    """Regression: a ``manifest.json`` holding non-UTF-8 bytes, ``[]``,
    ``null`` or a non-integer ``format`` escaped ``open`` as a raw
    ``UnicodeDecodeError`` / ``AttributeError`` / ``AttributeError`` /
    ``ValueError``, and a ``federation.json`` did the same for the last
    three.  Both files go through one reader that refuses each one typed,
    naming the file."""

    PAYLOADS = {
        "not-utf8": b"\xff\xfe{}",
        "list": b"[]",
        "null": b"null",
        "bad-format": b'{"format": "x"}',
    }

    @pytest.mark.parametrize("payload", PAYLOADS.values(), ids=list(PAYLOADS))
    @pytest.mark.parametrize("name,shards", [("manifest.json", None), ("federation.json", 2)])
    def test_each_rotten_file_is_an_invalid_parameters_error(
        self, name, shards, payload, tmp_path
    ):
        durable = config("rep-3", "segment", tmp_path, topology=6, shards=shards)
        with open_service(durable) as service:
            service.put("doc", workload(size=1_000))
        (tmp_path / name).write_bytes(payload)
        with pytest.raises(InvalidParametersError) as refused:
            open_service(durable)
        assert name in str(refused.value)
        if name == "manifest.json" and payload != self.PAYLOADS["bad-format"]:
            assert "corrupt service manifest" in str(refused.value)


class TestRottenCatalogueEntryIsRefused:
    """Regression: the catalogue reader trusted every run count and
    ``length``.  A ``["d-1", 0]`` run reopened a 300-byte document as 0
    bytes, ``length`` 100000 served 320 bytes and -5 served 315, and a
    non-integer count, a three-item run, a bare number or a missing
    ``length`` escaped ``open`` as a raw ``ValueError`` / ``TypeError`` /
    ``KeyError``.  Manifest and WAL entries go through one reader that
    refuses each one typed, naming the file and the document."""

    EDITS = {
        "zero-count": ("data_ids", [["d-1", 0]]),
        "negative-count": ("data_ids", [["d-1", -2]]),
        "text-count": ("data_ids", [["d-1", "five"]]),
        "three-items": ("data_ids", [["d-1", 5, 1]]),
        "bare-number": ("data_ids", [7]),
        "long-length": ("length", 100_000),
        "negative-length": ("length", -5),
        "no-length": ("length", None),
    }

    @staticmethod
    def durable(tmp_path):
        return config("ae-3-2-5", "segment", tmp_path, topology=12, block_size=64)

    def stored(self, tmp_path):
        with StorageService.open(self.durable(tmp_path)) as service:
            service.put("a", workload(size=300))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["documents"]["a"] == {"data_ids": [["d-1", 5]], "length": 300}
        return manifest

    @pytest.mark.parametrize("edit", EDITS.values(), ids=list(EDITS))
    def test_a_rotten_manifest_entry_is_refused(self, edit, tmp_path):
        manifest = self.stored(tmp_path)
        field, value = edit
        if value is None:
            del manifest["documents"]["a"][field]
        else:
            manifest["documents"]["a"][field] = value
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(InvalidParametersError) as refused:
            StorageService.open(self.durable(tmp_path))
        assert "manifest.json" in str(refused.value) and "'a'" in str(refused.value)

    def test_a_rotten_wal_entry_is_refused(self, tmp_path):
        self.stored(tmp_path)
        with MetadataWAL(str(tmp_path / WAL_NAME)) as wal:
            wal.commit([{"op": "put_doc", "name": "a", "data_ids": [["d-1", 0]], "length": 300}])
        with pytest.raises(InvalidParametersError) as refused:
            StorageService.open(self.durable(tmp_path))
        assert WAL_NAME in str(refused.value) and "'a'" in str(refused.value)

    @pytest.mark.parametrize("scheme", ["ae-3-2-5", "rs-4-2", "rep-3"])
    def test_every_put_length_reopens(self, scheme, tmp_path):
        durable = config(scheme, "segment", tmp_path, topology=12, block_size=64)
        documents = {f"doc-{size}": workload(size=size) for size in (0, 1, 64, 65, 300)}
        with StorageService.open(durable) as service:
            for name, data in documents.items():
                service.put(name, data)
        with StorageService.open(durable) as reopened:
            for name, data in documents.items():
                assert reopened.get(name) == data


class TestPublishedBytes:
    """``write_json`` publishes the bytes ``json.dump`` wrote before it went
    through ``json.dumps`` (recorded on ``e118288``): same separators, same
    ``\\u`` escapes for a non-ASCII name, same key order."""

    GOLDEN = {
        "manifest.json": "0b01d383eb3aa96ba6accc8ce13c98979d1c78cc02b0ba59ea798296240abbe4",
        "federation.json": "a4a4ef99b52d7f5bef63054bb963c0b6e1eaa79d574fef9994da50a04efd0b6c",
        "shard-00/manifest.json": "0b096837ce396a565a770b190fc66b8a55c3ce463b30db5ac8acd20d9e16f345",
        "shard-01/manifest.json": "521f79e6fa27bacb9dd0cf296039439117a9ec8776545b8e0ab04a0dfda14638",
    }

    @staticmethod
    def fill(service) -> None:
        for number, name in enumerate(("a", "résumé", "日本", "z" * 40)):
            service.put(name, workload(seed=number, size=1_000 + 733 * number))
        service.delete("a")

    @staticmethod
    def digests(root, names) -> dict:
        return {
            name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names
        }

    def test_a_service_manifest(self, tmp_path):
        service = StorageService.open(config("ae-3-2-5-p80", "segment", tmp_path, seed=3))
        self.fill(service)
        service.close()
        assert self.digests(tmp_path, ["manifest.json"]) == {
            "manifest.json": self.GOLDEN["manifest.json"]
        }

    def test_a_federation(self, tmp_path):
        service = open_service(config("rs-10-4", "segment", tmp_path, seed=3, shards=2))
        self.fill(service)
        service.close()
        names = ["federation.json", "shard-00/manifest.json", "shard-01/manifest.json"]
        assert self.digests(tmp_path, names) == {name: self.GOLDEN[name] for name in names}

    #: sha256 of ``manifest.json`` and ``wal.log`` after each step of
    #: :meth:`lifecycle`.  Recorded on
    #: ``34ad516``, before the catalogue left ``system/service.py``.
    LIFECYCLE_GOLDEN = {
        "open": {
            "manifest.json": "420fd53646e7b73ecfef9fd989ba2d0e36540045c96bdba3b499980bf03a7b86",
            "wal.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
        "put": {
            "manifest.json": "420fd53646e7b73ecfef9fd989ba2d0e36540045c96bdba3b499980bf03a7b86",
            "wal.log": "5af7c3854b43b9c8fd0662aac9b094555562befa0900df1a715685d260075765",
        },
        "overwrite": {
            "manifest.json": "420fd53646e7b73ecfef9fd989ba2d0e36540045c96bdba3b499980bf03a7b86",
            "wal.log": "54a3beb7f5eedb8408401cd11ab9c1b860ef1560f7b4e1ed8b237dc325baa399",
        },
        "delete": {
            "manifest.json": "420fd53646e7b73ecfef9fd989ba2d0e36540045c96bdba3b499980bf03a7b86",
            "wal.log": "02f651bca3ed45d62adf91247c903fce723d18494bc9063cb9c1e3cf2321aac0",
        },
        "alpha-raise": {
            "manifest.json": "a064d20dc709c61c42073318fd8740a306839a53fdc0f14e4fd735b8178e0081",
            "wal.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
        "scrub": {
            "manifest.json": "a064d20dc709c61c42073318fd8740a306839a53fdc0f14e4fd735b8178e0081",
            "wal.log": "6e87cf53d715d6c20c853b1810e83803a8ef14d972a69031f904ed95604f71de",
        },
        "reencode-cut": {
            "manifest.json": "833a02e0291d309f15dacb7d448bfbc92e8ab0e54b6847373a39f64e0f9dd6cf",
            "wal.log": "5e16663e21b3c9ef71e869e6bf28dc015f18357f8d4705c56a2ea68894ecf84b",
        },
        "reencode-resumed": {
            "manifest.json": "4927ba40639aa1031759a280e096773d52c50551c7ae5aced5c7179321b17c68",
            "wal.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
        "repair": {
            "manifest.json": "4927ba40639aa1031759a280e096773d52c50551c7ae5aced5c7179321b17c68",
            "wal.log": "83edca65ec757ab21c6d5bc23cc561bda77163834194af71673d31e636002a88",
        },
        "flush": {
            "manifest.json": "4927ba40639aa1031759a280e096773d52c50551c7ae5aced5c7179321b17c68",
            "wal.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
        "close": {
            "manifest.json": "22d1ad9ae93fb4cefd41ac1f6a279958eb4470fb693ebd5556212b377898b911",
            "wal.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
        "copy-cut-mid-group": {
            "manifest.json": "20d28cd535d141eed408b71d4b6ae33847c4fb62758e598cee058dc5a8d3f780",
            "wal.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    }

    @staticmethod
    def lifecycle(root, monkeypatch) -> dict:
        """One scripted life of a durable AE service, the catalogue's
        published bytes after each step."""
        steps = {}

        def record(step, directory=root) -> None:
            steps[step] = {
                name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
                for name in ("manifest.json", WAL_NAME)
            }

        durable = config(
            "ae-2-2-5", "segment", root, topology=8, block_size=64, batch_blocks=8, seed=5
        )
        service = StorageService.open(durable)
        record("open")
        service.put("a", workload(seed=1, size=300))
        service.put("b", workload(seed=2, size=200))
        record("put")
        service.put("a", workload(seed=3, size=450))
        record("overwrite")
        service.delete("b")
        record("delete")
        service.put("c", workload(seed=4, size=130))
        service.transition_to("ae-3-2-5")
        record("alpha-raise")
        cluster = service.cluster
        tampered = DataId(2)
        payload = cluster.try_get_many([tampered])[0]
        changed = np.frombuffer(bytes(payload), dtype=np.uint8) ^ 0xFF
        cluster.location(cluster.location_of(tampered)).put_many([(tampered, changed)])
        assert service.scrub().repaired == [tampered]
        record("scrub")

        original, landed = StorageService._land, []

        def cut_after_one_batch(self, batch):
            if landed:
                raise RuntimeError("injected crash")
            landed.append(batch)
            return original(self, batch)

        monkeypatch.setattr(StorageService, "_land", cut_after_one_batch)
        with pytest.raises(RuntimeError, match="injected crash"):
            service.transition_to("rs-4-2")
        monkeypatch.undo()
        record("reencode-cut")
        service.transition_to("rs-4-2")
        record("reencode-resumed")

        service.fail_locations([2])
        assert service.repair().data_loss == 0
        service.restore_locations()
        record("repair")

        service.flush()
        record("flush")

        service.put("d", workload(seed=5, size=260))
        service.put("e", workload(seed=6, size=70))
        copy = root.parent / (root.name + "-copy")
        shutil.copytree(root, copy)
        groups, _ = scan_wal(str(copy / WAL_NAME))
        middle = (groups[-2].end_offset + groups[-1].end_offset) // 2
        with open(copy / WAL_NAME, "r+b") as handle:
            handle.truncate(middle)
        service.close()
        record("close")
        reopened = StorageService.open(replace(durable, scheme="rs-4-2", data_dir=str(copy)))
        assert sorted(reopened.documents) == ["a", "c", "d"]
        record("copy-cut-mid-group", copy)
        reopened.close()
        return steps

    def test_a_lifecycle_of_the_catalogue(self, tmp_path, monkeypatch):
        steps = self.lifecycle(tmp_path / "live", monkeypatch)
        assert steps == self.LIFECYCLE_GOLDEN
