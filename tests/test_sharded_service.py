"""Tests for the sharded document namespace (repro.system.sharding).

The federation harness of ISSUE 9: cross-shard equivalence against a single
service for every required scheme family (including durable close/reopen of
every shard), rebalancing on join/leave with the
minimal-movement and byte-exactness acceptance bounds, per-shard fault
injection (location disasters and a torn-WAL crash image on one shard), and
the durable federation manifest's crash-resume protocol.
"""

from __future__ import annotations

import os
import random
import shutil

import pytest

from repro.exceptions import (
    InvalidParametersError,
    PlacementError,
    UnknownBlockError,
)
from repro.system.service import StorageConfig, StorageService
from repro.system.sharding import FEDERATION_NAME, ShardedStorageService
from tests.test_schemes import REQUIRED_IDS


def seeded_payload(seed: int, length: int) -> bytes:
    return random.Random(seed).randbytes(length)


def workload(doc_count: int = 12, block_size: int = 256) -> dict:
    """Deterministic documents of varied sizes (sub-block to multi-block)."""
    return {
        f"doc-{index:03d}": seeded_payload(
            index, (index % 7 + 1) * block_size + index * 13 % block_size
        )
        for index in range(doc_count)
    }


def open_federation(scheme_id: str = "ae-3-2-5", shards: int = 3, **overrides):
    config = StorageConfig(
        scheme=scheme_id, topology=24, block_size=256, seed=5, shards=shards
    )
    return ShardedStorageService.open(config, **overrides)


class TestConfigWiring:
    def test_plain_service_rejects_sharded_configs(self):
        with pytest.raises(InvalidParametersError):
            StorageService.open(StorageConfig(scheme="ae-1", shards=2))
        # shards=1 / None are the unsharded service itself.
        StorageService.open(StorageConfig(scheme="ae-1", shards=1))

    def test_federation_rejects_instances_and_bad_counts(self):
        from repro.schemes import get as get_scheme

        with pytest.raises(InvalidParametersError):
            ShardedStorageService.open(
                StorageConfig(scheme=get_scheme("ae-1"), shards=2)
            )
        with pytest.raises(InvalidParametersError):
            ShardedStorageService.open(StorageConfig(scheme="ae-1", shards=0))

    def test_shards_default_to_one(self):
        federation = ShardedStorageService.open(StorageConfig(scheme="ae-1"))
        assert federation.shard_count == 1
        federation.put("solo", b"payload")
        assert federation.get("solo") == b"payload"


class TestCrossShardEquivalence:
    """Same documents, sharded vs single service: byte-exact through every
    read path, for every required scheme family."""

    @pytest.mark.parametrize("scheme_id", REQUIRED_IDS)
    def test_sharded_reads_match_single_service(self, scheme_id):
        documents = workload()
        single = StorageService.open(
            StorageConfig(scheme=scheme_id, topology=24, block_size=256, seed=5)
        )
        federation = open_federation(scheme_id)
        for name, payload in documents.items():
            single.put(name, payload)
            federation.put(name, payload)
        for name, payload in documents.items():
            assert federation.get(name) == single.get(name) == payload
            assert b"".join(federation.get_stream(name)) == payload
        federation.close()

    @pytest.mark.parametrize("scheme_id", REQUIRED_IDS)
    def test_durable_federation_survives_close_and_reopen(self, scheme_id, tmp_path):
        documents = workload(doc_count=6)
        root = str(tmp_path / "federation")
        config = StorageConfig(
            scheme=scheme_id,
            topology=12,
            block_size=256,
            seed=5,
            shards=3,
            backend="disk",
            data_dir=root,
        )
        federation = ShardedStorageService.open(config)
        for name, payload in documents.items():
            federation.put(name, payload)
        placement = {name: federation.shard_for(name) for name in documents}
        federation.close()
        # Reopen adopts the stored membership (no shards= needed).
        reopened = ShardedStorageService.open(
            StorageConfig(
                scheme=scheme_id,
                topology=12,
                block_size=256,
                seed=5,
                backend="disk",
                data_dir=root,
            )
        )
        assert reopened.shard_count == 3
        for name, payload in documents.items():
            assert reopened.get(name) == payload
            assert b"".join(reopened.get_stream(name)) == payload
            assert reopened.shard_for(name) == placement[name]
        reopened.close()


class TestRebalance:
    def test_join_moves_a_bounded_fraction_and_stays_byte_exact(self):
        shards = 4
        federation = open_federation(shards=shards)
        documents = workload(doc_count=60)
        for name, payload in documents.items():
            federation.put(name, payload)
        before = {name: federation.get(name) for name in documents}
        assert before == documents
        report = federation.add_shard()
        # Acceptance bound: a join of an M-shard federation moves at most
        # 1.5/(M+1) of the documents.
        assert report.reason == "join"
        assert 0 < report.moved_fraction <= 1.5 / (shards + 1)
        assert report.total_documents == len(documents)
        # Every move targets the new shard (ring-delta only).
        new_shard = federation.shard_ids[-1]
        for name, (source, target) in report.moves.items():
            assert target == new_shard
            assert source != new_shard
            assert federation.shard_for(name) == new_shard
        for name, payload in documents.items():
            assert federation.get(name) == payload
            assert b"".join(federation.get_stream(name)) == payload

    def test_leave_rehomes_exactly_the_departing_documents(self):
        federation = open_federation(shards=4)
        documents = workload(doc_count=60)
        for name, payload in documents.items():
            federation.put(name, payload)
        victim = federation.shard_ids[1]
        victims_docs = set(federation.shard(victim).documents)
        assert victims_docs, "the departing shard should own some documents"
        report = federation.remove_shard(victim)
        assert set(report.moves) == victims_docs
        assert victim not in federation.shard_ids
        for name, payload in documents.items():
            assert federation.get(name) == payload
        assert len(federation.documents) == len(documents)

    def test_reads_stay_byte_exact_mid_move(self):
        """A document parked on a non-owner shard (the mid-move / crashed
        state) is still served byte-exact, and a resume re-homes it."""
        federation = open_federation(shards=3)
        payload = seeded_payload(99, 2000)
        federation.put("wanderer", payload)
        owner = federation.shard_for("wanderer")
        other = next(s for s in federation.shard_ids if s != owner)
        # Recreate the crash window: copy committed on the wrong shard,
        # owner's copy already gone.
        federation.shard(other).put_stream(
            "wanderer", federation.shard(owner).get_stream("wanderer")
        )
        federation.shard(owner).delete("wanderer")
        assert federation.get("wanderer") == payload  # fallback locate
        report = federation.rebalance(reason="resume")
        assert report.moves == {"wanderer": (other, owner)}
        assert federation.shard(owner).has_document("wanderer")
        assert federation.get("wanderer") == payload

    def test_move_resume_with_both_copies_present(self):
        """Crash after the target committed but before the source deleted:
        the resume drops the stale source copy without re-streaming."""
        federation = open_federation(shards=3)
        payload = seeded_payload(7, 1500)
        federation.put("dup", payload)
        owner = federation.shard_for("dup")
        other = next(s for s in federation.shard_ids if s != owner)
        federation.shard(other).put_stream("dup", iter([payload]))
        report = federation.rebalance(reason="resume")
        assert report.moves == {"dup": (other, owner)}
        assert report.bytes_moved == 0  # no re-stream, just the stale delete
        assert not federation.shard(other).has_document("dup")
        assert federation.get("dup") == payload

    def test_overwrite_drops_stale_copies(self):
        federation = open_federation(shards=3)
        federation.put("doc", b"a" * 600)
        owner = federation.shard_for("doc")
        other = next(s for s in federation.shard_ids if s != owner)
        federation.shard(other).put("doc", b"stale" * 100)
        federation.put("doc", b"b" * 600)
        assert not federation.shard(other).has_document("doc")
        assert federation.get("doc") == b"b" * 600

    def test_delete_removes_every_copy(self):
        federation = open_federation(shards=3)
        federation.put("doc", b"a" * 600)
        owner = federation.shard_for("doc")
        other = next(s for s in federation.shard_ids if s != owner)
        federation.shard(other).put("doc", b"stale" * 100)
        federation.delete("doc")
        assert not federation.has_document("doc")
        with pytest.raises(UnknownBlockError):
            federation.delete("doc")

    def test_cannot_remove_unknown_or_last_shard(self):
        federation = open_federation(shards=2)
        with pytest.raises(InvalidParametersError):
            federation.remove_shard(9)
        federation.remove_shard(1)
        with pytest.raises((InvalidParametersError, PlacementError)):
            federation.remove_shard(0)


class TestFaultInjection:
    def test_one_shards_disaster_never_blocks_the_others(self):
        federation = open_federation(shards=3)
        documents = workload(doc_count=30)
        for name, payload in documents.items():
            federation.put(name, payload)
        victim = federation.shard_ids[0]
        # Kill *every* location of one shard: an unrecoverable disaster.
        location_count = federation.shard(victim).service.cluster.location_count
        federation.fail_locations(range(location_count), victim)
        healthy = {
            name: payload
            for name, payload in documents.items()
            if federation.shard_for(name) != victim
        }
        assert healthy, "some documents should live on healthy shards"
        # Healthy-shard reads stay byte-exact while the victim is down.
        for name, payload in healthy.items():
            assert federation.get(name) == payload
        # Federation-wide repair reports the victim without raising.
        report = federation.repair()
        assert set(report.per_shard) | set(report.errors) == set(
            federation.shard_ids
        )
        if victim in report.errors:
            assert report.errors[victim]
        else:
            assert report.per_shard[victim].unrecovered or (
                report.per_shard[victim].data_loss >= 0
            )
        # The victim recovers independently once its locations return.
        federation.restore_locations(shard=victim)
        federation.repair(shard=victim)
        for name, payload in documents.items():
            assert federation.get(name) == payload

    def test_partial_shard_failure_repairs_independently(self):
        federation = open_federation(shards=3)
        documents = workload(doc_count=30)
        for name, payload in documents.items():
            federation.put(name, payload)
        victim = federation.shard_ids[1]
        federation.fail_locations(range(4), victim)
        status = federation.status()
        assert status.per_shard[victim].unavailable_locations == 4
        assert status.unavailable_locations == 4  # only that shard
        report = federation.repair(shard=victim)
        assert set(report.per_shard) == {victim}
        assert not report.errors
        # Degraded + repaired reads: everything byte-exact, victim included.
        for name, payload in documents.items():
            assert federation.get(name) == payload

    def test_status_aggregates_across_shards(self):
        federation = open_federation(shards=3)
        documents = workload(doc_count=12)
        for name, payload in documents.items():
            federation.put(name, payload)
        status = federation.status()
        assert status.shards == 3
        assert status.documents == len(documents)
        assert status.blocks == sum(
            s.blocks for s in status.per_shard.values()
        )
        assert status.bytes_stored > 0
        assert str(status.shards) in status.summary()

    def test_torn_wal_on_one_shard_reopens_independently(self, tmp_path):
        """A crash image with a torn WAL tail on one shard: the federation
        reopens, healthy shards serve everything byte-exact, and the torn
        shard recovers its committed prefix."""
        root = tmp_path / "live"
        config = StorageConfig(
            scheme="ae-3-2-5",
            topology=8,
            block_size=256,
            seed=5,
            shards=3,
            backend="disk",
            data_dir=str(root),
        )
        federation = ShardedStorageService.open(config)
        documents = workload(doc_count=18)
        names = sorted(documents)
        base, tail = names[:12], names[12:]
        for name in base:
            federation.put(name, documents[name])
        federation.flush()  # base docs checkpointed into every manifest
        for name in tail:
            federation.put(name, documents[name])
        # Snapshot the directory while the federation is still open: a
        # crash image whose WALs hold the tail documents.
        image = tmp_path / "image"
        shutil.copytree(root, image)
        federation.close()
        # Tear the WAL tail of one shard mid-frame.
        torn_shard = None
        for shard_id in (0, 1, 2):
            wal_path = image / f"shard-{shard_id:02d}" / "wal.log"
            if wal_path.exists() and wal_path.stat().st_size > 0:
                torn_shard = shard_id
                with open(wal_path, "r+b") as handle:
                    handle.truncate(wal_path.stat().st_size - 3)
                break
        assert torn_shard is not None, "some shard must have a WAL tail"
        reopened = ShardedStorageService.open(
            StorageConfig(
                scheme="ae-3-2-5",
                topology=8,
                block_size=256,
                seed=5,
                backend="disk",
                data_dir=str(image),
            )
        )
        assert reopened.shard_count == 3
        # Base documents survive everywhere; every catalogued document
        # (including any tail doc whose WAL group committed before the
        # tear) reads byte-exact.
        for name in base:
            assert reopened.get(name) == documents[name]
        for name in reopened.documents:
            assert reopened.get(name) == documents[name]
        # Only documents of the torn shard may be missing.
        for name in tail:
            if not reopened.has_document(name):
                assert ShardedStorageService.open(
                    config
                ).shard_for(name) == torn_shard
        reopened.close()


class TestDurableFederation:
    def _config(self, root, **overrides):
        base = dict(
            scheme="ae-1",
            topology=6,
            block_size=256,
            seed=5,
            backend="disk",
            data_dir=str(root),
        )
        base.update(overrides)
        return StorageConfig(**base)

    def test_reopen_rejects_conflicting_membership(self, tmp_path):
        federation = ShardedStorageService.open(
            self._config(tmp_path / "f", shards=3)
        )
        federation.put("doc", b"x" * 600)
        federation.close()
        with pytest.raises(InvalidParametersError):
            ShardedStorageService.open(self._config(tmp_path / "f", shards=2))
        with pytest.raises(InvalidParametersError):
            ShardedStorageService.open(
                self._config(tmp_path / "f", scheme="ae-2-2-5", shards=3)
            )

    def test_corrupt_federation_manifest_is_refused(self, tmp_path):
        federation = ShardedStorageService.open(
            self._config(tmp_path / "f", shards=2)
        )
        federation.close()
        (tmp_path / "f" / FEDERATION_NAME).write_text("{ torn")
        with pytest.raises(InvalidParametersError):
            ShardedStorageService.open(self._config(tmp_path / "f"))

    def test_reopen_resumes_an_interrupted_join(self, tmp_path):
        """Crash after the join's durable membership write, before any data
        moved: reopening re-homes the ring delta automatically."""
        import json

        root = tmp_path / "f"
        federation = ShardedStorageService.open(self._config(root, shards=2))
        documents = workload(doc_count=40)
        for name, payload in documents.items():
            federation.put(name, payload)
        federation.close()
        # Simulate the crash image: federation.json already lists shard 2,
        # but no documents have moved yet.
        manifest = json.loads((root / FEDERATION_NAME).read_text())
        manifest["shard_ids"] = [0, 1, 2]
        (root / FEDERATION_NAME).write_text(json.dumps(manifest))
        reopened = ShardedStorageService.open(self._config(root))
        assert reopened.shard_ids == (0, 1, 2)
        moved = [
            name
            for name in documents
            if reopened.shard_for(name) == 2
        ]
        assert moved, "the new shard should own part of the namespace"
        for name in moved:
            assert reopened.shard(2).has_document(name)
        for name, payload in documents.items():
            assert reopened.get(name) == payload
        reopened.close()

    def test_reopen_resumes_an_interrupted_leave(self, tmp_path):
        """Crash mid-drain: the manifest still lists the leaving shard, so
        reopening finishes the drain and drops it."""
        import json

        root = tmp_path / "f"
        federation = ShardedStorageService.open(self._config(root, shards=3))
        documents = workload(doc_count=40)
        for name, payload in documents.items():
            federation.put(name, payload)
        federation.close()
        manifest = json.loads((root / FEDERATION_NAME).read_text())
        manifest["leaving"] = [1]
        (root / FEDERATION_NAME).write_text(json.dumps(manifest))
        reopened = ShardedStorageService.open(self._config(root))
        assert reopened.shard_ids == (0, 2)
        for name, payload in documents.items():
            assert reopened.get(name) == payload
            assert reopened.shard_for(name) in (0, 2)
        # The drained shard is gone from the durable membership too.
        manifest = json.loads((root / FEDERATION_NAME).read_text())
        assert manifest["shard_ids"] == [0, 2]
        assert manifest["leaving"] == []
        reopened.close()

    def test_durable_join_and_leave_round_trip(self, tmp_path):
        root = tmp_path / "f"
        federation = ShardedStorageService.open(self._config(root, shards=2))
        documents = workload(doc_count=30)
        for name, payload in documents.items():
            federation.put(name, payload)
        join = federation.add_shard()
        assert 0 < join.moved_fraction <= 1.5 / 3
        assert os.path.isdir(root / "shard-02")
        federation.close()
        reopened = ShardedStorageService.open(self._config(root))
        assert reopened.shard_count == 3
        victims_docs = set(reopened.shard(0).documents)
        leave = reopened.remove_shard(0)
        assert set(leave.moves) == victims_docs
        for name, payload in documents.items():
            assert reopened.get(name) == payload
        reopened.close()
        final = ShardedStorageService.open(self._config(root))
        assert final.shard_ids == (1, 2)
        for name, payload in documents.items():
            assert final.get(name) == payload
        final.close()


class TestLoadgenIntegration:
    def test_run_load_drives_a_federation(self):
        from repro.system.loadgen import run_load

        federation = open_federation(shards=2)
        report = run_load(
            federation,
            clients=4,
            ops_per_client=15,
            payload_bytes=600,
            documents=12,
            seed=3,
        )
        assert report.ops == 60
        assert report.overloads == 0
        federation.close()
