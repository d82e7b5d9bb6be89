"""Live scheme transitions: classification, migration, crash resume, sharding.

Acceptance tests of the dynamic-redundancy subsystem
(:mod:`repro.system.transitions`): a live service migrates
``rep-3 -> ae-3-2-5 -> rs-10-4`` end to end with byte-exact reads at every
stage, an alpha raise rewrites zero data blocks, puncturing round-trips,
and a crash image taken just before and just after every durable metadata
write resumes to completion on reopen -- under either endpoint's scheme id.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import json
import os
import random
import shutil
import threading
import time

import pytest

import repro.schemes as schemes
import repro.system.catalogue as catalogue_module
import repro.system.sharding as sharding_module
from repro.codes.entanglement import EntanglementScheme
from repro.core.blocks import DataId, ParityId, parity_ids_for
from repro.core.parameters import StrandClass
from repro.exceptions import InvalidParametersError, RepairFailedError, ReproError
from repro.storage.cluster import StorageCluster
from repro.storage.topology import Topology
from repro.storage.wal import MetadataWAL
from repro.system.frontend import ConcurrentStorageService
from repro.system.opening import open_service
from repro.system.service import StorageConfig, StorageService
from repro.system.transitions import (
    KIND_ALPHA_RAISE,
    KIND_REENCODE,
    KIND_REPUNCTURE,
    classify,
)

from tests.conftest import segment_dead_bytes

BLOCK_SIZE = 512


def mem_config(scheme, **overrides):
    base = dict(scheme=scheme, topology=24, block_size=BLOCK_SIZE, seed=5)
    base.update(overrides)
    return StorageConfig(**base)


def disk_config(scheme, root, **overrides):
    return mem_config(scheme, backend="disk", data_dir=str(root), **overrides)


def make_docs(count=5, size=3000, seed=3):
    rng = random.Random(seed)
    return {f"doc-{index:02d}": rng.randbytes(size) for index in range(count)}


def fill(service, payloads):
    for name, payload in payloads.items():
        service.put(name, payload)


def assert_byte_exact(service, payloads):
    for name, payload in payloads.items():
        assert service.get(name) == payload, f"{name} corrupted"


def resolve(scheme_id):
    return schemes.get(scheme_id, block_size=BLOCK_SIZE)


class TestClassify:
    @pytest.mark.parametrize(
        "source,target,kind",
        [
            ("rep-3", "ae-3-2-5", KIND_REENCODE),
            ("ae-3-2-5", "rs-10-4", KIND_REENCODE),
            ("rep-3", "rs-10-4", KIND_REENCODE),
            ("ae-2-2-5", "ae-3-2-5", KIND_ALPHA_RAISE),
            ("ae-2-3-7", "ae-3-3-7", KIND_ALPHA_RAISE),
            ("ae-3-2-5", "ae-3-2-5-p75", KIND_REPUNCTURE),
            ("ae-3-2-5-p75", "ae-3-2-5", KIND_REPUNCTURE),
            ("ae-3-2-5-p75", "ae-3-2-5-p50", KIND_REPUNCTURE),
        ],
    )
    def test_kinds(self, source, target, kind):
        assert classify(resolve(source), resolve(target)) == kind

    def test_raising_past_alpha_three_is_rejected(self):
        """AE(4,2,5) duplicates a strand class: no new protection, so no raise."""
        with pytest.raises(InvalidParametersError, match="alpha=3"):
            classify(resolve("ae-3-2-5"), resolve("ae-4-2-5"))

    def test_lowering_alpha_points_at_puncturing(self):
        with pytest.raises(InvalidParametersError, match="punctur"):
            classify(resolve("ae-3-2-5"), resolve("ae-2-2-5"))

    def test_geometry_changes_are_rejected(self):
        with pytest.raises(InvalidParametersError):
            classify(resolve("ae-3-2-5"), resolve("ae-3-3-7"))

    def test_raising_a_punctured_lattice_is_rejected(self):
        with pytest.raises(InvalidParametersError, match="unpunctured"):
            classify(resolve("ae-2-2-5-p75"), resolve("ae-3-2-5-p75"))


class TestLiveChain:
    def test_rep_to_ae_to_rs_end_to_end(self):
        payloads = make_docs()
        service = StorageService.open(mem_config("rep-3"))
        fill(service, payloads)

        report = service.transition_to("ae-3-2-5")
        assert report.kind == KIND_REENCODE
        assert report.documents_migrated == len(payloads)
        assert service.scheme.scheme_id == "ae-3-2-5"
        assert service.transition is None
        assert service.epoch_history is not None
        assert_byte_exact(service, payloads)

        report = service.transition_to("rs-10-4")
        assert report.kind == KIND_REENCODE
        assert service.scheme.scheme_id == "rs-10-4"
        assert_byte_exact(service, payloads)

        # The shared AE namespace must be fully reclaimed after leaving AE.
        leftover = [
            block_id
            for block_id in service.cluster.block_ids()
            if isinstance(block_id, (DataId, ParityId))
        ]
        assert leftover == []

    def test_alpha_raise_rewrites_zero_data_blocks(self):
        payloads = make_docs()
        service = StorageService.open(mem_config("ae-2-2-5"))
        fill(service, payloads)
        data_ids_before = {
            data_id for doc in service.documents.values() for data_id in doc.data_ids
        }

        report = service.transition_to("ae-3-2-5")
        assert report.kind == KIND_ALPHA_RAISE
        assert report.data_blocks_rewritten == 0
        assert report.documents_migrated == 0
        assert report.parities_written > 0
        data_ids_after = {
            data_id for doc in service.documents.values() for data_id in doc.data_ids
        }
        assert data_ids_after == data_ids_before
        assert_byte_exact(service, payloads)

        history = service.epoch_history
        assert history is not None
        assert [epoch.params.alpha for epoch in history.epochs] == [2, 3]
        assert history.params_at(1).alpha == 2

    def test_puncture_round_trip(self):
        payloads = make_docs()
        service = StorageService.open(mem_config("ae-3-2-5"))
        fill(service, payloads)

        demoted = service.transition_to("ae-3-2-5-p75")
        assert demoted.kind == KIND_REPUNCTURE
        assert demoted.blocks_deleted > 0
        assert service.scheme.scheme_id == "ae-3-2-5-p75"
        assert_byte_exact(service, payloads)

        restored = service.transition_to("ae-3-2-5")
        assert restored.kind == KIND_REPUNCTURE
        assert restored.parities_written == demoted.blocks_deleted
        assert_byte_exact(service, payloads)

    @pytest.mark.parametrize("source", ["rs-10-4", "lrc-azure"])
    def test_a_stripe_code_promotes_into_the_default_lattice(self, source):
        """Promoting out of a stripe code re-encodes every document and
        leaves exactly the blocks a fresh ``ae-3-2-5`` service would store."""
        payloads = make_docs()
        service = StorageService.open(mem_config(source))
        fill(service, payloads)
        report = service.transition_to("ae-3-2-5")
        assert report.kind == KIND_REENCODE
        assert report.documents_migrated == len(payloads)
        assert_byte_exact(service, payloads)

        fresh = StorageService.open(mem_config("ae-3-2-5"))
        fill(fresh, payloads)
        assert service.status().blocks == fresh.status().blocks
        assert service.status().bytes_stored == fresh.status().bytes_stored

    def test_punctured_levels_step_both_ways(self):
        payloads = make_docs()
        service = StorageService.open(mem_config("ae-3-2-5-p75"))
        fill(service, payloads)
        blocks_at_p75 = service.status().blocks

        shed = service.transition_to("ae-3-2-5-p50")
        assert shed.kind == KIND_REPUNCTURE
        assert shed.data_blocks_rewritten == 0 and shed.parities_written == 0
        assert service.status().blocks == blocks_at_p75 - shed.blocks_deleted
        assert_byte_exact(service, payloads)

        kept = service.transition_to("ae-3-2-5-p75")
        assert kept.kind == KIND_REPUNCTURE
        assert kept.blocks_deleted == 0
        assert kept.parities_written == shed.blocks_deleted > 0
        assert service.status().blocks == blocks_at_p75
        assert_byte_exact(service, payloads)

    def test_no_op_transition_returns_none(self):
        service = StorageService.open(mem_config("ae-3-2-5"))
        fill(service, make_docs(count=1))
        assert service.transition_to("ae-3-2-5") is None

    def test_block_size_mismatch_is_rejected(self):
        service = StorageService.open(mem_config("ae-3-2-5"))
        with pytest.raises(InvalidParametersError, match="block size"):
            service.transition_to(schemes.get("rs-10-4", block_size=BLOCK_SIZE * 2))

    def test_raise_past_three_is_rejected_live(self):
        service = StorageService.open(mem_config("ae-3-2-5"))
        fill(service, make_docs(count=1))
        with pytest.raises(InvalidParametersError, match="alpha=3"):
            service.transition_to("ae-4-2-5")
        assert service.transition is None
        assert service.scheme.scheme_id == "ae-3-2-5"


def block_digest(cluster):
    """``(block count, sha256 of every (block id, payload) in id order)``."""
    digest = hashlib.sha256()
    ids = sorted(cluster.block_ids(), key=repr)
    for block_id in ids:
        digest.update(repr(block_id).encode())
        digest.update(bytes(cluster.try_get_many([block_id])[0]))
    return len(ids), digest.hexdigest()


class TestAlphaRaiseGolden:
    """``ae-2-2-5 -> ae-3-2-5`` stores what the per-block upgrader it
    replaced stored, bit for bit.  Per case: the raise's ``parities_written``,
    the block digest after the raise and after one later put.  ``segment``
    reopens between the raise and the put; ``memory`` reads 7 blocks at a
    time, which does not divide the lattice, with three data blocks lost.
    Recorded on the commit before the raise became an encode (``7db3d06``)
    with ``TestAlphaRaiseGolden.rows(case, root)``; record on the parent of
    a change only, never to make a failing test pass."""

    GOLDEN = {
        "memory": (
            548,
            (2189, "0092445f4d73a937ea5b69f96f59a6b04c76024f8d4dda564a3b97bd4837ffa2"),
            (2225, "40f504271b7359de0a8eb9fe037718df80e7173ccd0f0d5c8a9fc2d1dd05b476"),
        ),
        "segment": (
            548,
            (2192, "9f3874623a9c11bf9a95dc2864806b1500034567514d189b7cd800443c3b81bd"),
            (2228, "36ef65c4e868800d5336c38797058161d341f8327b522eb7642c4c162659073d"),
        ),
    }

    @staticmethod
    def rows(case, root):
        settings = {"backend": "segment", "data_dir": str(root)} if case == "segment" else {}
        config = StorageConfig(
            scheme="ae-2-2-5", block_size=64, topology=24, seed=5,
            batch_blocks=7 if case == "memory" else 256, **settings,
        )
        service = StorageService.open(config)
        rng = random.Random(1)
        payloads = {f"doc-{i:02d}": rng.randbytes(rng.randrange(100, 5000)) for i in range(14)}
        fill(service, payloads)
        if case == "segment":
            service.delete("doc-03")
            del payloads["doc-03"]
        else:
            service.cluster.delete_blocks([DataId(3), DataId(40), DataId(41)])
        written = service.transition_to("ae-3-2-5").parities_written
        if case == "segment":
            service.close()
            service = StorageService.open(dataclasses.replace(config, scheme="ae-3-2-5"))
        raised = block_digest(service.cluster)
        service.put("late", b"late document " * 40)
        assert_byte_exact(service, payloads)
        row = (written, raised, block_digest(service.cluster))
        service.close()
        return row

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_the_raise_stores_the_recorded_blocks(self, case, tmp_path):
        assert self.rows(case, tmp_path) == self.GOLDEN[case]


class TestStrandHeadsAreBlocksToo:
    """The flip of an AE-internal transition reads the strand heads back
    through repair, so failed locations holding some of them do not stop it
    (PR 24: it used to raise ``cannot restore encoder state: parity
    p[318,rh] unavailable`` and leave the plan set, so every later
    ``transition_to`` answered "already in flight" on a volatile service
    that has no reopen to resume through)."""

    @staticmethod
    def degraded(failed):
        service = StorageService.open(
            StorageConfig(scheme="ae-3-2-5", block_size=64, topology=20, seed=0)
        )
        payloads = {
            f"doc{i}": bytes((i * 7 + j) % 251 for j in range(2048)) for i in range(10)
        }
        fill(service, payloads)
        service.fail_locations(range(failed))
        return service, payloads

    def test_repuncture_completes_with_head_locations_down(self):
        service, payloads = self.degraded(4)
        heads = service.scheme.entangler.strand_head_ids()
        assert not all(map(service.cluster.is_available, heads))
        report = service.transition_to("ae-3-2-5-p75")
        assert (report.kind, report.blocks_deleted) == (KIND_REPUNCTURE, 275)
        assert service.transition is None
        assert service.scheme.scheme_id == "ae-3-2-5-p75"
        assert_byte_exact(service, payloads)
        service.restore_locations()  # a put needs every location it places on
        service.put("late", payloads["doc3"])
        assert service.get("late") == payloads["doc3"]

    def test_a_head_no_tuple_reaches_fails_typed_before_the_flip(self):
        service, _ = self.degraded(19)
        blocks = service.status().blocks
        with pytest.raises(RepairFailedError):
            service.transition_to("ae-3-2-5-p75")
        assert service.scheme.scheme_id == "ae-3-2-5"
        assert service.status().blocks == blocks


class TestAFailedTransitionIsRetried:
    """A live ``transition_to`` that raised leaves its plan in flight; the
    same call again finishes it, on a volatile service (which has no reopen)
    and on a federation, while any other target is still refused.  (It used
    to refuse every retry: "a repuncture transition to 'ae-3-2-5-p75' is
    already in flight; it must finish (or be resumed via open()) first".)"""

    CASES = {
        # name: (source, target, another target, layer selectors, locations failed)
        "repuncture": ("ae-3-2-5", "ae-3-2-5-p75", "ae-3-2-5-p50", {}, 19),
        "reencode": ("rs-4-2", "ae-3-2-5", "rs-10-4", {}, 1),
        "federation": ("rs-4-2", "ae-3-2-5", "rs-10-4", {"shards": 2}, 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_same_call_again_finishes_the_run(self, case):
        source, target, other, selectors, failed = self.CASES[case]
        service = open_service(
            StorageConfig(scheme=source, block_size=64, topology=20, seed=0), **selectors
        )
        payloads = make_docs(count=6, size=1500)
        fill(service, payloads)
        service.fail_locations(range(failed))
        with pytest.raises(ReproError):
            service.transition_to(target)
        holders = {id(h): h for h in map(service.service_for, payloads)}.values()
        assert any(holder.transition for holder in holders)
        service.restore_locations()
        with pytest.raises(InvalidParametersError, match=f"{target}.*{other}"):
            service.transition_to(other)

        report = service.transition_to(target)
        assert report is not None and report.target == target
        assert service.scheme.scheme_id == target
        assert not any(holder.transition for holder in holders)
        assert_byte_exact(service, payloads)
        assert service.transition_to(target) is None
        service.put("late", payloads["doc-00"])
        assert service.get("late") == payloads["doc-00"]

    def test_a_retried_alpha_raise_writes_only_what_is_missing(self, tmp_path, monkeypatch):
        """A raise whose second bulk write failed is finished by writing the
        new-class parities the cluster lacks, and no segment log grows a dead
        record.  (The retry used to rewrite every one of them: 384 after the
        first run had stored 256, and the logs' dead bytes went 768 ->
        137 876.)"""
        service = StorageService.open(
            mem_config(
                "ae-2-2-5", topology="sites=6,racks=2,nodes=2", seed=0,
                backend="segment", data_dir=str(tmp_path),
            )
        )
        payloads = make_docs(count=24, size=16 * BLOCK_SIZE)
        fill(service, payloads)
        size = service.scheme.lattice.size
        assert size > service.batch_blocks  # the walk takes two batches

        def dead_bytes():
            return sum(map(segment_dead_bytes, tmp_path.glob("loc-*")))

        put_many, calls = StorageCluster.put_many, []

        def second_fails(cluster, items):
            calls.append(None)
            if len(calls) == 2:
                raise OSError("injected write failure")
            return put_many(cluster, items)

        monkeypatch.setattr(StorageCluster, "put_many", second_fails)
        with pytest.raises(OSError, match="injected"):
            service.transition_to("ae-3-2-5")
        monkeypatch.setattr(StorageCluster, "put_many", put_many)
        new_class = [ParityId(index, StrandClass.LEFT_HANDED) for index in range(1, size + 1)]
        lacking = sum(not service.cluster.knows(parity) for parity in new_class)
        assert 0 < lacking < size
        dead = dead_bytes()
        with pytest.raises(InvalidParametersError, match="ae-3-2-5.*ae-2-2-5-p75"):
            service.transition_to("ae-2-2-5-p75")

        report = service.transition_to("ae-3-2-5")
        assert report.parities_written == report.blocks_written == lacking
        assert dead_bytes() == dead
        assert all(map(service.cluster.knows, new_class))
        assert service.scheme.scheme_id == "ae-3-2-5" and service.transition is None
        assert_byte_exact(service, payloads)
        service.close()


class TestTheMover:
    """``StorageService._move_in``: the one way a document changes home."""

    def test_a_reencode_lands_batch_blocks_at_a_time(self, monkeypatch):
        service = StorageService.open(mem_config("rep-3", batch_blocks=2))
        payloads = make_docs(count=2, size=5 * BLOCK_SIZE + 240)
        fill(service, payloads)
        original = StorageService._land
        sizes = collections.defaultdict(list)

        def record(self, batch):
            def counted(name, chunks):
                for chunk in chunks:
                    sizes[name].append(len(chunk))
                    yield chunk

            return original(self, [(name, counted(name, chunks)) for name, chunks in batch])

        monkeypatch.setattr(StorageService, "_land", record)
        report = service.transition_to("ae-3-2-5")
        assert report.documents_migrated == len(payloads)
        batch = 2 * BLOCK_SIZE
        assert dict(sizes) == {name: [batch, batch, BLOCK_SIZE + 240] for name in payloads}
        assert_byte_exact(service, payloads)

    def test_a_batch_is_one_read_one_write_one_commit_and_one_reclaim(
        self, tmp_path, monkeypatch
    ):
        """Six 4-block documents at ``batch_blocks=12`` move in two batches of
        three; each batch costs one bulk read, one bulk write, one WAL
        commit and one reclaim, and every document lands where a put would."""
        config = disk_config("rep-3", tmp_path / "live", batch_blocks=12)
        service = StorageService.open(config)
        payloads = make_docs(count=6, size=2000)
        fill(service, payloads)
        calls = collections.Counter()

        def counting(owner, verb):
            original = getattr(owner, verb)

            def wrapper(*args, **kwargs):
                calls[verb] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, verb, wrapper)

        for verb in ("try_get_many", "put_many", "delete_blocks"):
            counting(StorageCluster, verb)
        counting(MetadataWAL, "commit")
        counting(StorageService, "_land")
        report = service.transition_to("rs-4-2")
        monkeypatch.undo()
        assert report.documents_migrated == 6
        assert calls == {
            "_land": 2, "try_get_many": 2, "put_many": 2, "commit": 2, "delete_blocks": 2
        }
        assert_byte_exact(service, payloads)
        # The target numbers its stripes past the source's 24 (one per
        # replicated block); past that offset they are a fresh put's.
        fresh = StorageService.open(mem_config("rs-4-2"))
        fill(fresh, payloads)
        assert {name: doc.data_ids for name, doc in service.documents.items()} == {
            name: [i._replace(stripe=i.stripe + 24) for i in doc.data_ids]
            for name, doc in fresh.documents.items()
        }
        service.close()

    def test_a_pending_document_moves_under_its_source_scheme(self):
        """A document a re-encode has not reached yet is read through the
        source's retained scheme, so a degraded move still repairs it."""
        # One 6-block document per batch.
        source = StorageService.open(mem_config("rep-3", batch_blocks=6))
        payloads = make_docs(count=4, size=2800)
        fill(source, payloads)
        with pytest.raises(RuntimeError, match="injected crash"):
            source.transition_to("ae-3-2-5", doc_guard=_CrashGuard(1))
        name = min(source.transition.pending)
        document = source.documents[name]
        source.fail_locations({source.cluster.location_of(i) for i in document.data_ids})
        target = StorageService.open(mem_config("rs-4-2", seed=9))

        [moved], written, reclaimed = target._move_in([name], source)
        assert (moved.name, moved.length, reclaimed) == (name, len(payloads[name]), 0)
        assert written == len(target.cluster) > 0
        assert target.get(name) == payloads[name]
        assert source.get(name) == payloads[name]  # deleting it is the caller's step


class _CrashGuard:
    """Doc guard that raises once ``allow`` batches have been migrated."""

    def __init__(self, allow):
        self.allow = allow
        self.entered = 0

    def __call__(self, names):
        if self.entered >= self.allow:
            raise RuntimeError("injected crash")
        self.entered += 1
        return _NullContext()


class _NullContext:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class InjectedCrash(RuntimeError):
    """The process "dies" at a durable metadata write."""


class _DurableWrites:
    """Counts the durable metadata writes -- a service manifest's or
    ``federation.json``'s ``write_json`` and every ``MetadataWAL.commit`` --
    and, once armed, raises just before or just after the k-th one."""

    def __init__(self):
        self.count = 0
        self.crash_at = None
        self.when = None

    def arm(self, crash_at, when):
        self.count, self.crash_at, self.when = 0, crash_at, when

    def disarm(self):
        self.crash_at = None

    def counted(self, write):
        def wrapper(*args, **kwargs):
            doomed = self.count == self.crash_at
            self.count += 1
            if doomed and self.when == "before":
                raise InjectedCrash(f"before durable write {self.crash_at}")
            result = write(*args, **kwargs)
            if doomed and self.when == "after":
                raise InjectedCrash(f"after durable write {self.crash_at}")
            return result

        return wrapper


@pytest.fixture
def durable_writes(monkeypatch):
    writes = _DurableWrites()
    for module in (catalogue_module, sharding_module):
        monkeypatch.setattr(module, "write_json", writes.counted(module.write_json))
    monkeypatch.setattr(MetadataWAL, "commit", writes.counted(MetadataWAL.commit))
    return writes


def assert_one_durable_truth(root):
    """A durable ``data_dir`` holds the checkpoint, the log, the locations."""
    strays = [
        entry
        for entry in os.listdir(root)
        if entry not in ("manifest.json", "wal.log") and not entry.startswith("loc-")
    ]
    assert strays == [], f"unexpected durable files in {root}: {strays}"


class TestDurableWritesPerHop:
    """The durable metadata writes of one untouched hop, per kind.  A
    repuncture that regenerates nothing flips in its start checkpoint:
    start, settle.  One that regenerates parities stores them before the
    flip's own checkpoint: start, flip, settle.  An alpha raise flips inside
    its run: start, settle.  A re-encode commits one WAL group per batch
    between its start and its settle."""

    CASES = {
        "repuncture-more": ("ae-3-2-5", "ae-3-2-5-p75", 2),
        "repuncture-p80-p50": ("ae-3-2-5-p80", "ae-3-2-5-p50", 2),
        "repuncture-less": ("ae-3-2-5-p75", "ae-3-2-5", 3),
        "repuncture-p50-p80": ("ae-3-2-5-p50", "ae-3-2-5-p80", 3),
        "alpha-raise": ("ae-2-2-5", "ae-3-2-5", 2),
        "reencode": ("rep-3", "ae-3-2-5", 1 + 3 + 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_hop(self, case, tmp_path, durable_writes):
        source, target, writes = self.CASES[case]
        payloads = make_docs(count=3, size=2000)
        # Four-block batches: the re-encode moves one document per batch.
        service = StorageService.open(disk_config(source, tmp_path, batch_blocks=4))
        fill(service, payloads)
        service.flush()
        durable_writes.arm(None, None)
        service.transition_to(target)
        assert durable_writes.count == writes
        assert service.scheme.scheme_id == target and service.transition is None
        assert_byte_exact(service, payloads)
        service.close()


class TestDurableCrashResume:
    """ONE sweep: a crash just before and just after every durable metadata
    write of a transition, for every kind, reopened under either endpoint."""

    PAIRS = [
        ("rep-3", "ae-3-2-5"),
        ("ae-3-2-5", "rs-4-2"),
        ("rs-6-3", "rs-4-2"),  # shared StripeBlockId namespace
        ("ae-2-2-5", "ae-3-2-5"),  # alpha raise
        ("ae-3-2-5", "ae-3-2-5-p75"),  # repuncture ...
        ("ae-3-2-5-p75", "ae-3-2-5"),  # ... and back
        ("ae-3-2-5-p50", "ae-3-2-5-p80"),  # between punctured rates ...
        ("ae-3-2-5-p80", "ae-3-2-5-p50"),  # ... both ways
    ]

    @staticmethod
    def config(scheme, root, **overrides):
        # spread-domains: one lost location costs every stripe (and AE
        # neighbourhood) at most one block, so the degraded read below must
        # succeed whenever catalogue and scheme agree.
        return disk_config(
            scheme, root, topology=12, placement="spread-domains", **overrides
        )

    def check_settles(self, image, reopen_as, scheme_id, payloads):
        """Reopening ``image`` as ``reopen_as`` serves ``scheme_id``, settled."""
        reopened = StorageService.open(self.config(reopen_as, image))
        assert reopened.scheme.scheme_id == scheme_id
        assert reopened.transition is None
        # No document is catalogued without its blocks.
        cluster = reopened.cluster
        assert all(
            cluster.knows(block_id)
            for document in reopened.documents.values()
            for block_id in document.data_ids
        )
        # Every parity the settled rate keeps is stored: a flip ahead of its
        # regeneration leaves holes that the byte-exact reads never touch.
        scheme = reopened.scheme
        if isinstance(scheme, EntanglementScheme):
            punctured = set(getattr(scheme, "punctured_parities", list)())
            indexes = range(1, scheme.entangler.blocks_encoded + 1)
            assert all(
                cluster.knows(parity)
                for strand_class in scheme.params.strand_classes
                for parity in parity_ids_for(indexes, strand_class)
                if parity not in punctured
            )
        assert_byte_exact(reopened, payloads)
        history = reopened.epoch_history
        assert (history is None) == (not scheme_id.startswith("ae-"))
        if history is not None:
            assert history.epochs[-1].params == reopened.scheme.params
        reopened.close()
        assert_one_durable_truth(image)

        # Resume is idempotent: a second reopen finds a settled service whose
        # catalogue its scheme can repair through.
        again = StorageService.open(self.config(scheme_id, image))
        assert again.transition is None
        again.fail_locations([0])
        assert_byte_exact(again, payloads)
        again.close()
        assert_one_durable_truth(image)

    @pytest.mark.parametrize("source,target", PAIRS)
    def test_crash_sweep(self, source, target, tmp_path, durable_writes):
        self.sweep(source, target, make_docs(count=3, size=2000), tmp_path, durable_writes)

    @pytest.mark.parametrize("source,target", PAIRS[:3])
    def test_crash_sweep_over_multi_document_batches(
        self, source, target, tmp_path, durable_writes
    ):
        """Seven 4-block documents at ``batch_blocks=12``: the re-encode
        moves batches of three, three and one, each one bulk write, one WAL
        group and one reclaim; a crash at any of them resumes byte-exact."""
        writes = self.sweep(
            source, target, make_docs(count=7, size=2000), tmp_path, durable_writes,
            batch_blocks=12,
        )
        assert writes == 1 + 3 + 1  # plan checkpoint, three commits, settle

    def sweep(self, source, target, payloads, tmp_path, durable_writes, **overrides):
        crash_points = (
            (crash_at, when)
            for crash_at in itertools.count()
            for when in ("before", "after")
        )
        plain = []  # crash points whose checkpoint names no transition
        for crash_at, when in crash_points:
            tag = f"{crash_at}-{when}"
            root = tmp_path / f"live-{tag}"
            service = StorageService.open(self.config(source, root, **overrides))
            fill(service, payloads)  # no close(): the WAL tail still holds the puts
            durable_writes.arm(crash_at, when)
            try:
                service.transition_to(target)
            except InjectedCrash:
                crashed = True
            else:
                crashed = False
            durable_writes.disarm()
            if not crashed:
                # crash_at is past the last durable write: an untouched run.
                assert when == "before"
                assert service.scheme.scheme_id == target
                assert service.transition is None
                assert_byte_exact(service, payloads)
                service.close()
                assert_one_durable_truth(root)
                break
            assert_one_durable_truth(root)
            images = {
                reopen_as: shutil.copytree(root, tmp_path / f"image-{tag}-{reopen_as}")
                for reopen_as in (source, target)
            }
            del service  # crash: no close(), no checkpoint
            manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
            if "transition" in manifest:
                for reopen_as, image in images.items():
                    self.check_settles(image, reopen_as, target, payloads)
                continue
            # No durable intent (not yet, or no longer): a plain service on
            # one endpoint, which rejects the other like any scheme mismatch.
            settled = manifest["scheme"]
            plain.append((crash_at, when, settled))
            other = target if settled == source else source
            with pytest.raises(InvalidParametersError, match="holds a"):
                StorageService.open(self.config(other, images[other]))
            self.check_settles(images[settled], settled, settled, payloads)
        # Exactly two: before the first durable write the intent never became
        # durable (transition_to never returned), after the last one the
        # transition is complete.
        assert plain == [(0, "before", source), (crash_at - 1, "after", target)]
        return crash_at  # the durable writes of an untouched run

    def test_resume_that_crashes_resumes_again(self, tmp_path, durable_writes):
        """The start checkpoint's log reset never ran and the resume dies
        too: its records must not land in the stale source-bound epoch."""
        source, target = "rep-3", "ae-3-2-5"
        payloads = make_docs(count=3, size=2000)
        root = tmp_path / "live"
        service = StorageService.open(self.config(source, root))
        fill(service, payloads)
        durable_writes.arm(0, "after")  # plan durable, the puts still in the log
        with pytest.raises(InjectedCrash):
            service.transition_to(target)
        del service
        # The resume: open's own checkpoint is write 0, the first re-encoded
        # document's commit write 1.
        durable_writes.arm(1, "after")
        with pytest.raises(InjectedCrash):
            StorageService.open(self.config(source, root))
        durable_writes.disarm()
        self.check_settles(root, target, target, payloads)

    def test_leftover_plan_file_of_an_older_version_is_refused(self, tmp_path):
        root = tmp_path / "live"
        service = StorageService.open(disk_config("rep-3", root))
        fill(service, make_docs(count=1))
        service.close()
        (root / "transition.json").write_text("{}", encoding="utf-8")
        with pytest.raises(InvalidParametersError, match=r"transition\.json"):
            StorageService.open(disk_config("rep-3", root))


class TestRebalanceCrashSweep:
    """A crash just before and just after every durable write of one join
    (2 -> 3 shards) and of one leave: each reopened image reads every
    document byte-exact from exactly one shard's catalogue, and the
    membership ``federation.json`` names reaches all of them."""

    @staticmethod
    def config(root, **overrides):
        return StorageConfig(
            scheme="ae-1", topology=6, block_size=256, seed=5,
            backend="disk", data_dir=str(root), **overrides,
        )

    def check_image(self, image, payloads):
        from repro.system.sharding import FEDERATION_NAME, ShardedStorageService, ShardRing

        reopened = ShardedStorageService.open(self.config(image))
        assert_byte_exact(reopened, payloads)
        catalogued = collections.Counter(
            name for shard_id in reopened.shard_ids for name in reopened.shard(shard_id).documents
        )
        assert catalogued == collections.Counter(list(payloads))
        record = json.loads((image / FEDERATION_NAME).read_text(encoding="utf-8"))
        ring = ShardRing(
            [shard for shard in record["shard_ids"] if shard not in record["leaving"]],
            vnodes=record["vnodes"],
        )
        for name in payloads:
            assert reopened.shard(ring.shard_for(name)).has_document(name)
        reopened.close()

    @pytest.mark.parametrize("change,shards", [("join", 2), ("leave", 3)])
    def test_crash_sweep(self, change, shards, tmp_path, durable_writes):
        from repro.system.sharding import ShardedStorageService

        payloads = make_docs(count=8, size=700)
        crash_points = (
            (crash_at, when)
            for crash_at in itertools.count()
            for when in ("before", "after")
        )
        for crash_at, when in crash_points:
            tag = f"{crash_at}-{when}"
            root = tmp_path / f"live-{tag}"
            federation = ShardedStorageService.open(self.config(root, shards=shards))
            fill(federation, payloads)  # no close(): the WAL tails still hold the puts
            durable_writes.arm(crash_at, when)
            try:
                report = federation.add_shard() if change == "join" else federation.remove_shard(1)
            except InjectedCrash:
                crashed = True
            else:
                crashed = False
            durable_writes.disarm()
            if not crashed:
                # crash_at is past the last durable write: an untouched run.
                assert when == "before" and report.moved_documents > 0
                assert_byte_exact(federation, payloads)
                federation.close()
                break
            image = shutil.copytree(root, tmp_path / f"image-{tag}")
            del federation  # crash: no close(), no checkpoint
            self.check_image(image, payloads)
        # Every move is two durable writes: the target's commit, the source's delete.
        assert crash_at >= 2 * report.moved_documents


class TestRepairDuringReencode:
    """``repair()`` with a re-encode in flight: the cluster holds two
    generations of blocks and each must go to the scheme that encoded it."""

    PAIRS = [
        ("rep-3", "ae-3-2-5"),
        ("rs-4-2", "ae-3-2-5"),
        ("ae-3-2-5", "rs-4-2"),
        ("rep-3", "rs-4-2"),
        ("rs-6-3", "rs-4-2"),
    ]
    LAYERS = {
        "service": {},
        "frontend": {"workers": 2},
        "federation": {"workers": 2, "shards": 2},
    }
    LOCATIONS = 12
    #: Failed one at a time on the same service.  Three, because relocation
    #: picks ``index % pool`` and so gathers an AE node and its parities a
    #: little more with every repaired failure; a fourth could find all four
    #: on one location, which the tail of a lattice cannot repair.
    SWEEP = (0, 4, 8)

    @pytest.mark.parametrize("layer", sorted(LAYERS))
    @pytest.mark.parametrize("source,target", PAIRS)
    def test_both_generations_are_repaired(
        self, source, target, layer, tmp_path, monkeypatch
    ):
        payloads = make_docs(count=6, size=1500)
        config = StorageConfig(
            scheme=source,
            topology=self.LOCATIONS,
            block_size=256,
            # One 6-block document per re-encode batch.
            batch_blocks=6,
            # One lost location costs every stripe (and AE neighbourhood) at
            # most one block, which every scheme here tolerates.
            placement="spread-domains",
            seed=5,
            backend="disk",
            data_dir=str(tmp_path / "live"),
        )
        service = open_service(config, **self.LAYERS[layer])
        fill(service, payloads)

        # Interrupt each (inner) service's migration after one document.
        if layer == "service":
            with pytest.raises(RuntimeError, match="injected crash"):
                service.transition_to(target, doc_guard=_CrashGuard(1))
        else:
            original = StorageService._land
            migrated = collections.Counter()

            def crash_on_second(self, batch):
                if migrated[id(self)] >= 1:
                    raise RuntimeError("injected crash")
                migrated[id(self)] += 1
                return original(self, batch)

            monkeypatch.setattr(StorageService, "_land", crash_on_second)
            with pytest.raises(RuntimeError, match="injected crash"):
                service.transition_to(target)
            monkeypatch.undo()
        plans = [service.service_for(name).transition for name in payloads]
        assert any(plans) and all(plan.pending for plan in plans if plan)

        for location in self.SWEEP:
            service.fail_locations([location])
            report = service.repair()
            assert report.data_loss == 0 and not getattr(report, "errors", None)
            # A federation report counts what a service report lists.
            assert not getattr(report, "unrecovered", None)
            assert not getattr(report, "unrecovered_count", 0)
            # Both generations were relocated off the failed location ...
            assert service.status().unavailable_blocks == 0
            assert_byte_exact(service, payloads)
            # ... so its stale copies cannot come back as anyone's only one.
            service.restore_locations()
            assert service.status().unavailable_blocks == 0
            assert_byte_exact(service, payloads)
        service.close()

        reopened = open_service(config, **self.LAYERS[layer])
        assert reopened.scheme.scheme_id == target
        assert not any(reopened.service_for(name).transition for name in payloads)
        assert_byte_exact(reopened, payloads)
        reopened.close()


class TestStatusDuringReencode:
    """``status()`` counts an unavailable block as data under the scheme that
    owns it, as ``repair()`` splits the two generations: the retained source
    for documents not yet moved, the target for the rest."""

    def test_lost_data_of_both_generations_is_counted(self):
        payloads = make_docs(count=6, size=500)
        service = StorageService.open(
            mem_config(
                "rs-4-2", block_size=64, topology="sites=3,racks=1,nodes=2",
                placement="spread-domains", seed=1, batch_blocks=8,
            )
        )
        fill(service, payloads)
        with pytest.raises(RuntimeError, match="injected crash"):
            service.transition_to("ae-3-2-5", doc_guard=_CrashGuard(2))
        service.fail_locations(service.cluster.topology.locations_for_target("site:0"))
        assert len(service.transition.pending) == 4
        unavailable = service.cluster.unavailable_blocks()
        lost_data = unavailable & {
            block_id
            for document in service.documents.values()
            for block_id in document.data_ids
        }
        # 10 stripe data blocks of the 4 pending documents, 6 AE data blocks.
        kinds = collections.Counter(type(block_id).__name__ for block_id in lost_data)
        assert kinds == {"DataId": 6, "StripeBlockId": 10}
        status = service.status()
        assert status.unavailable_blocks == len(unavailable) == 38
        assert status.unavailable_data_blocks == len(lost_data) == 16
        assert service.repair().data_loss == 0
        assert service.status().unavailable_data_blocks == 0

    def test_a_federation_sums_the_corrected_counts(self, monkeypatch):
        payloads = make_docs(count=8, size=500)
        config = mem_config(
            "rs-4-2", block_size=64, topology="sites=3,racks=1,nodes=2",
            placement="spread-domains", seed=1, shards=2, batch_blocks=8,
        )
        service = open_service(config)
        fill(service, payloads)
        original = StorageService._land
        moved = collections.Counter()

        def crash_on_second(self, batch):
            if moved[id(self)] >= 1:
                raise RuntimeError("injected crash")
            moved[id(self)] += 1
            return original(self, batch)

        monkeypatch.setattr(StorageService, "_land", crash_on_second)
        with pytest.raises(RuntimeError, match="injected crash"):
            service.transition_to("ae-3-2-5")
        monkeypatch.undo()
        service.fail_locations(
            Topology.parse("sites=3,racks=1,nodes=2").locations_for_target("site:0")
        )
        shards = {id(member): member for member in map(service.service_for, payloads)}
        assert len(shards) == 2 and any(shard.transition for shard in shards.values())
        lost_data = sum(
            len(
                shard.cluster.unavailable_blocks()
                & {block_id for doc in shard.documents.values() for block_id in doc.data_ids}
            )
            for shard in shards.values()
        )
        assert service.status().unavailable_data_blocks == lost_data == 22
        assert service.repair().data_loss == 0


class TestOrphansOfAnInterruptedReencode:
    """A crash between a move's commit and its reclaim leaves the source's
    version behind as orphans.  After ``rs-4-12 -> rs-10-4`` the orphans at
    positions 14 and 15 name no block of the target; losing one must not
    abort ``repair()`` for every other stripe."""

    def test_repair_lists_them_and_repairs_the_rest(self, monkeypatch):
        payloads = make_docs(count=4, size=3000)
        service = StorageService.open(
            mem_config("rs-4-12", topology=20, placement="spread-domains", batch_blocks=6)
        )
        fill(service, payloads)
        original = StorageService._reclaim

        def crash_once(self, versions):
            if any(scheme.scheme_id == "rs-4-12" for scheme, _ in versions):
                monkeypatch.setattr(StorageService, "_reclaim", original)
                raise RuntimeError("injected crash")
            return original(self, versions)

        monkeypatch.setattr(StorageService, "_reclaim", crash_once)
        with pytest.raises(RuntimeError, match="injected crash"):
            service.transition_to("rs-10-4")
        service.transition_to("rs-10-4")
        assert service.scheme.scheme_id == "rs-10-4" and service.transition is None
        orphans = sorted(b for b in service.cluster.block_ids() if b.position >= 14)
        assert orphans and all(service.scheme.stripes_written > b.stripe for b in orphans)

        down = service.cluster.location_of(orphans[0])
        lost = set(service.cluster.blocks_at(down))
        service.fail_locations([down])
        report = service.repair()
        assert report.data_loss == 0
        assert {b for b in lost if b.position >= 14} == set(report.unrecovered)
        assert_byte_exact(service, payloads)


class TestConcurrentFrontend:
    def test_reads_keep_streaming_through_a_transition_chain(self):
        payloads = make_docs(count=6, size=2500)
        frontend = ConcurrentStorageService.open(mem_config("rep-3"), workers=3)
        for name, payload in payloads.items():
            frontend.put(name, payload)

        errors = []
        mismatches = []
        stop = threading.Event()

        def reader():
            names = sorted(payloads)
            position = 0
            while not stop.is_set():
                name = names[position % len(names)]
                position += 1
                try:
                    if frontend.get(name) != payloads[name]:
                        mismatches.append(name)
                except (ReproError, ValueError, KeyError, OSError) as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for target in ("ae-3-2-5", "rs-10-4"):
                report = frontend.transition_to(target)
                assert report is not None and report.target == target
        finally:
            stop.set()
            for thread in threads:
                thread.join()

        assert errors == []
        assert mismatches == []
        for name, payload in payloads.items():
            assert frontend.get(name) == payload
        # The service keeps accepting writes after the chain.
        frontend.put("after", b"x" * 2048)
        assert frontend.get("after") == b"x" * 2048
        frontend.close()


class TestFrontendBatchGuard:
    """The front-end guards a re-encode batch by write-locking its names'
    stripes.  With ``workers=1`` there are two stripes, so every batch of
    several names holds two names of one stripe: each stripe must be taken
    once (the locks are not reentrant) and readers must see either side of
    the batch, byte-exact."""

    TIMEOUT = 60

    def frontend(self, **overrides):
        frontend = ConcurrentStorageService.open(mem_config("rep-3", **overrides), workers=1)
        assert frontend.stripe_count == 2
        payloads = make_docs(count=8, size=1500)
        for name, payload in payloads.items():
            frontend.put(name, payload)
        return frontend, payloads

    def run_in_thread(self, work):
        outcome = {}

        def body():
            try:
                outcome["result"] = work()
            except (ReproError, OSError) as exc:  # reported by the caller
                outcome["error"] = exc

        thread = threading.Thread(target=body, daemon=True)
        thread.start()
        return thread, outcome

    def test_a_chain_of_shared_stripe_batches_runs_under_readers(self):
        frontend, payloads = self.frontend()
        errors, mismatches = [], []
        stop = threading.Event()

        def reader(offset):
            names = sorted(payloads)
            position = offset
            while not stop.is_set():
                name = names[position % len(names)]
                position += 1
                try:
                    if frontend.get(name) != payloads[name]:
                        mismatches.append(name)
                except ReproError as exc:
                    errors.append(exc)

        readers = [
            threading.Thread(target=reader, args=(offset,), daemon=True) for offset in range(3)
        ]
        for thread in readers:
            thread.start()

        def chain():
            return [frontend.transition_to(target) for target in ("ae-3-2-5", "rs-10-4")]

        thread, outcome = self.run_in_thread(chain)
        thread.join(self.TIMEOUT)
        stop.set()
        assert not thread.is_alive(), "the transition chain deadlocked"
        for reader_thread in readers:
            reader_thread.join(self.TIMEOUT)
        assert "error" not in outcome, outcome.get("error")
        assert [report.documents_migrated for report in outcome["result"]] == [8, 8]
        assert errors == [] and mismatches == []
        assert_byte_exact(frontend, payloads)
        frontend.close()

    def test_an_open_stream_of_a_pending_document_finishes_byte_exact(self):
        """A ``get_stream`` holds its stripe's read lock until exhausted, so
        the batch naming that document waits for it: the stream reads its
        old blocks to the end, and the transition then moves it."""
        frontend, payloads = self.frontend(batch_blocks=2)
        name = min(payloads)
        stream = frontend.get_stream(name)
        head = next(stream)
        thread, outcome = self.run_in_thread(lambda: frontend.transition_to("rs-10-4"))
        deadline = time.monotonic() + self.TIMEOUT
        while frontend.service.transition is None and time.monotonic() < deadline:
            time.sleep(0.01)  # the plan is made before the first batch
        thread.join(0.2)
        assert thread.is_alive(), "the batch did not wait for the open stream"
        assert name in frontend.service.transition.pending
        assert head + b"".join(stream) == payloads[name]
        thread.join(self.TIMEOUT)
        assert not thread.is_alive() and "error" not in outcome, outcome.get("error")
        assert outcome["result"].documents_migrated == len(payloads)
        assert_byte_exact(frontend, payloads)
        frontend.close()


class TestShardedTransitions:
    def test_federation_migrates_every_shard(self, tmp_path):
        from repro.system.sharding import ShardedStorageService

        payloads = make_docs(count=6, size=2000)
        root = tmp_path / "fed"
        config = disk_config("rep-3", root, shards=2)
        federation = ShardedStorageService.open(config)
        fill(federation, payloads)

        report = federation.transition_to("ae-3-2-5")
        assert set(report.per_shard) == set(federation.shard_ids)
        migrated = report.documents_migrated
        assert migrated == len(payloads)
        assert_byte_exact(federation, payloads)
        federation.close()

        reopened = ShardedStorageService.open(disk_config("ae-3-2-5", root, shards=2))
        assert_byte_exact(reopened, payloads)
        reopened.close()

    def test_crash_between_shards_resumes_on_reopen(self, tmp_path, monkeypatch):
        from repro.system.sharding import ShardedStorageService

        payloads = make_docs(count=6, size=2000)
        root = tmp_path / "fed"
        federation = ShardedStorageService.open(disk_config("rep-3", root, shards=2))
        fill(federation, payloads)

        original = ConcurrentStorageService.transition_to
        calls = {"count": 0}

        def crash_on_second(self, scheme):
            calls["count"] += 1
            if calls["count"] >= 2:
                raise RuntimeError("injected crash between shards")
            return original(self, scheme)

        monkeypatch.setattr(ConcurrentStorageService, "transition_to", crash_on_second)
        with pytest.raises(RuntimeError, match="between shards"):
            federation.transition_to("ae-3-2-5")
        monkeypatch.undo()
        del federation  # crash: no close()

        reopened = ShardedStorageService.open(disk_config("rep-3", root, shards=2))
        assert_byte_exact(reopened, payloads)
        for shard_id in reopened.shard_ids:
            assert reopened.shard(shard_id).service.scheme.scheme_id == "ae-3-2-5"
        status_scheme = reopened.transition_to("ae-3-2-5")
        assert status_scheme is None  # already settled on the target
        reopened.close()

    @pytest.mark.parametrize("crashed_shard", [0, 1])
    def test_a_crash_inside_one_shards_reencode_resumes_without_a_marker(
        self, crashed_shard, tmp_path, monkeypatch
    ):
        """``federation.json`` records no transition: the shards' own
        manifests say which switched, and a reopen under either endpoint id
        finishes the one scheme that differs from the binding."""
        from repro.system.sharding import FEDERATION_NAME, ShardedStorageService

        payloads = make_docs(count=8, size=2000)
        root = tmp_path / "fed"
        # One 4-block document per re-encode batch.
        federation = ShardedStorageService.open(
            disk_config("rep-3", root, shards=2, batch_blocks=4)
        )
        fill(federation, payloads)
        victim = federation.shard(crashed_shard).service
        assert victim.documents, "the crashed shard must own documents"
        original = StorageService._land
        landed = []

        def crash_on_second(self, batch):
            if self is victim:
                landed.extend(name for name, _ in batch)
                if len(landed) >= 2:
                    raise RuntimeError("injected crash inside a re-encode")
            return original(self, batch)

        monkeypatch.setattr(StorageService, "_land", crash_on_second)
        with pytest.raises(RuntimeError, match="inside a re-encode"):
            federation.transition_to("ae-3-2-5")
        monkeypatch.undo()
        assert victim.transition is not None and victim.transition.pending
        del federation, victim  # crash: no close()
        images = {
            reopen_as: shutil.copytree(root, tmp_path / f"image-{reopen_as}")
            for reopen_as in ("rep-3", "ae-3-2-5")
        }
        for reopen_as, image in images.items():
            reopened = ShardedStorageService.open(disk_config(reopen_as, image))
            for shard_id in reopened.shard_ids:
                service = reopened.shard(shard_id).service
                assert service.scheme.scheme_id == "ae-3-2-5", (reopen_as, shard_id)
                assert service.transition is None
            assert_byte_exact(reopened, payloads)
            reopened.close()
            record = json.loads((image / FEDERATION_NAME).read_text(encoding="utf-8"))
            assert list(record) == ["format", "scheme", "backend", "vnodes", "shard_ids", "leaving"]
            assert record["scheme"] == "ae-3-2-5"
