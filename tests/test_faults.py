"""Faults at the bottom of the storage stack, seen from the document service.

Three parts:

* the ``faulty`` double itself (``tests/faults.py``): each fault fires on
  the call it is scheduled for, and a seed replays a run exactly;
* a refused write leaves the service as it was: the scheme state, the
  strand heads and the stored blocks equal their values before the write,
  and a later two-location outage or a reopen still reads every document;
* the sweep: seeded ``put`` / ``get`` / ``delete`` runs through
  ``open_service`` over ``faulty``-wrapped ``memory`` and ``segment``
  clusters, and two cuts of a durable tree between two durable writes.
"""

from __future__ import annotations

import errno
import itertools
import threading
from typing import Dict, List, Optional, Set

import numpy as np
import pytest

from repro.core.blocks import DataId
from repro.exceptions import (
    BlockUnavailableError,
    RepairFailedError,
    ReproError,
    UnknownBlockError,
)
from repro.storage import backends
from repro.storage.cluster import StorageCluster
from repro.system import open_service
from repro.system.catalogue import Catalogue
from repro.system.service import StorageConfig, StorageService
from tests.faults import FAULTS, FaultSchedule, FaultyBackend

BLOCK = 64
LOCATIONS = 8

#: What a refused operation may raise: the library's own errors, or the
#: medium's.
TYPED = (ReproError, OSError)


def heads(service) -> Dict[object, tuple]:
    """The encoder's strand heads, ``strand -> (creator, payload bytes)``
    (empty for a stripe scheme)."""
    entangler = getattr(service.scheme, "entangler", None)
    if entangler is None:
        return {}
    registry = entangler._heads
    return {
        strand: (creator, bytes(registry.head(strand)[1]))
        for strand, creator in registry.snapshot().items()
    }


def fingerprint(service, blocks: Optional[int] = None) -> tuple:
    """What a refused write must leave unchanged: the stored blocks (by
    default ``status().blocks``), the scheme state, the strand heads and
    the catalogue."""
    if blocks is None:
        blocks = service.status().blocks
    return (blocks, service.scheme.state(), heads(service), dict(service.documents))


def owned_blocks(service) -> int:
    """Stored blocks the scheme has encoded.  An undo whose delete was
    refused leaves orphans past the write position (the next batch writes
    over them), and a later undo deletes them along with its own batch."""
    return sum(map(service.scheme.owns, service.cluster.block_ids()))


def open_faulty(
    inner: str, schedule: FaultSchedule, root: Optional[str], scheme: str, **options
):
    cluster = StorageCluster(
        LOCATIONS, backend="faulty", root=root, inner=inner, schedule=schedule, **options
    )
    return open_service(
        StorageConfig(scheme=scheme, cluster=cluster, block_size=BLOCK, data_dir=root)
    )


# ----------------------------------------------------------------------
# The double
# ----------------------------------------------------------------------
class TestFaultyBackend:
    def backend(self, **schedule):
        return FaultyBackend(backends.get("memory"), FaultSchedule(**schedule))

    def test_only_the_payload_verbs_are_wrapped(self):
        assert set(FAULTS) == {"put_many", "get", "delete_many", "flush"}
        faulty = backends.get("faulty", inner="memory")
        assert isinstance(faulty, FaultyBackend) and not faulty.persistent
        faulty.put_many([(DataId(1), b"ab")])
        calls = faulty.schedule.calls
        assert list(faulty.scan()) == [(DataId(1), 2)]
        faulty.clear()
        faulty.close()
        assert faulty.schedule.calls == calls

    @pytest.mark.parametrize(
        "fault, code", [("write-eio", errno.EIO), ("enospc", errno.ENOSPC)]
    )
    def test_a_refused_write_touches_nothing(self, fault, code):
        backend = self.backend(at={1: fault})
        backend.put_many([(DataId(1), b"a")])
        with pytest.raises(OSError) as raised:
            backend.put_many([(DataId(2), b"b"), (DataId(3), b"c")])
        assert raised.value.errno == code
        assert dict(backend.scan()) == {DataId(1): 1}
        assert backend.schedule.fired == [(1, "put_many", fault)]

    @pytest.mark.parametrize("fault", ["short", "torn"])
    def test_a_short_or_torn_batch_leaves_a_prefix(self, fault):
        backend = self.backend(seed=4, at={0: fault})
        batch = [(DataId(i), bytes([i]) * 8) for i in range(1, 9)]
        with pytest.raises(OSError):
            backend.put_many(batch)
        stored = dict(backend.scan())
        prefix = [block_id for block_id, _ in batch[: len(stored)]]
        assert sorted(stored) == prefix
        if fault == "short":
            assert set(stored.values()) == {8}
        else:
            assert stored[prefix[-1]] < 8 and set(stored.values()) - {stored[prefix[-1]]} <= {8}

    def test_read_faults(self):
        backend = self.backend(seed=2, at={1: "read-eio", 2: "flip"})
        backend.put_many([(DataId(1), b"\x00" * 4)])
        with pytest.raises(OSError):
            backend.get(DataId(1))
        flipped = backend.get(DataId(1))
        assert sum(bin(byte).count("1") for byte in bytes(flipped)) == 1
        assert bytes(backend.get(DataId(1))) == b"\x00" * 4
        assert bytes(backend.inner.get(DataId(1))) == b"\x00" * 4

    def test_delete_and_flush_faults(self):
        backend = self.backend(at={1: "write-eio", 2: "flush"})
        backend.put_many([(DataId(1), b"a")])
        with pytest.raises(OSError):
            backend.delete_many([DataId(1)])
        with pytest.raises(OSError):
            backend.flush()
        assert backend.delete_many([DataId(1)]) == 1

    def test_a_fault_pinned_to_another_verb_does_not_fire(self):
        backend = self.backend(at={0: "flip"})
        backend.put_many([(DataId(1), b"a")])
        assert backend.schedule.fired == []

    def test_fail_after_n_fails_every_later_call(self):
        backend = self.backend(fail_after=2)
        backend.put_many([(DataId(1), b"a")])
        backend.get(DataId(1))
        for call in (
            lambda: backend.get(DataId(1)),
            lambda: backend.put_many([(DataId(2), b"b")]),
            lambda: backend.delete_many([DataId(1)]),
            backend.flush,
        ):
            with pytest.raises(OSError):
                call()
        assert [verb for _, verb, _ in backend.schedule.fired] == [
            "get", "put_many", "delete_many", "flush"
        ]
        backend.schedule.clear()
        assert dict(backend.scan()) == {DataId(1): 1}

    def test_unknown_faults_are_refused(self):
        with pytest.raises(ValueError):
            FaultSchedule(rates={"gremlin": 0.5})

    def test_a_seed_replays_a_run_exactly(self):
        rates = {"write-eio": 0.1, "short": 0.1, "torn": 0.1, "read-eio": 0.2, "flip": 0.2}

        def run(seed):
            backend = self.backend(seed=seed, rates=rates)
            seen = []
            for index in range(1, 60):
                try:
                    backend.put_many([(DataId(index), bytes([index]) * 16)] * 2)
                except OSError as exc:
                    seen.append(exc.errno)
                try:
                    seen.append(bytes(backend.get(DataId(index))))
                except (OSError, KeyError) as exc:
                    seen.append(type(exc).__name__)
            return backend.schedule.fired, seen, sorted(backend.scan())

        first = run(11)
        assert first == run(11)
        assert first[0] != run(12)[0]
        assert {fault for _, _, fault in first[0]} == set(rates)


# ----------------------------------------------------------------------
# A refused write leaves the service as it was
# ----------------------------------------------------------------------
def three_documents():
    rng = np.random.default_rng(0)
    return {name: rng.bytes(20 * BLOCK) for name in "abc"}


class TestARefusedPutIsUndone:
    @pytest.mark.parametrize("scheme", ["ae-3-2-5", "ae-2-2-5-p75", "rs-4-2"])
    def test_blocks_state_and_heads_are_what_they_were(self, scheme):
        docs = three_documents()
        service = open_service(scheme=scheme, topology=LOCATIONS, block_size=BLOCK)
        service.put("a", docs["a"])
        service.fail_locations([3])
        before = fingerprint(service)
        with pytest.raises(BlockUnavailableError):
            service.put("b", docs["b"])
        assert fingerprint(service) == before
        assert service.get("a") == docs["a"]

    def test_no_two_location_outage_loses_a_document(self):
        """A refused put that left the lattice at 40 nodes over 20 stored
        ones would cost ``b`` once ``b`` and ``c`` are put again: ``get("b")``
        fails when locations 4 and 7 go down (``cannot repair block d41``)."""
        docs = three_documents()
        service = open_service(scheme="ae-3-2-5", topology=LOCATIONS, block_size=BLOCK)
        service.put("a", docs["a"])
        service.fail_locations([3])
        with pytest.raises(BlockUnavailableError):
            service.put("b", docs["b"])
        assert service.scheme.lattice.size == 20 and service.status().blocks == 80
        service.restore_locations([3])
        service.put("b", docs["b"])
        service.put("c", docs["c"])
        for pair in itertools.combinations(range(LOCATIONS), 2):
            service.fail_locations(pair)
            for name, data in docs.items():
                assert service.get(name) == data, (pair, name)
            service.restore_locations(pair)

    def test_a_durable_store_reopens_after_a_torn_fan_out(self, tmp_path):
        """The first location of ``b``'s fan-out writes part of its blocks,
        flushes, then raises ENOSPC.  A ``close()`` that checkpointed
        ``blocks_encoded: 40`` would make the reopen raise ``cannot repair
        block p[40,h]``; torn records left on the medium would make it count
        more blocks than the 80 stored."""
        docs = three_documents()
        root = str(tmp_path / "tree")
        schedule = FaultSchedule()
        service = open_faulty("segment", schedule, root, "ae-3-2-5")
        service.put("a", docs["a"])
        assert service.status().blocks == 80
        schedule.at[schedule.calls] = "short"
        with pytest.raises(OSError):
            service.put("b", docs["b"])
        assert [fault for _, _, fault in schedule.fired] == ["short"]
        assert service.scheme.state() == {"blocks_encoded": 20}
        service.close()
        with open_faulty("segment", schedule, root, "ae-3-2-5") as reopened:
            assert reopened.status().blocks == 80
            assert reopened.get("a") == docs["a"]
            reopened.put("b", docs["b"])
            assert reopened.get("b") == docs["b"]

    def test_an_undo_that_cannot_read_the_heads_is_owed(self, tmp_path):
        """Every call fails from ``b``'s put on: its undo cannot read the
        strand heads back (no read cache holds them), nor rebuild them, so
        the put is refused with the ``RepairFailedError`` of a head.  The
        undo stays owed: a close checkpoints the state before ``b``, and the
        next put finishes the undo first."""
        docs = three_documents()
        root = str(tmp_path / "tree")
        schedule = FaultSchedule()
        service = open_faulty("segment", schedule, root, "ae-3-2-5", cache_blocks=0)
        service.put("a", docs["a"])
        schedule.fail_after = schedule.calls
        with pytest.raises(RepairFailedError):
            service.put("b", docs["b"])
        assert "get" in {verb for _, verb, _ in schedule.fired}
        schedule.clear()
        service.close()
        with open_faulty("segment", schedule, root, "ae-3-2-5") as reopened:
            assert reopened.scheme.state() == {"blocks_encoded": 20}
            assert reopened.get("a") == docs["a"]
        service = open_faulty("memory", schedule, None, "ae-3-2-5")
        service.put("a", docs["a"])
        schedule.fail_after = schedule.calls
        with pytest.raises(RepairFailedError):
            service.put("b", docs["b"])
        schedule.clear()
        service.put("b", docs["b"])
        service.put("c", docs["c"])
        for pair in itertools.combinations(range(LOCATIONS), 2):
            service.fail_locations(pair)
            for name, data in docs.items():
                assert service.get(name) == data, (pair, name)
            service.restore_locations(pair)

    def test_an_undo_owed_by_a_retired_scheme_is_not_run(self):
        """An undo still owed when a transition replaces the scheme belongs
        to the scheme it was taken on.  Run on the successor (here an alpha
        raise's encoder, which already holds every strand head) it would
        read the heads back for nothing: with every read refused, the next
        put would be refused too."""
        docs = three_documents()
        schedule = FaultSchedule()
        service = open_faulty("memory", schedule, None, "ae-2-2-5", cache_blocks=0)
        service.put("a", docs["a"])
        schedule.fail_after = schedule.calls
        with pytest.raises(RepairFailedError):
            service.put("b", docs["b"])
        schedule.clear()
        service.transition_to("ae-3-2-5")
        schedule.rates = {"read-eio": 1.0}
        service.put("b", docs["b"])
        schedule.clear()
        assert service.scheme.state() == {"blocks_encoded": 40}
        for name in "ab":
            assert service.get(name) == docs[name], name
        assert service.scrub().clean

    def test_a_refused_batch_frees_no_id_another_writer_reuses(self, monkeypatch):
        """Writer one's batch is refused and undone; writer two takes the
        lock before writer one's failure path runs its reclaim, and
        re-encodes the same stripe ids.  That reclaim must not name the
        refused batch's ids, or it deletes writer two's acknowledged
        document."""
        docs = three_documents()
        schedule = FaultSchedule()
        service = open_faulty("memory", schedule, None, "rs-4-2")
        service.put("a", docs["a"])
        reclaim = service._reclaim
        second: List[threading.Thread] = []

        def reclaim_after_the_second_writer(versions):
            if not second:
                second.append(threading.Thread(target=service.put, args=("c", docs["c"])))
                second[0].start()
                second[0].join(timeout=30)
                assert not second[0].is_alive()
            return reclaim(versions)

        monkeypatch.setattr(service, "_reclaim", reclaim_after_the_second_writer)
        schedule.at[schedule.calls] = "enospc"
        with pytest.raises(OSError):
            service.put("b", docs["b"])
        assert second and "c" in service.documents
        for name in "ac":
            assert service.get(name) == docs[name], name
        assert service.scrub().clean


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
#: Per-call fault chances of the sweep (the silent flip is pinned apart).
RATES = {
    "write-eio": 0.01,
    "enospc": 0.01,
    "short": 0.01,
    "torn": 0.01,
    "read-eio": 0.02,
    "flush": 0.05,
}
NAMES = [f"doc-{number}" for number in range(5)]


def sweep(
    seed: int,
    inner: str,
    scheme: str,
    tmp_path,
    operations: int,
    rates: Dict[str, float] = RATES,
) -> FaultSchedule:
    """One seeded run with random faults and one outage (every call fails
    for four operations: fail-after-N, then cleared); returns its schedule.

    ``possible[name]`` is every value a get of ``name`` may return (``None``:
    absent).  A put is acknowledged when it returns.  A put refused before
    its commit changes nothing; one refused by the reclaim of the version it
    replaced has landed.  A refused delete may have uncatalogued the
    document.
    """
    rng = np.random.default_rng(seed)
    schedule = FaultSchedule(seed, rates)
    root = str(tmp_path / f"{inner}-{scheme}-{seed}") if inner != "memory" else None
    service = open_faulty(inner, schedule, root, scheme)
    possible: Dict[str, Set[Optional[bytes]]] = {name: {None} for name in NAMES}
    outage = int(rng.integers(operations))
    for step in range(operations):
        if step in (outage, outage + 4):
            schedule.fail_after = schedule.calls if step == outage else None
        name = NAMES[int(rng.integers(len(NAMES)))]
        where = (seed, step, name)
        roll = rng.random()
        if roll < 0.5:
            data = rng.bytes(int(rng.integers(1, 12 * BLOCK)))
            before = fingerprint(service, owned_blocks(service))
            fired = len(schedule.fired)
            # A put that finds an undo still owed retries it first.
            owed = service._undo is not None
            try:
                service.put(name, data)
            except TYPED:
                faults = [verb for _, verb, _ in schedule.fired[fired:]]
                if faults[0] == "delete_many":  # the reclaim, after the commit
                    possible[name] = {data}
                elif not owed and set(faults[1:]) <= {"put_many"}:  # an undo not refused
                    assert fingerprint(service, owned_blocks(service)) == before, where
                continue
            possible[name] = {data}
        elif roll < 0.8:
            try:
                got: Optional[bytes] = service.get(name)
            except UnknownBlockError:
                got = None
            except TYPED:
                continue
            assert got in possible[name], where
            possible[name] = {got}
        elif roll < 0.92:
            try:
                service.delete(name)
            except UnknownBlockError:
                assert None in possible[name], where
            except TYPED:
                possible[name].add(None)
                continue
            possible[name] = {None}
        else:
            try:
                service.flush()
            except OSError:
                pass
    schedule.clear()
    if root is not None:
        service.close()
        service = open_faulty(inner, schedule, root, scheme)
    for name, values in possible.items():
        got = service.get(name) if service.has_document(name) else None
        assert got in values, (seed, name)
    assert service.scrub().clean, seed
    service.close()
    return schedule


@pytest.mark.parametrize("scheme", ["ae-3-2-5", "rs-4-2"])
@pytest.mark.parametrize("inner", ["memory", "segment"])
def test_the_sweep(inner, scheme, tmp_path):
    """Ten seeds; between them every fault of :data:`RATES` fires, and the
    outage."""
    fired = set()
    for seed in range(10):
        fired |= {fault for _, _, fault in sweep(seed, inner, scheme, tmp_path, 60).fired}
    assert fired == set(RATES) | {"fail"}


@pytest.mark.deep
@pytest.mark.parametrize("scheme", ["ae-3-2-5", "ae-2-2-5-p75", "rs-4-2", "rep-3"])
@pytest.mark.parametrize("inner", ["memory", "segment", "disk"])
@pytest.mark.parametrize("seed", range(100, 140))
def test_the_deep_sweep(seed, inner, scheme, tmp_path):
    sweep(seed, inner, scheme, tmp_path, operations=120)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: the live get verifies no checksum, so a flipped bit "
    "on the medium reads back as the document",
)
def test_a_silent_bit_flip_is_caught(tmp_path):
    data = bytes(range(256)) * 2
    schedule = FaultSchedule()
    service = open_faulty("memory", schedule, None, "ae-3-2-5")
    service.put("doc", data)
    schedule.rates = {"flip": 1.0}
    try:
        got = service.get("doc")
    except TYPED:
        return
    assert got == data


# ----------------------------------------------------------------------
# One EIO on read is an erasure
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["ae-3-2-5", "rs-4-2"])
def test_one_read_eio_on_any_block_is_an_erasure(scheme):
    """A read the medium refuses is an erasure: the get reads around it,
    byte-exact, and ``repair()`` rewrites the block.  Before, the
    ``OSError`` went up through ``get`` (with ``cache_blocks=0`` every
    block of a healthy get is one backend call)."""
    data = np.random.default_rng(5).bytes(10 * BLOCK + 7)
    for call in itertools.count():
        schedule = FaultSchedule()
        service = open_faulty("memory", schedule, None, scheme, cache_blocks=0)
        service.put("doc", data)
        schedule.at = {schedule.calls + call: "read-eio"}
        assert service.get("doc") == data, call
        if not schedule.fired:
            break  # the get made fewer backend calls: every block was hit
        (lost,) = service.cluster.unreadable_blocks()
        writes = service.cluster.location(service.cluster.location_of(lost)).write_count
        report = service.repair()
        assert report.repaired == [lost] and report.data_loss == 0
        assert service.cluster.location(service.cluster.location_of(lost)).write_count > writes
        assert not service.cluster.unreadable_blocks()
        assert service.get("doc") == data
    assert call == len(service.documents["doc"].data_ids)


# ----------------------------------------------------------------------
# Cuts between two durable writes
# ----------------------------------------------------------------------
class Crash(Exception):
    """The process dies here: nothing after this point reaches the disk."""


class TestCutsBetweenDurableWrites:
    @pytest.mark.parametrize("scheme", ["ae-3-2-5", "rs-4-2"])
    def test_after_the_block_flush_and_before_the_wal_commit(self, scheme, tmp_path, monkeypatch):
        """A batch's blocks are on the medium, its catalogue record is not:
        the reopened tree reads every acknowledged document, knows nothing of
        the cut one, and writes it again."""
        docs = three_documents()
        root = str(tmp_path / "tree")
        schedule = FaultSchedule()
        service = open_faulty("segment", schedule, root, scheme)
        service.put("a", docs["a"])
        flushed: List[int] = []
        commit = Catalogue.commit

        def cut(catalogue, records):
            flushed.append(service.cluster.stats().blocks)
            raise Crash

        monkeypatch.setattr(Catalogue, "commit", cut)
        with pytest.raises(Crash):
            service.put("b", docs["b"])
        monkeypatch.setattr(Catalogue, "commit", commit)
        assert flushed and flushed[0] > service.status().blocks - 1
        with open_faulty("segment", schedule, root, scheme) as reopened:
            assert sorted(reopened.documents) == ["a"]
            assert reopened.get("a") == docs["a"]
            reopened.put("b", docs["b"])
            reopened.put("c", docs["c"])
            for name, data in docs.items():
                assert reopened.get(name) == data
            assert reopened.scrub().clean

    @pytest.mark.parametrize("scheme", ["ae-3-2-5", "rs-4-2"])
    def test_after_an_overwrite_commit_and_before_its_reclaim(self, scheme, tmp_path, monkeypatch):
        """The new version is committed, the old one not yet reclaimed: the
        reopened tree reads the new version, and the old one's blocks are
        orphans that cost space but not correctness."""
        docs = three_documents()
        root = str(tmp_path / "tree")
        schedule = FaultSchedule()
        service = open_faulty("segment", schedule, root, scheme)
        service.put("a", docs["a"])
        service.put("b", docs["b"])
        reclaim = StorageService._reclaim

        def cut(self, versions):
            if versions:
                raise Crash
            return reclaim(self, versions)

        monkeypatch.setattr(StorageService, "_reclaim", cut)
        with pytest.raises(Crash):
            service.put("a", docs["c"])
        monkeypatch.setattr(StorageService, "_reclaim", reclaim)
        with open_faulty("segment", schedule, root, scheme) as reopened:
            assert sorted(reopened.documents) == ["a", "b"]
            assert reopened.get("a") == docs["c"]
            assert reopened.get("b") == docs["b"]
            assert reopened.scrub().clean
