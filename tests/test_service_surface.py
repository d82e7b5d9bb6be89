"""One scenario, written once against :class:`DocumentService`.

The document-service surface is declared once (``repro.system.protocol``)
and opened one way (``repro.system.open_service``); this file drives the same
lifecycle through every layer that conforms to it -- the plain
``StorageService``, the concurrent front-end and a 2-shard federation, on a
volatile and a durable backend -- so a verb that drifts on one layer fails
here instead of in whichever caller happens to hold that layer.

It also pins the use-after-close contract (every verb raises the layer's own
closed error; introspection stays readable), including the stale-``flush()``
data-loss regression, ``repair(policy)`` across layers and scheme families,
and the parameter names of the shared verbs.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools

import numpy as np
import pytest

from repro.exceptions import (
    BlockUnavailableError,
    InvalidParametersError,
    RepairFailedError,
    UnknownBlockError,
)
from repro.storage import MaintenancePolicy
from repro.system import (
    ConcurrentStorageService,
    DocumentService,
    ServiceRepairReport,
    ServiceScrubReport,
    ServiceStatus,
    ShardedStorageService,
    StorageConfig,
    StorageService,
    open_service,
)

#: Layer name -> (the ``open_service`` arguments that select it, its class).
LAYERS = {
    "plain": ({}, StorageService),
    "front-end": ({"workers": 2}, ConcurrentStorageService),
    "federation": ({"shards": 2}, ShardedStorageService),
}
BACKENDS = ("memory", "segment")
TOPOLOGY = "sites=4,nodes=5"


def payload(seed: int, size: int = 3_000) -> bytes:
    return bytes((seed * 31 + index * 7) % 251 for index in range(size))


def open_layer(layer: str, backend: str, tmp_path, scheme: str = "rs-10-4"):
    selectors, _ = LAYERS[layer]
    return open_service(
        StorageConfig(
            scheme=scheme,
            block_size=256,
            topology=TOPOLOGY,
            backend=backend,
            data_dir=None if backend == "memory" else str(tmp_path / "root"),
        ),
        **selectors,
    )


def closed_verbs(service: DocumentService):
    """Every verb that must refuse a closed handle, as ``(name, call)``."""
    return [
        ("put", lambda: service.put("late", b"x")),
        ("put_stream", lambda: service.put_stream("late", [b"x"])),
        ("get", lambda: service.get("doc")),
        ("get_stream", lambda: list(service.get_stream("doc"))),
        ("verify_document", lambda: service.verify_document("doc", b"x")),
        ("delete", lambda: service.delete("doc")),
        ("fail_locations", lambda: service.fail_locations([0])),
        ("restore_locations", lambda: service.restore_locations()),
        ("repair", lambda: service.repair()),
        ("scrub", lambda: service.scrub()),
        ("transition_to", lambda: service.transition_to("rep-3")),
        ("flush", lambda: service.flush()),
    ]


@pytest.mark.parametrize(
    "layer,backend", list(itertools.product(LAYERS, BACKENDS))
)
def test_lifecycle_through_the_surface(layer, backend, tmp_path):
    service = open_layer(layer, backend, tmp_path)
    selectors, expected_class = LAYERS[layer]
    shard_count = selectors.get("shards", 1)
    assert type(service) is expected_class
    assert isinstance(service, DocumentService)

    # -- documents: put / overwrite / stream / delete -------------------
    first, second, other = payload(1), payload(2, 5_000), payload(3, 700)
    assert service.put("doc", first).length == len(first)
    assert service.put("doc", second).length == len(second)  # overwrite
    assert service.get("doc") == second
    assert b"".join(service.get_stream("doc")) == second
    assert service.verify_document("doc", second)
    assert not service.verify_document("doc", first)
    streamed = service.put_stream("other", [other[:300], other[300:]])
    assert streamed.length == len(other) and service.get("other") == other
    assert service.has_document("other")
    service.delete("other")
    assert not service.has_document("other")
    with pytest.raises(UnknownBlockError):
        service.get("other")
    with pytest.raises(UnknownBlockError):
        service.delete("other")

    # -- introspection --------------------------------------------------
    assert service.scheme.scheme_id == "rs-10-4"
    assert service.capabilities.name == "RS(10,4)"
    assert service.block_size == 256
    assert service.topology.node_count == 20
    assert service.data_dir == (None if backend == "memory" else str(tmp_path / "root"))
    assert set(service.documents) == {"doc"}
    assert service.status().documents == 1
    holder = service.service_for("doc")
    assert type(holder) is StorageService and holder.has_document("doc")

    # -- a site fails: degraded get, repair, restore ---------------------
    site = sorted(service.topology.locations_for_target("site:0"))
    service.fail_locations(iter(site))  # any iterable, on every shard
    assert service.status().unavailable_locations == len(site) * shard_count
    assert service.get("doc") == second  # degraded read
    report = service.repair()
    assert report.data_loss == 0 and report.repaired_count > 0
    assert report.blocks_read > 0 and report.rounds >= 1
    assert service.status().unavailable_blocks == 0
    assert service.get("doc") == second
    service.restore_locations()
    assert service.status().unavailable_locations == 0

    # -- one transition hop ---------------------------------------------
    outcome = service.transition_to("ae-3-2-5")
    reports = list(getattr(outcome, "per_shard", {0: outcome}).values())
    assert len(reports) == shard_count
    assert outcome.documents_migrated == 1
    assert service.scheme.scheme_id == "ae-3-2-5"
    assert service.get("doc") == second

    # -- scrub: every shard's lattice checks out -------------------------
    scrub = service.scrub()
    assert isinstance(scrub, ServiceScrubReport) and scrub.clean
    assert scrub.checked > 0 and scrub.repaired == scrub.unrecovered == []

    # -- flush / close / every verb after close ---------------------------
    service.flush()
    service.close()
    service.close()  # idempotent
    for verb, call in closed_verbs(service):
        with pytest.raises(InvalidParametersError, match=expected_class.__name__):
            pytest.fail(f"{verb} ran on a closed handle: {call()!r}")
    assert service.has_document("doc")
    assert set(service.documents) == {"doc"}

    if backend != "memory":
        with open_layer(layer, backend, tmp_path, scheme="ae-3-2-5") as reopened:
            assert reopened.get("doc") == second


@pytest.mark.parametrize("layer", LAYERS)
def test_flush_on_a_closed_handle_cannot_roll_the_catalogue_back(layer, tmp_path):
    """Regression: ``flush()`` on a closed durable handle used to rewrite
    ``manifest.json`` from its stale memory, losing what a later open of the
    same root had committed."""
    stale = open_layer(layer, "disk", tmp_path)
    stale.put("a", payload(1))
    stale.close()
    with open_layer(layer, "disk", tmp_path) as current:
        current.put("b", payload(2))
    with pytest.raises(InvalidParametersError, match="closed"):
        stale.flush()
    with open_layer(layer, "disk", tmp_path) as reopened:
        assert reopened.get("a") == payload(1)
        assert reopened.get("b") == payload(2)


class SourceDied(RuntimeError):
    """A chunk source that fails mid-stream."""


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("scheme", ["rs-10-4", "rep-3"])
def test_a_failed_write_strands_no_blocks(layer, scheme):
    """Regression: a ``put_stream`` whose chunk source raised after three full
    batches left 42 (``rs-10-4``) / 90 (``rep-3``) blocks no document
    referenced and nothing ever reclaimed; a ``put`` refused half-way by a
    down location stranded blocks the same way."""
    selectors, _ = LAYERS[layer]
    service = open_service(
        StorageConfig(scheme=scheme, block_size=64, batch_blocks=10, topology=16),
        **selectors,
    )
    kept, stored = payload(1, 1_000), payload(2, 500)
    service.put("keep", kept)
    service.put("doc", stored)

    def footprint():
        status = service.status()
        return status.blocks, status.bytes_stored

    before = footprint()

    def dying_source():
        for seed in range(3):
            yield payload(seed, 10 * 64)  # one full batch
        raise SourceDied("the chunk source died mid-stream")

    with pytest.raises(SourceDied):
        service.put_stream("doc", dying_source())
    assert footprint() == before

    service.fail_locations([3])
    with pytest.raises(BlockUnavailableError):
        service.put("doc", payload(3, 4_000))  # some locations took their share
    service.restore_locations()
    assert footprint() == before

    # The failed writes never touched the stored version, and the name
    # still takes a good one.
    assert service.get("doc") == stored
    good = payload(4, 2_000)
    service.put_stream("doc", [good[:700], good[700:]])
    assert service.get("doc") == good and service.get("keep") == kept
    service.delete("doc")
    service.delete("keep")
    assert footprint() == (0, 0)
    service.close()


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("scheme", ["ae-3-2-5", "rs-10-4", "rep-3"])
@pytest.mark.parametrize("kind", ["bytearray", "memoryview", "ndarray"])
def test_put_snapshots_a_buffer_the_caller_can_still_write(layer, scheme, kind, tmp_path):
    """Regression: blocks are stored as zero-copy views of the buffer a
    document was cut from, so ``put`` of a writable buffer left the stored
    data blocks (not their parities) following the caller's later writes."""
    original = payload(5, 2048)
    raw = bytearray(original)
    buffer = {
        "bytearray": raw,
        "memoryview": memoryview(raw),
        "ndarray": np.frombuffer(raw, dtype=np.uint8),
    }[kind]
    with open_layer(layer, "memory", tmp_path, scheme=scheme) as service:
        assert service.put("doc", buffer).length == len(original)
        raw[0:4] = b"ZZZZ"
        assert service.get("doc") == original
        service.fail_locations(service.topology.locations_for_target("site:0"))
        assert service.get("doc") == original  # degraded read
        raw[1024:1028] = b"YYYY"
        assert service.get("doc") == original
        report = service.repair()
        assert report.data_loss == 0
        service.restore_locations()
        raw[-4:] = b"XXXX"
        assert service.get("doc") == original


class TestRepairPolicy:
    """``repair(policy)`` is one verb with one meaning at every layer and
    under every scheme family: the policy picks *what* is repaired."""

    SCHEMES = ("ae-3-2-5", "rs-10-4", "rep-3")
    #: Two nodes of different sites: within every scheme's tolerance.
    FAILED = (0, 7)

    @staticmethod
    def populated(layer, scheme, backend, tmp_path):
        """Six documents, and the plain services that hold them."""
        service = open_layer(layer, backend, tmp_path, scheme=scheme)
        documents = {f"doc-{n}": payload(n, 5_000 + 300 * n) for n in range(6)}
        for name, data in documents.items():
            service.put(name, data)
        holders = {id(h): h for h in map(service.service_for, documents)}.values()
        assert len(holders) == LAYERS[layer][0].get("shards", 1)
        return service, documents, list(holders)

    @staticmethod
    def damaged(layer, scheme, backend, tmp_path):
        populated = TestRepairPolicy.populated(layer, scheme, backend, tmp_path)
        populated[0].fail_locations(TestRepairPolicy.FAILED)
        return populated

    @staticmethod
    def listed(report, field):
        reports = getattr(report, "per_shard", {0: report}).values()
        return sorted(repr(b) for r in reports for b in getattr(r, field))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("layer", LAYERS)
    def test_full_is_the_default(self, layer, scheme, tmp_path):
        service, documents, _ = self.damaged(layer, scheme, "memory", tmp_path)
        twin, _, _ = self.damaged(layer, scheme, "memory", tmp_path)
        report, plain = service.repair(MaintenancePolicy.FULL), twin.repair()
        assert plain.repaired_count > 0 and plain.data_loss == 0
        for field in ("repaired", "unrecovered", "skipped"):
            assert self.listed(report, field) == self.listed(plain, field)
        assert self.listed(report, "skipped") == []
        assert (report.blocks_read, report.rounds) == (plain.blocks_read, plain.rounds)
        assert service.status() == twin.status()
        assert service.status().unavailable_blocks == 0

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("layer", LAYERS)
    def test_minimal_repairs_the_data_blocks_and_lists_the_rest(
        self, layer, scheme, tmp_path
    ):
        service, documents, holders = self.damaged(layer, scheme, "memory", tmp_path)
        data, redundancy = [], []
        for holder in holders:
            for block_id in holder.cluster.unavailable_blocks():
                is_data = holder.scheme.is_data_block(block_id)
                (data if is_data else redundancy).append(repr(block_id))
        assert data and redundancy
        report = service.repair(MaintenancePolicy.MINIMAL)
        assert report.data_loss == 0
        assert self.listed(report, "repaired") == sorted(data)
        assert self.listed(report, "skipped") == sorted(redundancy)
        assert self.listed(report, "unrecovered") == []
        assert service.status().unavailable_blocks == len(redundancy)
        assert sum(h.status().unavailable_data_blocks for h in holders) == 0
        if layer == "federation":
            assert report.skipped_count == len(redundancy)
        for name, expected in documents.items():
            assert service.get(name) == expected

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("layer", LAYERS)
    def test_none_touches_nothing(self, layer, scheme, tmp_path):
        service, _, holders = self.damaged(layer, scheme, "segment", tmp_path)
        logs = sorted((tmp_path / "root").rglob("wal.log"))
        assert len(logs) == len(holders)
        before = service.status(), [log.read_bytes() for log in logs]
        missing = sum(len(h.cluster.unavailable_blocks()) for h in holders)
        report = service.repair(MaintenancePolicy.NONE)
        assert report.repaired_count == 0 and report.blocks_read == 0
        assert len(self.listed(report, "skipped")) == missing > 0
        assert (service.status(), [log.read_bytes() for log in logs]) == before
        service.close()


class TestReportsAreSumsOfTheirHolders:
    """Every field of ``ServiceStatus``, ``ServiceRepairReport`` and
    ``ServiceScrubReport`` is on what each layer returns, and is the sum over the distinct ``service_for``
    holders (lists concatenated, ``rounds`` the max).  Regression: a
    federation's ``status()`` had no ``unavailable_data_blocks``,
    ``cache_hits`` or ``cache_misses``, and its ``repair()`` no ``repaired``,
    ``unrecovered``, ``skipped`` or ``scheme``."""

    @staticmethod
    def assert_summed(kind, report, parts):
        for spec in dataclasses.fields(kind):
            actual = getattr(report, spec.name)
            column = [getattr(part, spec.name) for part in parts]
            if spec.name == "scheme":
                assert {actual} == set(column), spec.name
            elif spec.name == "rounds":
                assert actual == max(column), spec.name
            elif isinstance(actual, list):
                flat = [item for listed in column for item in listed]
                assert sorted(map(repr, actual)) == sorted(map(repr, flat)), spec.name
            else:
                assert actual == sum(column), spec.name

    @pytest.mark.parametrize("layer", LAYERS)
    def test_every_plain_field_is_summed(self, layer, tmp_path):
        service, documents, holders = TestRepairPolicy.damaged(
            layer, "ae-3-2-5", "memory", tmp_path
        )
        twin, _, twin_holders = TestRepairPolicy.damaged(layer, "ae-3-2-5", "memory", tmp_path)
        for name in documents:
            service.get(name)
        self.assert_summed(ServiceStatus, service.status(), [h.status() for h in holders])
        report = service.repair(MaintenancePolicy.MINIMAL)
        parts = [holder.repair(MaintenancePolicy.MINIMAL) for holder in twin_holders]
        assert report.repaired and report.skipped
        self.assert_summed(ServiceRepairReport, report, parts)

    @pytest.mark.parametrize("layer", LAYERS)
    def test_a_scrub_is_the_sum_of_its_holders(self, layer, tmp_path):
        service, documents, holders = TestRepairPolicy.populated(
            layer, "ae-3-2-5", "memory", tmp_path
        )
        twin, _, twin_holders = TestRepairPolicy.populated(layer, "ae-3-2-5", "memory", tmp_path)
        for holder in holders + twin_holders:
            target = next(iter(holder.documents.values())).data_ids[3]
            store = holder.cluster.location(holder.cluster.location_of(target))
            changed = np.asarray(store.try_get_many([target])[0], dtype=np.uint8).copy()
            changed[0] ^= 0xFF
            store.put_many([(target, changed)])
        report = service.scrub()
        parts = [holder.scrub() for holder in twin_holders]
        assert len(report.repaired) == len(holders) and report.unrecovered == []
        self.assert_summed(ServiceScrubReport, report, parts)
        for name, expected in documents.items():
            assert service.get(name) == expected


class TestReadableHasOneDefinition:
    """A degraded read and ``repair()`` agree on what is lost, on every
    layer: ``get_stream`` refuses a document exactly when a repair of the
    same failed set leaves one of its data blocks unavailable, and what it
    returns is byte-exact (the plain-service form, with the recipes that
    found it, is in ``tests/test_storage_service.py``)."""

    SCHEMES = ("ae-3-2-5", "ae-2-2-5", "ae-3-2-5-p75", "ae-1")

    @staticmethod
    def degraded(layer, scheme, failed, tmp_path):
        service = open_layer(layer, "memory", tmp_path, scheme=scheme)
        documents = {f"doc-{n}": payload(n) for n in range(30)}
        for name, data in documents.items():
            service.put(name, data)
        service.fail_locations(range(failed))
        return service, documents

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("layer", LAYERS)
    def test_get_stream_raises_iff_repair_would_lose_a_block(self, layer, scheme, tmp_path):
        disagreements = {}
        for failed in range(4, 11):
            service, documents = self.degraded(layer, scheme, failed, tmp_path)
            twin, _ = self.degraded(layer, scheme, failed, tmp_path)
            twin.repair()
            for name, data in documents.items():
                holder = twin.service_for(name)
                saved = all(
                    map(holder.cluster.is_available, holder.documents[name].data_ids)
                )
                try:
                    assert b"".join(service.get_stream(name)) == data
                    assert twin.get(name) == data
                    read = True
                except RepairFailedError:
                    read = False
                if read != saved:
                    disagreements[failed, name] = (read, saved)
            service.close()
            twin.close()
        assert disagreements == {}


class TestEmptyDisksComeBack:
    """A destructive failure whose replaced disks return empty: the locations
    are up, their blocks are gone -- ``status()`` counts them and ``repair()``
    puts them back where they were assigned."""

    WIPED = (0, 7)

    @pytest.mark.parametrize("scheme", TestRepairPolicy.SCHEMES)
    @pytest.mark.parametrize("layer", LAYERS)
    def test_status_and_repair_see_the_loss(self, layer, scheme, tmp_path):
        service, documents, holders = TestRepairPolicy.populated(
            layer, scheme, "memory", tmp_path
        )
        lost = {}
        for holder in holders:
            cluster = holder.cluster
            lost[id(holder)] = {
                b: cluster.location_of(b) for loc in self.WIPED for b in cluster.blocks_at(loc)
            }
            cluster.wipe_locations(self.WIPED)
        service.restore_locations()
        gone = sum(map(len, lost.values()))
        status = service.status()
        assert gone > 0 and status.unavailable_locations == 0
        assert status.unavailable_blocks == gone
        report = service.repair()
        assert report.repaired_count == gone and report.data_loss == 0
        assert service.status().unavailable_blocks == 0
        for holder in holders:
            cluster = holder.cluster
            assert all(map(cluster.is_available, cluster.block_ids()))
            assert {b: cluster.location_of(b) for b in lost[id(holder)]} == lost[id(holder)]
        for name, expected in documents.items():
            assert service.get(name) == expected


class TestOpenService:
    def test_layer_follows_shards_and_workers(self):
        cases = [
            ({}, StorageService),
            ({"shards": 1}, StorageService),
            ({"workers": 3}, ConcurrentStorageService),
            ({"shards": 1, "workers": 3, "queue_depth": 5}, ConcurrentStorageService),
            ({"shards": 2}, ShardedStorageService),
            ({"shards": 3, "workers": 2, "queue_depth": 5}, ShardedStorageService),
        ]
        for arguments, expected in cases:
            with open_service(scheme="rep-3", topology=12, **arguments) as service:
                assert type(service) is expected, arguments
                assert service.scheme.scheme_id == "rep-3"

    def test_pool_arguments_reach_the_layer(self):
        with open_service(workers=3, queue_depth=5) as frontend:
            assert (frontend.workers, frontend.queue_depth) == (3, 5)
        with open_service(shards=2, workers=3, queue_depth=5) as federation:
            shard = federation.shard(0)
            assert (shard.workers, shard.queue_depth) == (3, 5)

    def test_overrides_apply_on_top_of_the_config(self):
        config = StorageConfig(scheme="rs-10-4", topology=20)
        with open_service(config, scheme="rep-3") as service:
            assert service.scheme.scheme_id == "rep-3"
            assert service.topology.node_count == 20

    def test_queue_depth_without_a_pool_is_rejected(self):
        with pytest.raises(InvalidParametersError, match="workers"):
            open_service(queue_depth=4)

    def test_bad_shard_counts_are_rejected(self):
        with pytest.raises(InvalidParametersError):
            open_service(shards=0)


class TestSharedSignatures:
    """The verbs are spelled the same on all three classes."""

    CLASSES = [cls for _, cls in LAYERS.values()]
    #: Optional parameters a layer adds behind the shared ones.
    EXTRAS = {
        (StorageService, "transition_to"): ["doc_guard"],
        (ShardedStorageService, "fail_locations"): ["shard"],
        (ShardedStorageService, "restore_locations"): ["shard"],
        (ShardedStorageService, "repair"): ["shard"],
    }

    @staticmethod
    def declared():
        members = {
            name: member
            for name, member in vars(DocumentService).items()
            if not name.startswith("_")
        }
        verbs = {n: m for n, m in members.items() if inspect.isfunction(m)}
        properties = [n for n, m in members.items() if isinstance(m, property)]
        return verbs, properties

    def test_the_protocol_declares_the_whole_surface(self):
        verbs, properties = self.declared()
        assert sorted(properties) == [
            "block_size", "capabilities", "data_dir", "documents", "scheme", "topology",
        ]
        assert sorted(verbs) == [
            "close", "delete", "fail_locations", "flush", "get", "get_stream",
            "has_document", "put", "put_stream", "repair", "restore_locations",
            "scrub", "service_for", "status", "transition_to", "verify_document",
        ]

    @pytest.mark.parametrize("cls", CLASSES)
    def test_parameter_names_agree(self, cls):
        def shape(function):
            """``(name, is required)`` per parameter, in order."""
            return [
                (name, parameter.default is inspect.Parameter.empty)
                for name, parameter in inspect.signature(function).parameters.items()
            ]

        verbs, properties = self.declared()
        for name in properties:
            assert isinstance(inspect.getattr_static(cls, name), property), name
        for name, declared in verbs.items():
            shared, actual = shape(declared), shape(getattr(cls, name))
            assert actual[: len(shared)] == shared, (cls.__name__, name)
            extras = [(extra, False) for extra in self.EXTRAS.get((cls, name), [])]
            assert actual[len(shared):] == extras, (cls.__name__, name)

    def test_federation_fails_one_shard_or_all(self):
        with open_service(scheme="rep-3", topology=12, shards=3) as federation:
            federation.fail_locations([0, 1], shard=1)
            assert federation.status().unavailable_locations == 2
            federation.fail_locations([0, 1], 2)  # positional shard still works
            assert federation.status().unavailable_locations == 4
            federation.fail_locations([0, 1])
            assert federation.status().unavailable_locations == 6
            federation.restore_locations([0], shard=0)
            assert federation.status().unavailable_locations == 5
            federation.restore_locations()
            assert federation.status().unavailable_locations == 0
