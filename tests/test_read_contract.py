"""The read contract: a block of the wrong length is an erasure, in one place.

A :class:`~repro.storage.block_store.BlockStore` serves a backend payload
only at the length its index recorded.  A record cut or grown behind the
store (through ``store.backend``, or in the file while the service is
closed) is not returned, and the block leaves the store's index: it is
unavailable exactly like a block on a wiped disk, so ``status()`` counts it,
the round planners plan around it and ``repair()`` rebuilds it through its
normal path.  A reopen learns the same before anything is read
(``StorageService.open`` un-holds every record whose size is not the block
size before the strand heads are restored).

* a Hypothesis property over three schemes x three backends, in memory and
  across a close / reopen, with the block rebuilt in place or moved back to
  its assigned location (its old medium must keep nothing);
* a stripe repair pass asks for each survivor once, even when a short
  local plan falls back to the whole stripe.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.schemes.stripe import StripeBlockId
from repro.storage.backends import encode_block_id
from repro.system.service import StorageConfig, StorageService

BLOCK = 64
DATA = np.random.default_rng(49).bytes(400)
NEXT = np.random.default_rng(50).bytes(200)


def _config(scheme: str, backend: str, root: str) -> StorageConfig:
    return StorageConfig(
        scheme=scheme,
        backend=backend,
        block_size=BLOCK,
        topology=20,
        seed=3,
        data_dir=None if backend == "memory" else os.path.join(root, "service"),
    )


def _records(service: StorageService, location: int) -> dict:
    """What one location's medium holds, id -> size, read past its store."""
    return dict(service.cluster.location(location).backend.scan())


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scheme=st.sampled_from(["ae-3-2-5", "rs-4-2", "lrc-azure"]),
    backend=st.sampled_from(["memory", "disk", "segment"]),
    pick=st.integers(min_value=0, max_value=10_000),
    length=st.sampled_from([0, 1, 32, 63, 65, 96, 200]),
    moved=st.booleans(),
    durable=st.booleans(),
)
def test_a_block_of_the_wrong_length_is_lost_until_repair_rewrites_it(
    scheme, backend, pick, length, moved, durable
):
    durable = durable and backend != "memory"
    with tempfile.TemporaryDirectory() as root:
        config = _config(scheme, backend, root)
        service = StorageService.open(config)
        try:
            service.put("doc", DATA)
            cluster = service.cluster
            ids = sorted(cluster.block_ids(), key=repr)
            victim = ids[pick % len(ids)]
            if moved:
                # Off its assigned location: the rebuild puts it back there.
                home = cluster.location_of(victim)
                service.fail_locations([home])
                assert victim in service.repair().repaired
                service.restore_locations([home])
            where = cluster.location_of(victim)
            original = bytes(cluster.location(where).backend.get(victim))
            wrong = (original * 4)[:length]
            if durable:
                if backend == "segment":
                    cluster.location(where).backend.put_many([(victim, wrong)])
                service.close()
                if backend == "disk":
                    location = os.path.join(root, "service", f"loc-{where:04d}")
                    path = os.path.join(location, "blocks", encode_block_id(victim))
                    assert os.path.getsize(path) == BLOCK
                    with open(path, "wb") as handle:
                        handle.write(wrong)
                service = StorageService.open(config)
                cluster = service.cluster
                # Counted at open, before anything is read (the strand heads
                # were restored around it: the scrub below checks the next
                # put's parities against them).
                assert service.status().unavailable_blocks == 1
            else:
                cluster.location(where).backend.put_many([(victim, wrong)])
            assert service.get("doc") == DATA
            assert cluster.try_get_many([victim]) == [None]
            assert not cluster.is_available(victim)
            assert service.status().unavailable_blocks == 1
            report = service.repair()
            assert victim in report.repaired
            assert report.data_loss == 0 and report.unrecovered == []
            home = cluster.location_of(victim)
            assert (home != where) == moved
            assert bytes(cluster.location(home).backend.get(victim)) == original
            if moved:
                assert victim not in _records(service, where)
            assert service.status().unavailable_blocks == 0
            assert service.get("doc") == DATA
            service.put("next", NEXT)
            assert service.scrub().clean
            if durable:
                service.close()
                service = StorageService.open(config)
                assert service.status().unavailable_blocks == 0
                assert service.cluster.location_of(victim) == home
                assert service.get("doc") == DATA and service.get("next") == NEXT
        finally:
            service.close()


class _Counting:
    """The cluster as a block source, logging every id asked for."""

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        self.asked = []

    def try_get_many(self, block_ids):
        block_ids = list(block_ids)
        self.asked.extend(block_ids)
        return self._cluster.try_get_many(block_ids)

    def is_available(self, block_id) -> bool:
        return self._cluster.is_available(block_id)


def test_a_short_local_plan_asks_for_each_survivor_once():
    """``lrc-azure``: the local plan for ``s[0,0]`` reads ``s[0,1]``, whose
    record is cut to 32 B; the fallback reads the rest of the stripe, and
    asks for ``s[0,1]`` no second time (it used to: 16 ids, ``s[0,1]``
    twice)."""
    service = StorageService.open(
        StorageConfig(scheme="lrc-azure", block_size=BLOCK, topology=20, seed=3)
    )
    service.put("doc", DATA)
    cluster = service.cluster
    lost, cut = StripeBlockId(0, 0), StripeBlockId(0, 1)
    original = bytes(cluster.try_get_many([lost])[0])
    store = cluster.location(cluster.location_of(cut))
    store.backend.put_many([(cut, bytes(store.backend.get(cut))[:32])])
    source = _Counting(cluster)
    outcome = service.scheme.repair({lost}, source)
    assert bytes(outcome.recovered[lost]) == original
    assert len(source.asked) == 15
    assert Counter(source.asked)[cut] == 1
    assert lost not in source.asked


@pytest.mark.parametrize("backend", ["disk", "segment"])
def test_a_rebuild_off_a_down_location_leaves_no_wrong_length_record(backend, tmp_path):
    """The un-held record sits on a location that goes down before the
    repair: the rebuild lands elsewhere and the old medium keeps nothing,
    so the restore and a reopen see one copy, the good one."""
    config = _config("rs-4-2", backend, str(tmp_path))
    with StorageService.open(config) as service:
        service.put("doc", DATA)
        cluster = service.cluster
        victim = StripeBlockId(0, 1)
        where = cluster.location_of(victim)
        original = bytes(cluster.location(where).backend.get(victim))
        cluster.location(where).backend.put_many([(victim, original[:32])])
        assert service.get("doc") == DATA
        service.fail_locations([where])
        report = service.repair()
        assert victim in report.repaired and report.data_loss == 0
        assert cluster.location_of(victim) != where
        assert victim not in _records(service, where)
        service.restore_locations()
        assert service.status().unavailable_blocks == 0
    with StorageService.open(config) as service:
        assert service.status().unavailable_blocks == 0
        assert service.cluster.location_of(victim) != where
        assert service.get("doc") == DATA


@pytest.mark.parametrize("backend", ["disk", "segment"])
def test_a_reopen_keeps_the_copy_of_the_block_size(backend, tmp_path):
    """A block found at two locations at reopen, one record of the wrong
    length -- a relocation wrote the good copy and died before deleting the
    old record -- keeps the good copy wherever the scan meets it, and the
    other record is deleted.  (The reopen used to keep whichever copy came
    first: the wrong-length record won, the good copy was deleted and the
    block stayed lost until ``repair()`` rebuilt it.)"""
    config = StorageConfig(
        scheme="rs-4-2", backend=backend, block_size=BLOCK, topology=8, seed=3,
        data_dir=str(tmp_path / "service"),
    )
    with StorageService.open(config) as service:
        service.put("doc", DATA)
        cluster = service.cluster
        # A block whose good copy a scan from location 0 meets second.
        victim = min((b for b in cluster.block_ids() if cluster.location_of(b) > 0), key=repr)
        home = cluster.location_of(victim)
        original = bytes(cluster.location(home).backend.get(victim))
        cluster.location(0).backend.put_many([(victim, original[:32])])
    with StorageService.open(config) as service:
        cluster = service.cluster
        assert cluster.location_of(victim) == home
        assert service.status().unavailable_blocks == 0
        assert _records(service, home)[victim] == BLOCK
        assert victim not in _records(service, 0)
        assert service.get("doc") == DATA
        assert service.repair().repaired == []
