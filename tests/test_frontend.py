"""Tests for the concurrent front-end and the load generator.

Covers the concurrency contracts of
:class:`~repro.system.frontend.ConcurrentStorageService`:

* request plumbing -- operations round trip on the caller's thread, and
  closing drains every in-flight request, ``put_stream`` included;
* backpressure -- a full admission count bounces with
  :class:`ServiceOverloadedError` *before* any work starts;
* linearizability -- a recorded history of concurrent put/get/delete
  traffic, through the front-end and through a federation of front-ends,
  is checked per document name with Wing & Gong's search;
* reads-during-repair -- ``get`` proceeds while a repair pass holds the
  maintenance gate, and stays byte-exact throughout.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Sequence, Tuple

import pytest

from repro.exceptions import (
    InvalidParametersError,
    ReproError,
    ServiceOverloadedError,
    UnknownBlockError,
)
from repro.storage.cluster import StorageCluster
from repro.system.frontend import (
    ConcurrentStorageService,
    ReadWriteLock,
    derive_stripe_count,
)
from repro.system.loadgen import run_load
from repro.system.opening import open_service
from repro.system.service import StorageConfig, StorageService


def open_frontend(**kwargs) -> ConcurrentStorageService:
    overrides = {
        "scheme": "ae-3-2-5",
        "topology": 10,
        "block_size": 256,
    }
    front_kwargs = {
        key: kwargs.pop(key) for key in ("workers", "queue_depth") if key in kwargs
    }
    overrides.update(kwargs)
    return ConcurrentStorageService.open(StorageConfig(**overrides), **front_kwargs)


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            # A second reader enters while the first holds the lock.
            entered = threading.Event()

            def reader() -> None:
                with lock.read_locked():
                    entered.set()

            thread = threading.Thread(target=reader)
            thread.start()
            thread.join(timeout=5)
            assert entered.is_set()

        order: list = []

        def writer(tag: str) -> None:
            with lock.write_locked():
                order.append(tag)

        with lock.write_locked():
            thread = threading.Thread(target=writer, args=("late",))
            thread.start()
            assert not order  # excluded while we hold the write side
        thread.join(timeout=5)
        assert order == ["late"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        writer_started = threading.Event()
        writer_done = threading.Event()

        def writer() -> None:
            writer_started.set()
            lock.acquire_write()
            lock.release_write()
            writer_done.set()

        reader_entered = threading.Event()

        def late_reader() -> None:
            lock.acquire_read()
            reader_entered.set()
            lock.release_read()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        writer_started.wait(timeout=5)
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        # Writer preference: the late reader must not jump the queue.
        assert not reader_entered.wait(timeout=0.1)
        lock.release_read()
        writer_thread.join(timeout=5)
        reader_thread.join(timeout=5)
        assert writer_done.is_set() and reader_entered.is_set()


class TestStripes:
    def test_stripe_count_derives_from_scheme_and_workers(self):
        frontend = open_frontend(workers=2)
        try:
            # ae-3-2-5: s=2, p=5 -> width 7; floor 2 * workers = 4.
            assert derive_stripe_count(frontend.service, 2) == 7
            assert derive_stripe_count(frontend.service, 16) == 32
            assert frontend.stripe_count == 7
        finally:
            frontend.close()

    def test_stripe_choice_is_deterministic(self):
        frontend = open_frontend(workers=2)
        try:
            assert frontend._stripe_for("doc-1") is frontend._stripe_for("doc-1")
        finally:
            frontend.close()


class TestRequestPlumbing:
    def test_round_trip(self):
        with open_frontend(workers=4) as frontend:
            document = frontend.put("doc", b"payload" * 50)
            assert document.length == 350
            assert frontend.get("doc") == b"payload" * 50
            assert frontend.put_stream("other", [b"x" * 60, b"x" * 40]).length == 100
            assert b"".join(frontend.get_stream("other")) == b"x" * 100
            assert frontend.verify_document("doc", b"payload" * 50)
            frontend.delete("doc")
            with pytest.raises(UnknownBlockError):
                frontend.get("doc")
            assert set(frontend.documents) == {"other"}
            assert frontend.status().documents == 1

    def test_invalid_configuration_rejected(self):
        with open_frontend() as frontend:
            with pytest.raises(InvalidParametersError):
                ConcurrentStorageService(frontend.service, workers=0)
            with pytest.raises(InvalidParametersError):
                ConcurrentStorageService(frontend.service, queue_depth=0)

    def test_requests_run_on_the_calling_thread(self, monkeypatch):
        with open_frontend(workers=4) as frontend:
            seen: List[threading.Thread] = []
            inner_get = frontend.service.get

            def recording_get(name: str) -> bytes:
                seen.append(threading.current_thread())
                return inner_get(name)

            monkeypatch.setattr(frontend.service, "get", recording_get)
            threads_before = threading.active_count()
            for number in range(50):
                frontend.put(f"doc-{number % 5}", bytes([number]) * 64)
                assert frontend.get(f"doc-{number % 5}") == bytes([number]) * 64
            assert threading.active_count() == threads_before
            assert seen == [threading.current_thread()] * 50


class ParkedPutStream:
    """A ``put_stream`` of 1 400 bytes on another thread, parked inside the
    service mid-stream until :meth:`finish`."""

    def __init__(self, frontend: ConcurrentStorageService, name: str) -> None:
        parked, self._release = threading.Event(), threading.Event()
        self._outcome: list = []

        def chunks():
            yield b"x" * 700
            parked.set()
            self._release.wait(timeout=10)
            yield b"y" * 700

        def writer() -> None:
            try:
                self._outcome.append(frontend.put_stream(name, chunks()))
            except Exception as exc:  # noqa: RPR004 - re-raised by finish()
                self._outcome.append(exc)  # pragma: no cover - failure path

        self._thread = threading.Thread(target=writer)
        self._thread.start()
        assert parked.wait(timeout=5)

    def finish(self):
        """Let the stream end; its ``StoredDocument``."""
        self._release.set()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
        if isinstance(self._outcome[0], Exception):
            raise self._outcome[0]  # pragma: no cover - failure path
        return self._outcome[0]


class TestBackpressure:
    def test_full_admission_queue_bounces_before_any_work(self, monkeypatch):
        frontend = open_frontend(workers=1, queue_depth=1)
        try:
            reached: List[str] = []
            inner_put = frontend.service.put

            def counting_put(name: str, data: bytes):
                reached.append(name)
                return inner_put(name, data)

            monkeypatch.setattr(frontend.service, "put", counting_put)
            # The single admission slot is taken by a request parked inside
            # the service on another thread: the next request bounces
            # immediately, typed, without touching the service.
            parked = ParkedPutStream(frontend, "parked")
            with pytest.raises(ServiceOverloadedError):
                frontend.put("doc", b"x" * 16)
            assert reached == []
            assert parked.finish().length == 1400
            # The slot drained: the retry goes through.
            frontend.put("doc", b"x" * 16)
            assert frontend.get("doc") == b"x" * 16
            assert reached == ["doc"]
        finally:
            frontend.close()

    def test_put_stream_takes_an_admission_slot(self):
        """A ``put_stream`` used to run without admission, past a full
        front-end; now it bounces, typed, like every other request."""
        frontend = open_frontend(workers=1, queue_depth=1)
        try:
            parked = ParkedPutStream(frontend, "parked")
            with pytest.raises(ServiceOverloadedError):
                frontend.put_stream("other", iter([b"z" * 16]))
            parked.finish()
            assert not frontend.has_document("other")
            assert frontend.put_stream("other", iter([b"z" * 16])).length == 16
        finally:
            frontend.close()

    def test_load_generator_counts_overloads_without_failing(self):
        frontend = open_frontend(workers=1, queue_depth=1)
        try:
            report = run_load(
                frontend,
                clients=4,
                ops_per_client=15,
                payload_bytes=128,
                documents=8,
                seed=3,
            )
            assert report.ops == 4 * 15
            assert report.ops_per_sec > 0
        finally:
            frontend.close()


class TestClose:
    def test_close_waits_for_an_in_flight_put_stream(self, tmp_path):
        """``close()`` used to return while a ``put_stream`` was mid-stream;
        the stream then died on a closed log and its document was lost."""
        config = StorageConfig(
            scheme="ae-3-2-5",
            topology=10,
            block_size=256,
            backend="segment",
            data_dir=str(tmp_path),
        )
        frontend = ConcurrentStorageService.open(config, workers=2)
        frontend.put("a", b"a" * 1000)
        parked = ParkedPutStream(frontend, "s")
        closer = threading.Thread(target=frontend.close)
        closer.start()
        closer.join(timeout=0.3)
        assert closer.is_alive()  # still draining the stream
        with pytest.raises(InvalidParametersError):
            frontend.get("a")  # closing refuses new requests at once
        assert parked.finish().length == 1400
        closer.join(timeout=5)
        assert not closer.is_alive()
        with StorageService.open(config) as reopened:
            assert sorted(reopened.documents) == ["a", "s"]
            assert reopened.get("s") == b"x" * 700 + b"y" * 700
            assert reopened.get("a") == b"a" * 1000


# -- linearizability ---------------------------------------------------------
#: A register's value when the name holds no document.
ABSENT = None


@dataclass(frozen=True)
class RegisterOp:
    """One completed request on one name, as a client observed it.

    ``value`` is what a ``put`` wrote, what a ``get`` returned (``ABSENT``
    for an unknown document, ``("error", type)`` for any other failure) or,
    for a ``delete``, whether it found a document to remove.  The interval
    ``[invoked, returned]`` is stamped around the call, so it contains the
    request's real one: widening it only ever admits more orders.
    """

    kind: str
    value: Hashable
    invoked: float
    returned: float


def _register_step(state: Hashable, op: RegisterOp) -> Tuple[bool, Hashable]:
    """``(legal, next state)`` of applying ``op`` to a register model."""
    if op.kind == "put":
        return True, op.value
    if op.kind == "get":
        return op.value == state, state
    return op.value == (state is not ABSENT), ABSENT


def is_linearizable(history: Sequence[RegisterOp]) -> bool:
    """Wing & Gong's search over one register's history.

    Try each operation that may come first -- none of the remaining ones
    returned before it was invoked -- against the model, and recurse; the
    ``(remaining, state)`` pairs already refuted are memoised, so the
    search stays small for the short concurrency windows of a test.
    """
    ops = sorted(history, key=lambda op: op.invoked)
    refuted = set()

    def search(remaining: FrozenSet[int], state: Hashable) -> bool:
        if not remaining:
            return True
        if (remaining, state) in refuted:
            return False
        horizon = min(ops[index].returned for index in remaining)
        for index in remaining:
            op = ops[index]
            if op.invoked > horizon:
                continue
            legal, after = _register_step(state, op)
            if legal and search(remaining - {index}, after):
                return True
        refuted.add((remaining, state))
        return False

    return search(frozenset(range(len(ops))), ABSENT)


class TestLinearizabilityChecker:
    """The checker itself, on hand-written histories."""

    def test_overlapping_requests_may_take_either_order(self):
        history = [
            RegisterOp("put", 1, 0.0, 3.0),
            RegisterOp("get", ABSENT, 1.0, 2.0),
            RegisterOp("get", 1, 1.5, 4.0),
            RegisterOp("delete", True, 5.0, 6.0),
            RegisterOp("delete", False, 5.5, 7.0),
            RegisterOp("get", ABSENT, 8.0, 9.0),
        ]
        assert is_linearizable(history)

    @pytest.mark.parametrize(
        "history",
        [
            # A read returned the old value after the write had returned.
            [RegisterOp("put", 1, 0, 1), RegisterOp("put", 2, 2, 3), RegisterOp("get", 1, 4, 5)],
            # Two deletes both removed the one document.
            [RegisterOp("put", 1, 0, 1), RegisterOp("delete", True, 2, 4), RegisterOp("delete", True, 3, 5)],
            # A read failed instead of returning a value.
            [RegisterOp("put", 1, 0, 1), RegisterOp("get", ("error", "RepairFailedError"), 2, 3)],
        ],
    )
    def test_impossible_histories_are_refuted(self, history):
        assert not is_linearizable(history)


def _observed_get(service, name: str, tokens: Dict[bytes, int]) -> Hashable:
    """What a ``get`` returned, as a register value."""
    try:
        payload = service.get(name)
    except UnknownBlockError:
        return ABSENT
    except ReproError as exc:
        return ("error", type(exc).__name__)
    return tokens.get(payload, ("error", "bytes nobody put"))


def _client_history(
    service, index: int, names: List[str], tokens: Dict[bytes, int]
) -> List[Tuple[str, RegisterOp]]:
    """One client's closed loop of seeded put / get / delete requests."""
    rng = random.Random(300 + index)
    clock = time.perf_counter
    history: List[Tuple[str, RegisterOp]] = []
    for counter in range(TestLinearizability.OPS):
        name = names[rng.randrange(len(names))]
        roll = rng.random()
        value: Hashable
        if roll < 0.45:
            kind = "put"
            value = (index << 16) | counter
            payload = value.to_bytes(4, "big") * (96 + rng.randrange(64))
            tokens[payload] = value
            invoked = clock()
            service.put(name, payload)
        elif roll < 0.85:
            kind, invoked = "get", clock()
            value = _observed_get(service, name, tokens)
        else:
            kind, invoked = "delete", clock()
            try:
                service.delete(name)
                value = True
            except UnknownBlockError:
                value = False
        history.append((name, RegisterOp(kind, value, invoked, clock())))
    return history


class TestLinearizability:
    THREADS = 4
    OPS = 60
    NAMES = 3

    @pytest.mark.parametrize("scheme", ["ae-3-2-5", "rs-10-4"])
    @pytest.mark.parametrize("shards", [None, 2], ids=["frontend", "federation"])
    def test_concurrent_history_is_linearizable(self, scheme, shards, monkeypatch):
        # Schedule noise: every cluster read first lets other clients run, so
        # they land between a get's catalogue lookup and its block reads --
        # the window in which an unlocked overwrite or delete reclaims the
        # blocks the get is about to read.
        read_blocks = StorageCluster.try_get_many

        def paused(cluster: StorageCluster, *args, **kwargs):
            time.sleep(0)
            return read_blocks(cluster, *args, **kwargs)

        monkeypatch.setattr(StorageCluster, "try_get_many", paused)
        names = [f"n{number}" for number in range(self.NAMES)]
        tokens: Dict[bytes, int] = {}
        histories: List[List[Tuple[str, RegisterOp]]] = []
        errors: list = []
        barrier = threading.Barrier(self.THREADS)
        with open_service(
            scheme=scheme, topology=16, block_size=256, shards=shards, workers=self.THREADS
        ) as service:

            def client(index: int) -> None:
                try:
                    barrier.wait(timeout=5)
                    histories.append(_client_history(service, index, names, tokens))
                except Exception as exc:  # noqa: RPR004 - surfaced by the assertion below
                    errors.append(exc)  # pragma: no cover - failure path

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(self.THREADS)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            # One quiescent read per name closes every history.
            for name in names:
                invoked = time.perf_counter()
                value = _observed_get(service, name, tokens)
                histories.append([(name, RegisterOp("get", value, invoked, time.perf_counter()))])
        per_name: Dict[str, List[RegisterOp]] = {name: [] for name in names}
        for history in histories:
            for name, op in history:
                per_name[name].append(op)
        for name, history in per_name.items():
            assert is_linearizable(history), (name, sorted(history, key=lambda op: op.invoked))


class TestReadsDuringRepair:
    def test_gets_stay_byte_exact_while_repair_runs(self):
        with open_frontend(workers=4, topology=12, block_size=512) as frontend:
            payloads = {
                f"doc-{number}": bytes([number + 1]) * (600 + 64 * number)
                for number in range(4)
            }
            for name, payload in payloads.items():
                frontend.put(name, payload)
            frontend.fail_locations([0, 1, 2])

            stop = threading.Event()
            errors: list = []
            reads = [0]

            def reader() -> None:
                rng = random.Random(99)
                names = sorted(payloads)
                while not stop.is_set():
                    name = names[rng.randrange(len(names))]
                    try:
                        if frontend.get(name) != payloads[name]:
                            errors.append(name)
                    except Exception as exc:  # noqa: RPR004 - reader collects any failure
                        errors.append(exc)  # pragma: no cover - failure path
                    reads[0] += 1
                    # Degraded reads release and retake the GIL inside numpy's
                    # XOR; back to back they hold off this test's own thread
                    # for seconds (CPython's convoy effect), so pace them.
                    time.sleep(0)

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                # Repair holds the maintenance write gate; plain gets never
                # touch it and keep streaming throughout.
                report = frontend.repair()
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert errors == []
            assert reads[0] > 0
            assert report.repaired_count >= 0
            frontend.restore_locations()
            for name, payload in payloads.items():
                assert frontend.get(name) == payload

    def test_mutations_wait_for_maintenance_but_complete(self):
        with open_frontend(workers=2) as frontend:
            frontend.put("doc", b"a" * 300)
            frontend.fail_locations([0])
            frontend.repair()
            frontend.restore_locations()
            # After maintenance releases the gate, mutations flow again.
            frontend.put("doc", b"b" * 300)
            assert frontend.get("doc") == b"b" * 300
