"""Tests for the concurrent thread-pool front-end and the load generator.

Covers the four concurrency contracts of
:class:`~repro.system.frontend.ConcurrentStorageService`:

* request plumbing -- async/sync operations round trip, closing drains;
* backpressure -- a full admission queue bounces with
  :class:`ServiceOverloadedError` *before* any work starts;
* linearizability smoke -- under concurrent mixed put/get/delete traffic,
  every read returns some value that was actually written for that name
  (never a torn or interleaved payload);
* reads-during-repair -- ``get`` proceeds while a repair pass holds the
  maintenance gate, and stays byte-exact throughout.
"""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import (
    InvalidParametersError,
    ServiceOverloadedError,
    UnknownBlockError,
)
from repro.system.frontend import (
    ConcurrentStorageService,
    ReadWriteLock,
    derive_stripe_count,
)
from repro.system.loadgen import run_load
from repro.system.service import StorageConfig


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
    def test_round_trip_sync_and_async(self):
        with open_frontend(workers=4) as frontend:
            document = frontend.put("doc", b"payload" * 50)
            assert document.length == 350
            assert frontend.get("doc") == b"payload" * 50
            future = frontend.put_async("other", b"x" * 100)
            assert future.result().length == 100
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


class TestBackpressure:
    def test_full_admission_queue_bounces_before_any_work(self):
        frontend = open_frontend(workers=1, queue_depth=1)
        try:
            gate = threading.Event()
            occupied = threading.Event()

            def blocker() -> bool:
                occupied.set()
                return gate.wait(timeout=10)

            future = frontend._submit(blocker)
            assert occupied.wait(timeout=5)
            # The single admission slot is taken: the next request bounces
            # immediately, typed, without touching the service.
            with pytest.raises(ServiceOverloadedError):
                frontend.put("doc", b"x" * 16)
            gate.set()
            assert future.result(timeout=5) is True
            # The slot drained: the retry goes through.
            frontend.put("doc", b"x" * 16)
            assert frontend.get("doc") == b"x" * 16
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


class TestLinearizabilitySmoke:
    THREADS = 4
    OPS = 40
    NAMES = 6

    def test_reads_only_ever_see_written_values(self):
        """Tagged payloads: any get must return a payload some writer put for
        that exact name -- a torn write or cross-document mix-up would
        surface as an unknown payload."""
        with open_frontend(workers=4) as frontend:
            written: dict = {f"n{i}": set() for i in range(self.NAMES)}
            written_lock = threading.Lock()
            errors: list = []
            barrier = threading.Barrier(self.THREADS)

            def worker(index: int) -> None:
                import random

                rng = random.Random(200 + index)
                try:
                    barrier.wait()
                    for counter in range(self.OPS):
                        name = f"n{rng.randrange(self.NAMES)}"
                        roll = rng.random()
                        if roll < 0.5:
                            tag = f"{name}|w{index}|c{counter}|".encode()
                            payload = tag * (256 // len(tag) + 1)
                            with written_lock:
                                written[name].add(payload)
                            frontend.put(name, payload)
                        elif roll < 0.85:
                            try:
                                got = frontend.get(name)
                            except UnknownBlockError:
                                continue
                            with written_lock:
                                ok = got in written[name]
                            if not ok:
                                errors.append((name, got[:40]))
                        else:
                            try:
                                frontend.delete(name)
                            except UnknownBlockError:
                                pass
                except Exception as exc:  # noqa: RPR004 - worker collects any failure
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
            # Quiescent check: every surviving document holds a written value.
            for name in list(frontend.documents):
                assert frontend.get(name) in written[name]


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
                import random

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
