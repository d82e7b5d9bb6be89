"""Concurrent multi-client front-end over :class:`StorageService`.

The paper pitches entanglement codes as infrastructure for open storage
systems serving many writers; :class:`ConcurrentStorageService` is the
reproduction's multi-client request path.  It wraps one
:class:`~repro.system.service.StorageService` with:

* **requests on the caller's thread** -- ``put`` / ``get`` / ``delete`` /
  ``put_stream`` run on the thread that called them; there is no executor
  and no hand-off, so a request costs its locks and its work only;
* **bounded admission** -- at most ``queue_depth`` requests may be in flight
  at once; past that, a request raises
  :class:`~repro.exceptions.ServiceOverloadedError` *before* any work starts
  (backpressure, so a slow medium cannot build an unbounded backlog);
* **striped document locks** -- writers to the same document serialise on a
  reader-writer lock picked by a deterministic hash of the name (the stripe
  count derives from the scheme's repair-group width and ``workers``, the
  number of concurrent callers the front-end is sized for), so
  put/get/delete of one document are mutually consistent while traffic to
  different stripes proceeds in parallel;
* a **maintenance gate** -- mutations hold the gate's *read* side, while
  :meth:`repair` / :meth:`fail_locations` / :meth:`restore_locations` take
  the *write* side: maintenance sees a quiescent catalogue, but plain
  ``get``/``get_stream`` never touch the gate and keep streaming during a
  repair (reads-during-repair are safe end to end: the cluster relocates
  blocks write-before-index, the block stores lock their caches, and the
  service serialises scheme access).

Each mutation ends with ``os.sched_yield()``: without it, callers sharing one
CPU hand the core over only at the end of an OS time slice, and a get queued
behind a busy writer waits milliseconds.  Reads do not yield (it costs their p50).

The lock hierarchy is admission -> maintenance gate -> stripe lock ->
service state lock -> WAL group commit; every path acquires in that order,
so the composition cannot deadlock.  See ``docs/architecture.md``.

Underneath, concurrent mutators benefit from the metadata WAL's group
commit (:mod:`repro.storage.wal`): their records are batched into one
fsync.  The ``service_small_docs`` workload of ``benchmarks/e2e`` and
``repro-experiments load`` measure both effects.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Callable, Dict, Iterable, Iterator, List, Optional, TypeVar

from repro.exceptions import InvalidParametersError, ServiceOverloadedError
from repro.schemes.base import RedundancyScheme, SchemeCapabilities
from repro.storage.maintenance import MaintenancePolicy
from repro.storage.topology import Topology
from repro.system.service import (
    ServiceRepairReport,
    ServiceStatus,
    StorageConfig,
    StorageService,
    StoredDocument,
)
from repro.system.transitions import TransitionReport

T = TypeVar("T")

#: Default number of concurrent callers the front-end is sized for.
DEFAULT_WORKERS = 8

#: Admitted requests per worker before requests bounce (queue depth =
#: workers * this factor unless given explicitly).
DEFAULT_QUEUE_FACTOR = 4

#: The scheduling point each mutation ends with (a no-op without ``sched_yield``).
_yield_cpu: Callable[[], None] = getattr(os, "sched_yield", lambda: None)


class ReadWriteLock:
    """A writer-preferring reader-writer lock.

    Any number of readers may hold the lock together; a writer holds it
    alone.  Arriving writers block new readers (no writer starvation).
    Not reentrant.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    class _ReadGuard:
        def __init__(self, lock: "ReadWriteLock") -> None:
            self._lock = lock

        def __enter__(self) -> None:
            self._lock.acquire_read()

        def __exit__(self, *exc: object) -> None:
            self._lock.release_read()

    class _WriteGuard:
        def __init__(self, lock: "ReadWriteLock") -> None:
            self._lock = lock

        def __enter__(self) -> None:
            self._lock.acquire_write()

        def __exit__(self, *exc: object) -> None:
            self._lock.release_write()

    def read_locked(self) -> "ReadWriteLock._ReadGuard":
        return ReadWriteLock._ReadGuard(self)

    def write_locked(self) -> "ReadWriteLock._WriteGuard":
        return ReadWriteLock._WriteGuard(self)


def derive_stripe_count(service: StorageService, workers: int) -> int:
    """Lock stripes for a service: repair-group width x available parallelism.

    The width comes from the scheme's parameters -- for entanglement the
    ``s + p`` helical strand classes (the per-strand conflict groups), for
    stripe codes ``k + m`` (one stripe's extent); the floor of twice the
    concurrent callers keeps collisions rare under uniform names.  Deterministic:
    no clock or RNG involved (this module is on the RPR001 engine path).
    """
    params = getattr(service.scheme, "params", None)
    width = 0
    for attribute in ("s", "p", "k", "m"):
        value = getattr(params, attribute, 0)
        if isinstance(value, int) and value > 0:
            width += value
    return max(1, 2 * workers, width)


class ConcurrentStorageService:
    """Multi-client request front-end with striped locking and backpressure.

    Wraps an already-open :class:`StorageService` (or opens one through
    :meth:`open`).  All public operations are thread-safe and run on the
    calling thread; ``workers`` is the number of concurrent callers the
    front-end is sized for.  Closing the front-end refuses new requests,
    drains in-flight ones, then closes the wrapped service.
    """

    def __init__(
        self,
        service: StorageService,
        workers: int = DEFAULT_WORKERS,
        queue_depth: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise InvalidParametersError("workers must be at least 1")
        if queue_depth is None:
            queue_depth = workers * DEFAULT_QUEUE_FACTOR
        if queue_depth < 1:
            raise InvalidParametersError("queue_depth must be at least 1")
        self._service = service
        self._workers = workers
        self._queue_depth = queue_depth
        self._admission = threading.Semaphore(queue_depth)
        self._stripes: List[ReadWriteLock] = [
            ReadWriteLock() for _ in range(derive_stripe_count(service, workers))
        ]
        self._maintenance = ReadWriteLock()
        self._closed = False

    @classmethod
    def open(
        cls,
        config: Optional[StorageConfig] = None,
        *,
        workers: int = DEFAULT_WORKERS,
        queue_depth: Optional[int] = None,
        **overrides: object,
    ) -> "ConcurrentStorageService":
        """Open the underlying service from a config and wrap it."""
        service = StorageService.open(config, **overrides)
        return cls(service, workers=workers, queue_depth=queue_depth)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def service(self) -> StorageService:
        """The wrapped single-threaded service."""
        return self._service

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def queue_depth(self) -> int:
        return self._queue_depth

    @property
    def stripe_count(self) -> int:
        return len(self._stripes)

    @property
    def scheme(self) -> RedundancyScheme:
        return self._service.scheme

    @property
    def capabilities(self) -> SchemeCapabilities:
        return self._service.capabilities

    @property
    def block_size(self) -> int:
        return self._service.block_size

    @property
    def topology(self) -> Topology:
        return self._service.topology

    @property
    def data_dir(self) -> Optional[str]:
        return self._service.data_dir

    @property
    def documents(self) -> Dict[str, StoredDocument]:
        return self._service.documents

    def status(self) -> ServiceStatus:
        return self._service.status()

    def service_for(self, name: str) -> StorageService:
        """The wrapped service (it holds every document)."""
        return self._service

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise InvalidParametersError(
                "this ConcurrentStorageService has been closed"
            )

    def _stripe_for(self, name: str) -> ReadWriteLock:
        digest = hashlib.blake2b(name.encode("utf-8"), digest_size=4).digest()
        return self._stripes[int.from_bytes(digest, "big") % len(self._stripes)]

    def _admit(self) -> None:
        """Take an admission slot without blocking, or raise before any work:
        a full front-end bounces now rather than queue behind a slow medium."""
        admitted = self._admission.acquire(blocking=False)
        if self._closed:
            if admitted:
                self._admission.release()
            self._ensure_open()
        if not admitted:
            raise ServiceOverloadedError(
                f"admission full ({self._queue_depth} requests in flight); "
                "retry once responses drain"
            )

    def _mutate(self, operation: Callable[..., T], name: str, *args: object) -> T:
        """Run one mutation of ``name``: admitted, under the maintenance
        gate's read side and the name's stripe write lock, then yield."""
        self._admit()
        try:
            with self._maintenance.read_locked():
                with self._stripe_for(name).write_locked():
                    return operation(name, *args)
        finally:
            self._admission.release()
            _yield_cpu()

    # ------------------------------------------------------------------
    # Document operations
    # ------------------------------------------------------------------
    def put(self, name: str, data: bytes) -> StoredDocument:
        return self._mutate(self._service.put, name, data)

    def get(self, name: str) -> bytes:
        self._admit()
        try:
            # No maintenance gate: reads proceed during repair.
            with self._stripe_for(name).read_locked():
                return self._service.get(name)
        finally:
            self._admission.release()

    def delete(self, name: str) -> List[object]:
        return self._mutate(self._service.delete, name)

    def put_stream(self, name: str, chunks: Iterable[bytes]) -> StoredDocument:
        """Store a document from a chunk iterable.

        Admitted like :meth:`put` and holding the same locks for the
        stream's whole lifetime, so :meth:`close` waits for it.
        """
        return self._mutate(self._service.put_stream, name, chunks)

    def has_document(self, name: str) -> bool:
        """Catalogue membership; lock-free (the catalogue copy is atomic)."""
        return self._service.has_document(name)

    def get_stream(self, name: str) -> Iterator[bytes]:
        """Stream a document, holding its stripe's read lock until exhausted.

        Concurrent writers to the same stripe wait until the stream is
        consumed or closed; readers and other stripes proceed.
        """
        self._ensure_open()
        stripe = self._stripe_for(name)
        stripe.acquire_read()
        try:
            inner = self._service.get_stream(name)
        except BaseException:  # noqa: B036,RPR004 - release the stripe, then re-raise
            stripe.release_read()
            raise

        def guarded() -> Iterator[bytes]:
            try:
                yield from inner
            finally:
                stripe.release_read()

        return guarded()

    def verify_document(self, name: str, expected: bytes) -> bool:
        return self.get(name) == expected

    # ------------------------------------------------------------------
    # Maintenance (exclusive against mutations, never against reads)
    # ------------------------------------------------------------------
    def transition_to(self, scheme: object) -> Optional["TransitionReport"]:
        """Migrate the live service to another redundancy scheme.

        Holds the maintenance gate's *write* side for the duration, so
        mutations are quiesced (the writer-preferring gate drains them
        first) while plain ``get``/``get_stream`` -- which never touch the
        gate -- keep streaming mid-transition.  Each document is
        additionally migrated under its name's stripe *write* lock, so a
        reader can never land inside one document's copy-commit-delete
        window: it either sees the source blocks (before) or the target
        blocks (after), byte-exact either way.
        """
        self._ensure_open()

        def doc_guard(name: str) -> "ReadWriteLock._WriteGuard":
            return self._stripe_for(name).write_locked()

        with self._maintenance.write_locked():
            return self._service.transition_to(scheme, doc_guard=doc_guard)

    def repair(
        self, policy: MaintenancePolicy = MaintenancePolicy.FULL
    ) -> ServiceRepairReport:
        """Run a repair pass while mutations are quiesced; reads continue."""
        self._ensure_open()
        with self._maintenance.write_locked():
            return self._service.repair(policy)

    def fail_locations(self, location_ids: Iterable[int]) -> None:
        self._ensure_open()
        with self._maintenance.write_locked():
            self._service.fail_locations(location_ids)

    def restore_locations(
        self, location_ids: Optional[Iterable[int]] = None
    ) -> None:
        self._ensure_open()
        with self._maintenance.write_locked():
            self._service.restore_locations(location_ids)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Drain nothing, but checkpoint metadata and flush block writes."""
        self._ensure_open()
        with self._maintenance.write_locked():
            self._service.flush()

    def close(self) -> None:
        """Refuse new requests, drain in-flight ones (each holds an admission
        slot until it returns), then close the wrapped service."""
        if self._closed:
            return
        self._closed = True
        for _ in range(self._queue_depth):
            self._admission.acquire()
        self._service.close()

    def __enter__(self) -> "ConcurrentStorageService":
        return self

    def __exit__(self, exc_type: object, exc_value: object, traceback: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConcurrentStorageService(workers={self._workers}, "
            f"queue_depth={self._queue_depth}, stripes={len(self._stripes)})"
        )
