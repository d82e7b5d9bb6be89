"""Concurrent multi-client front-end over :class:`StorageService`.

The paper pitches entanglement codes as infrastructure for open storage
systems serving many writers; :class:`ConcurrentStorageService` is the
reproduction's multi-client request path.  It wraps one
:class:`~repro.system.service.StorageService` with:

* **requests on the caller's thread** -- ``put`` / ``get`` / ``delete`` /
  ``put_stream`` run on the thread that called them; there is no executor
  and no hand-off, so a request costs its locks and its work only;
* **bounded admission** -- at most ``queue_depth`` requests may be in flight
  at once (a ``get_stream`` until its stream is exhausted or closed); past
  that, a request raises
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
so the composition cannot deadlock (concurrent mutators share one WAL
fsync through its group commit).  See ``docs/architecture.md``.
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import ExitStack, contextmanager
from typing import Callable, Iterator, List, Optional, Sequence

from repro.exceptions import InvalidParametersError, ServiceOverloadedError
from repro.system.protocol import Members, ServiceLayer
from repro.system.service import StorageConfig, StorageService
from repro.system.transitions import TransitionReport

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

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


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


class _Request:
    """One front-end request on one name: admitted, under the name's stripe
    lock -- a write also under the maintenance gate's read side, then a
    yield of the CPU.  (A class, not a generator: it is on every request.)"""

    __slots__ = ("frontend", "stripe", "write")

    def __init__(self, frontend: "ConcurrentStorageService", name: str, write: bool) -> None:
        self.frontend, self.stripe, self.write = frontend, frontend._stripe_for(name), write

    def __enter__(self) -> StorageService:
        self.frontend._admit()
        if self.write:
            self.frontend._maintenance.acquire_read()
            self.stripe.acquire_write()
        else:  # no maintenance gate: reads proceed during repair
            self.stripe.acquire_read()
        return self.frontend._service

    def __exit__(self, *exc: object) -> None:
        if self.write:
            self.stripe.release_write()
            self.frontend._maintenance.release_read()
        else:
            self.stripe.release_read()
        self.frontend._admission.release()
        if self.write:
            _yield_cpu()


class ConcurrentStorageService(ServiceLayer):
    """Multi-client request front-end with striped locking and backpressure.

    Wraps an already-open :class:`StorageService` (or opens one through
    :meth:`open`).  All public operations are thread-safe and run on the
    calling thread; ``workers`` is the number of concurrent callers the
    front-end is sized for.  Closing the front-end refuses new requests,
    drains in-flight ones, then closes the wrapped service.  The verbs are
    :class:`~repro.system.protocol.ServiceLayer`'s, over :meth:`_route` and
    :meth:`_members`.
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
        self._data_dir = service.data_dir
        self._workers = workers
        self._queue_depth = queue_depth
        self._admission = threading.Semaphore(queue_depth)
        self._stripes: List[ReadWriteLock] = [
            ReadWriteLock() for _ in range(derive_stripe_count(service, workers))
        ]
        self._maintenance = ReadWriteLock()

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

    # -- The two hooks, and what they hold --
    def _stripe_index(self, name: str) -> int:
        digest = hashlib.blake2b(name.encode("utf-8"), digest_size=4).digest()
        return int.from_bytes(digest, "big") % len(self._stripes)

    def _stripe_for(self, name: str) -> ReadWriteLock:
        return self._stripes[self._stripe_index(name)]

    @contextmanager
    def _write_locked(self, names: Sequence[str]) -> Iterator[None]:
        """Write-lock the stripes of ``names``: each distinct stripe once --
        two names can share one, and the locks are not reentrant -- in
        stripe order, so two such holders cannot wait on each other."""
        with ExitStack() as stack:
            for index in sorted({self._stripe_index(name) for name in names}):
                stack.enter_context(self._stripes[index].write_locked())
            yield

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

    def _route(self, name: str, write: bool) -> _Request:
        return _Request(self, name, write)

    def _members(self, shard: Optional[int] = None) -> Members:
        """The wrapped service; a maintenance pass holds :meth:`_quiesce`."""
        return Members([(0, self._service)], self._quiesce())

    @contextmanager
    def _quiesce(self) -> Iterator[None]:
        """Hold off mutations (the gate's write side; reads go on).  Once
        closed -- only :meth:`close` asks then -- wait out every admitted
        request instead: each holds its slot until it returns."""
        if self._closed:
            for _ in range(self._queue_depth):
                self._admission.acquire()
            yield
        else:
            with self._maintenance.write_locked():
                yield

    def transition_to(self, scheme: object) -> Optional["TransitionReport"]:
        """Migrate the live service to another redundancy scheme.

        Holds the maintenance gate's *write* side for the duration, so
        mutations are quiesced (the writer-preferring gate drains them
        first) while plain ``get``/``get_stream`` -- which never touch the
        gate -- keep streaming mid-transition.  Each batch of documents is
        additionally migrated under the *write* locks of its names' stripes
        (:meth:`_write_locked`), so a reader can never land inside a batch's
        copy-commit-delete window: it either sees the source blocks (before)
        or the target blocks (after), byte-exact either way.  A reader of
        any of those stripes waits out the batch.
        """
        self._ensure_open()
        with self._members() as members:
            return members[0].transition_to(scheme, doc_guard=self._write_locked)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConcurrentStorageService(workers={self._workers}, "
            f"queue_depth={self._queue_depth}, stripes={len(self._stripes)})"
        )
