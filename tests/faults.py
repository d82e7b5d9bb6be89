"""``faulty``: a seeded fault-injecting storage backend for the tests.

:class:`FaultyBackend` wraps any inner backend and sits on exactly the
verbs a backend has for payloads -- ``put_many``, ``get``, ``delete_many``
and ``flush``.  ``scan``, ``clear`` and ``close`` pass through untouched.
Importing this module registers it in the backend registry, so a cluster
reaches it by name::

    schedule = FaultSchedule(seed=3, rates={"torn": 0.1})
    cluster = StorageCluster(8, backend="faulty", root=root,
                             inner="segment", schedule=schedule)

Every wrapped call counts as one call of the shared schedule and takes its
fault from it, so a run is replayed exactly by the same seed and the same
call sequence.  The faults (:data:`FAULTS`):

* ``read-eio`` -- ``get`` raises ``OSError(EIO)``;
* ``flip`` -- ``get`` returns the payload with one bit flipped, silently;
* ``write-eio`` -- ``put_many`` / ``delete_many`` raise ``OSError(EIO)``
  before touching the medium;
* ``enospc`` -- ``put_many`` raises ``OSError(ENOSPC)`` before writing;
* ``short`` -- ``put_many`` writes a prefix of the batch, flushes it, then
  raises ``OSError(ENOSPC)``;
* ``torn`` -- ``put_many`` writes a prefix, then the next block cut short,
  flushes, then raises ``OSError(EIO)``;
* ``flush`` -- ``flush`` raises ``OSError(EIO)`` before the inner flush;
* ``fail_after=N`` -- every call after the first ``N`` raises
  ``OSError(EIO)``, before touching the medium.
"""

from __future__ import annotations

import errno
import os
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.xor import as_payload
from repro.storage import backends
from repro.storage.backends import StorageBackend

#: The faults each wrapped verb can take, in the order a draw maps onto them.
FAULTS: Dict[str, Tuple[str, ...]] = {
    "put_many": ("write-eio", "enospc", "short", "torn"),
    "get": ("read-eio", "flip"),
    "delete_many": ("write-eio",),
    "flush": ("flush",),
}


def _error(code: int, what: str) -> OSError:
    return OSError(code, f"injected: {os.strerror(code)} ({what})")


class FaultSchedule:
    """Which fault fires on which wrapped call, shared by every location.

    ``rates`` maps a fault to its chance per call of a verb that can take
    it; one uniform draw from ``default_rng(seed)`` per call picks at most
    one (the rates of one verb must sum to at most 1).  ``at`` pins faults
    to call numbers (0-based, counted over every wrapped call), and
    ``fail_after`` fails every call from that number on.  ``fired`` logs
    ``(call, verb, fault)`` for each fault that fired.  :meth:`clear`
    stops all faults; calls are still counted.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Dict[str, float]] = None,
        at: Optional[Dict[int, str]] = None,
        fail_after: Optional[int] = None,
    ) -> None:
        known = {fault for faults in FAULTS.values() for fault in faults}
        unknown = (set(rates or ()) | set((at or {}).values())) - known
        if unknown:
            raise ValueError(f"unknown faults {sorted(unknown)}; known: {sorted(known)}")
        self.rng = np.random.default_rng(seed)
        self.rates = dict(rates or {})
        self.at = dict(at or {})
        self.fail_after = fail_after
        self.calls = 0
        self.fired: List[Tuple[int, str, str]] = []

    def clear(self) -> None:
        self.rates, self.at, self.fail_after = {}, {}, None

    def draw(self, verb: str) -> Optional[str]:
        """The fault the next call of ``verb`` takes, ``None`` for none."""
        call = self.calls
        self.calls += 1
        fault = None
        if self.fail_after is not None and call >= self.fail_after:
            fault = "fail"
        elif self.at.get(call) in FAULTS[verb]:
            fault = self.at[call]
        elif self.rates:
            u = self.rng.random()
            for candidate in FAULTS[verb]:
                u -= self.rates.get(candidate, 0.0)
                if u < 0:
                    fault = candidate
                    break
        if fault is not None:
            self.fired.append((call, verb, fault))
        return fault


class FaultyBackend(StorageBackend):
    """``inner`` with the faults of ``schedule`` on its four payload verbs."""

    name = "faulty"

    def __init__(self, inner: StorageBackend, schedule: FaultSchedule) -> None:
        self.inner = inner
        self.schedule = schedule
        self.persistent = inner.persistent

    def put_many(self, items: Iterable[Tuple[object, object]]) -> int:
        fault = self.schedule.draw("put_many")
        if fault in ("fail", "write-eio"):
            raise _error(errno.EIO, "write")
        if fault == "enospc":
            raise _error(errno.ENOSPC, "write")
        batch = list(items)
        if fault in ("short", "torn"):
            cut = int(self.schedule.rng.integers(len(batch))) if batch else 0
            written = batch[:cut]
            if fault == "torn" and cut < len(batch):
                block_id, payload = batch[cut]
                data = as_payload(payload)
                written.append((block_id, data[: int(self.schedule.rng.integers(data.size or 1))]))
            self.inner.put_many(written)
            self.inner.flush()
            raise _error(errno.ENOSPC if fault == "short" else errno.EIO, f"{fault} batch")
        return self.inner.put_many(batch)

    def get(self, block_id: object) -> np.ndarray:
        fault = self.schedule.draw("get")
        if fault in ("fail", "read-eio"):
            raise _error(errno.EIO, "read")
        payload = self.inner.get(block_id)
        if fault == "flip" and payload.size:
            payload = np.array(payload, dtype=np.uint8)
            bit = int(self.schedule.rng.integers(payload.size * 8))
            payload[bit // 8] ^= 1 << (bit % 8)
        return payload

    def delete_many(self, block_ids: Iterable[object]) -> int:
        if self.schedule.draw("delete_many") is not None:
            raise _error(errno.EIO, "delete")
        return self.inner.delete_many(block_ids)

    def flush(self) -> None:
        if self.schedule.draw("flush") is not None:
            raise _error(errno.EIO, "flush")
        self.inner.flush()

    def scan(self) -> Iterator[Tuple[object, int]]:
        return self.inner.scan()

    def clear(self) -> None:
        self.inner.clear()

    def close(self) -> None:
        self.inner.close()


def _faulty_factory(
    root: Optional[str] = None,
    inner: str = "memory",
    schedule: Optional[FaultSchedule] = None,
    **options: object,
) -> StorageBackend:
    """``inner`` built with ``root`` and ``options``, wrapped in ``schedule``
    (a schedule that never fires when none is given)."""
    return FaultyBackend(backends.get(inner, root=root, **options), schedule or FaultSchedule())


backends.register("faulty", _faulty_factory)
