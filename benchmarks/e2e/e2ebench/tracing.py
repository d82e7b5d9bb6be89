"""Per-layer attribution from outside the program.

For a traced repetition the public methods listed in :data:`SPANS` are
wrapped *at class level from this file* (``src/`` is untouched) and every
call records an in-memory span ``(id, parent, name, start, end, phase)``.
A span's self time is its duration minus the time its child spans cover.
The wrappers are removed again after the repetition, so the untraced
repetitions of the same run measure the unmodified program and the
difference between the two is the tracing overhead.

Only public names are touched, so a refactor of the program's internals
cannot break a traced run: a method is wrapped on every class of the
hierarchy that defines it (an override in a subclass is still seen), and a
method the program no longer has is skipped -- its span then reports zero
calls, which ``tests/`` flags, instead of raising.

Kernels that callers bind with ``from ... import`` cannot be wrapped from
outside; :func:`direct_kernels` times them directly on the workload's own
payload matrix instead.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.codes.entanglement import EntanglementScheme
from repro.codes.gf256 import gf_dot_bytes, gf_mul_bytes
from repro.codes.reed_solomon import ReedSolomonCode
from repro.core.batch_repair import execute_plan, plan_round
from repro.core.blocks import DataId
from repro.core.encoder import BatchEntangler
from repro.core.lattice import HelicalLattice
from repro.core.parameters import AEParameters
from repro.core.xor import gather_payload_matrix, xor_accumulate
from repro.schemes.stripe import StripeScheme
from repro.storage.backends import SegmentLogBackend
from repro.storage.block_store import BlockStore
from repro.storage.cluster import StorageCluster
from repro.storage.placement import PlacementPolicy
from repro.storage.wal import MetadataWAL
from repro.system.frontend import ConcurrentStorageService
from repro.system.service import StorageService
from repro.system.sharding import ShardedStorageService

from e2ebench.workloads import Repetition

__all__ = ["SPANS", "SPAN_NAMES", "DIRECT_KERNELS", "Tracer", "direct_kernels"]

#: ``(span name, class, public method)``.  The span name is ``<layer>.<span>``.
SPANS: Tuple[Tuple[str, type, str], ...] = (
    ("system.sharding.put", ShardedStorageService, "put"),
    ("system.sharding.get", ShardedStorageService, "get"),
    ("system.sharding.delete", ShardedStorageService, "delete"),
    ("system.sharding.repair", ShardedStorageService, "repair"),
    ("system.frontend.put", ConcurrentStorageService, "put"),
    ("system.frontend.get", ConcurrentStorageService, "get"),
    ("system.frontend.delete", ConcurrentStorageService, "delete"),
    ("system.service.put", StorageService, "put"),
    ("system.service.get", StorageService, "get"),
    ("system.service.delete", StorageService, "delete"),
    ("system.service.repair", StorageService, "repair"),
    ("system.service.open", StorageService, "open"),
    ("system.service.close", StorageService, "close"),
    # Renamed per call to system.transitions.<kind of the hop>.
    ("system.transitions", StorageService, "transition_to"),
    # No ``read_block`` spans: the per-block fallback runs only for blocks the
    # batched repair pass cannot reach, which a single-site disaster never
    # leaves, so they would read 0 calls on every workload.
    ("schemes.ae.encode", EntanglementScheme, "encode"),
    ("schemes.ae.repair", EntanglementScheme, "repair"),
    ("schemes.stripe.encode", StripeScheme, "encode"),
    ("schemes.stripe.repair", StripeScheme, "repair"),
    ("core.encoder.entangle_batch", BatchEntangler, "entangle_batch"),
    ("codes.reed_solomon.encode", ReedSolomonCode, "encode"),
    ("codes.reed_solomon.decode", ReedSolomonCode, "decode"),
    ("storage.cluster.put_many", StorageCluster, "put_many"),
    ("storage.cluster.try_get_many", StorageCluster, "try_get_many"),
    ("storage.cluster.relocate_many", StorageCluster, "relocate_many"),
    ("storage.cluster.delete_blocks", StorageCluster, "delete_blocks"),
    ("storage.cluster.unavailable_blocks", StorageCluster, "unavailable_blocks"),
    ("storage.placement.locations_for", PlacementPolicy, "locations_for"),
    ("storage.block_store.put_many", BlockStore, "put_many"),
    ("storage.block_store.try_get_many", BlockStore, "try_get_many"),
    ("storage.backends.segment.put_many", SegmentLogBackend, "put_many"),
    ("storage.backends.segment.get", SegmentLogBackend, "get"),
    ("storage.wal.commit", MetadataWAL, "commit"),
)

#: The front-end runs a request on a pool thread, where the wrapped
#: service's span would have no parent.  A front-end span therefore publishes
#: itself under ``(plain service, document name)`` and the parentless service
#: span with the same key adopts it, so ``system.frontend.*`` self time is
#: admission + queueing + lock wait.  (The key is unambiguous because the
#: benchmark's clients own disjoint names and wait for every reply.)
HANDOFFS: Dict[str, str] = {
    "system.frontend.put": "system.service.put",
    "system.frontend.get": "system.service.get",
    "system.frontend.delete": "system.service.delete",
}

TRANSITION_KINDS = ("reencode", "alpha_raise", "repuncture")

#: Every span name a traced run can report.
SPAN_NAMES: Tuple[str, ...] = tuple(
    name for name, _, _ in SPANS if name != "system.transitions"
) + tuple(f"system.transitions.{kind}" for kind in TRANSITION_KINDS)

_MISSING = object()

#: ``(id, parent id, name, start, end, phase)``
Span = Tuple[int, Optional[int], str, float, float, str]


def _request_name(args: Sequence[object], kwargs: Dict[str, object]) -> object:
    return args[1] if len(args) > 1 else kwargs.get("name")


def _defining_classes(base: type, attr: str) -> List[type]:
    """``base`` and every subclass of it that defines ``attr`` itself."""
    found: List[type] = []
    queue = [base]
    while queue:
        cls = queue.pop()
        queue.extend(cls.__subclasses__())
        if cls not in found and (attr in cls.__dict__ or (cls is base and hasattr(cls, attr))):
            found.append(cls)
    return found


class Tracer:
    """Records spans while installed; one instance serves a whole run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(records, bytes appended)`` of every WAL commit group.
        self.wal_commits: List[Tuple[int, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._rep: Optional[Repetition] = None
        self._installed: List[Tuple[type, str, object]] = []
        #: Open front-end spans by ``(id of the plain service, document name)``.
        self._handoffs: Dict[Tuple[int, object], int] = {}
        self._wal_lock = threading.Lock()
        self._wal_sizes: "weakref.WeakKeyDictionary[object, int]" = weakref.WeakKeyDictionary()

    # -- span recording ------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _traced(self, func: Callable, name: str) -> Callable:
        relabel = name == "system.transitions"
        offers = name in HANDOFFS
        adopts = name in HANDOFFS.values()

        def wrapper(*args: object, **kwargs: object) -> object:
            stack = self._stack()
            span_id = next(self._ids)
            if stack:
                parent: Optional[int] = stack[-1]
            elif adopts:
                parent = self._handoffs.get((id(args[0]), _request_name(args, kwargs)))
            else:
                parent = None
            key = None
            if offers:
                key = (id(getattr(args[0], "service", None)), _request_name(args, kwargs))
                self._handoffs[key] = span_id
            stack.append(span_id)
            label = name
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                if relabel:
                    kind = result.kind.replace("-", "_") if result is not None else "none"
                    label = f"{name}.{kind}"
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if key is not None:
                    self._handoffs.pop(key, None)
                phase = self._rep.phase if self._rep is not None else "untimed"
                self.spans.append((span_id, parent, label, start, end, phase))

        return wrapper

    def _builder(self, name: str) -> Callable[[Callable], Callable]:
        def build(func: Callable) -> Callable:
            traced = self._traced(func, name)
            return self._wal_counter(traced) if name == "storage.wal.commit" else traced

        return build

    def _wal_counter(self, commit: Callable) -> Callable:
        """Count the records of every commit group and, from the public
        ``size_bytes``, the bytes it appended (a smaller size than last seen
        means the log was checkpointed and reset in between)."""

        def wrapper(wal: object, *args: object, **kwargs: object) -> object:
            ops: Sequence[object] = args[0] if args else kwargs.get("ops", ())  # type: ignore[assignment]
            with self._wal_lock:
                self._wal_sizes.setdefault(wal, getattr(wal, "size_bytes", 0))
            try:
                return commit(wal, *args, **kwargs)
            finally:
                with self._wal_lock:
                    size = getattr(wal, "size_bytes", 0)
                    last = self._wal_sizes[wal]
                    self._wal_sizes[wal] = size
                    self.wal_commits.append((len(ops), size - last if size >= last else size))

        return wrapper

    # -- install / remove ----------------------------------------------
    def _patch(self, cls: type, attr: str, build: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__.get(attr, _MISSING)
        target = getattr(cls, attr) if original is _MISSING else original
        if isinstance(target, classmethod):
            patched: object = classmethod(build(target.__func__))
        else:
            patched = build(target)  # type: ignore[arg-type]
        setattr(cls, attr, patched)
        self._installed.append((cls, attr, original))

    @contextmanager
    def installed(self, rep: Repetition) -> Iterator[None]:
        """Wrap the layers for one repetition; always restore the classes."""
        self.spans = []
        self.wal_commits = []
        self._rep = rep
        try:
            for name, base, attr in SPANS:
                for cls in _defining_classes(base, attr):
                    self._patch(cls, attr, self._builder(name))
            yield
        finally:
            for cls, attr, original in reversed(self._installed):
                if original is _MISSING:
                    delattr(cls, attr)
                else:
                    setattr(cls, attr, original)
            self._installed = []
            self._handoffs.clear()
            self._rep = None

    # -- aggregation ---------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, Tuple[int, float]]]:
        """``{phase: {span name: (calls, self seconds)}}`` of the recorded spans.

        Each phase also carries ``"harness.roots"``: the summed duration of
        its parentless spans, i.e. the part of the phase spent inside the
        program at all.
        """
        covered: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        phases: Dict[str, Dict[str, Tuple[int, float]]] = defaultdict(dict)
        for span_id, parent, name, start, end, phase in self.spans:
            table = phases[phase]
            calls, seconds = table.get(name, (0, 0.0))
            table[name] = (calls + 1, seconds + (end - start) - covered.get(span_id, 0.0))
            if parent is None:
                calls, seconds = table.get("harness.roots", (0, 0.0))
                table["harness.roots"] = (calls + 1, seconds + end - start)
        return dict(phases)


# ----------------------------------------------------------------------
# Direct kernel timings
# ----------------------------------------------------------------------
#: ``name -> unit`` of the kernels timed directly.
DIRECT_KERNELS: Dict[str, str] = {
    "core.xor.xor_accumulate_mb_s": "MB/s",
    "core.xor.gather_payload_matrix_mb_s": "MB/s",
    "core.batch_repair.plan_round_us_per_target": "us",
    "core.batch_repair.execute_plan_mb_s": "MB/s",
    "codes.gf256.gf_mul_bytes_mb_s": "MB/s",
    "codes.gf256.gf_dot_bytes_mb_s": "MB/s",
}

#: Rows of the payload matrix the kernels run over.
KERNEL_ROWS = 512


def direct_kernels(payload: bytes, block_size: int) -> Dict[str, float]:
    """Time the module-level kernels once on ``payload`` cut into blocks.

    ``payload`` supplies ``KERNEL_ROWS`` blocks of the workload's block size
    (repeated when the corpus is smaller).  Returns raw values: MB/s of
    payload bytes processed, or microseconds per planned target.
    """
    need = KERNEL_ROWS * block_size
    data = (payload * (need // len(payload) + 1))[:need]
    matrix = np.frombuffer(data, dtype=np.uint8).reshape(KERNEL_ROWS, block_size)
    megabytes = need / 1e6
    clock = time.perf_counter
    results: Dict[str, float] = {}

    work = matrix.copy()
    start = clock()
    xor_accumulate(work)
    results["core.xor.xor_accumulate_mb_s"] = megabytes / (clock() - start)

    rows = list(matrix)
    start = clock()
    gather_payload_matrix(rows, block_size)
    results["core.xor.gather_payload_matrix_mb_s"] = megabytes / (clock() - start)

    # Every seventh data block of an AE(3,2,5) lattice is missing; all
    # parities survive, so each target is planned from its first pp-tuple.
    lattice = HelicalLattice(AEParameters(3, 2, 5), size=KERNEL_ROWS * 7)
    pending = [DataId(index) for index in range(7, KERNEL_ROWS * 7 + 1, 7)]
    missing = set(pending)
    start = clock()
    steps = plan_round(lattice, pending, lambda block_id: block_id not in missing)
    results["core.batch_repair.plan_round_us_per_target"] = (
        (clock() - start) * 1e6 / len(pending)
    )

    start = clock()
    execute_plan(steps, lambda block_id: matrix[block_id.index % KERNEL_ROWS], block_size)
    results["core.batch_repair.execute_plan_mb_s"] = (
        len(steps) * block_size / 1e6 / (clock() - start)
    )

    flat = matrix.reshape(-1)
    start = clock()
    gf_mul_bytes(29, flat)
    results["codes.gf256.gf_mul_bytes_mb_s"] = megabytes / (clock() - start)

    coefficients = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    start = clock()
    for base in range(0, KERNEL_ROWS - 9, 10):
        gf_dot_bytes(coefficients, rows[base : base + 10], block_size)
    results["codes.gf256.gf_dot_bytes_mb_s"] = (
        (KERNEL_ROWS // 10) * 10 * block_size / 1e6 / (clock() - start)
    )
    return results
