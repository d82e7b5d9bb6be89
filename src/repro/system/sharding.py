"""Sharded document namespace: one federation over many storage services.

The paper's decentralised use case (Sec. IV-A) locates blocks by
deterministic keys every participant can recompute without coordination;
:mod:`repro.system.keys` seeds that key scheme.  This module scales the
*live* system the same way: a :class:`ShardedStorageService` routes whole
documents across ``M`` independent :class:`~repro.system.service.StorageService`
shards -- each with its own backend root, metadata WAL and
:class:`~repro.system.frontend.ConcurrentStorageService` front-end -- via a
vnode-weighted consistent-hash ring (:class:`ShardRing`).  The federation

* **rebalances on membership changes**: :meth:`add_shard` /
  :meth:`remove_shard` move only the ring-delta documents (each read in
  one pass -- a document of more than ``batch_blocks`` blocks in
  whole-stripe chunks -- by the destination's document mover,
  :meth:`~repro.system.service.StorageService._move_in`), and every move is
  two durable single-shard mutations -- the destination's WAL commits the
  copy before the source's WAL commits the delete -- so a crash at any point
  leaves either the old home, the new home, or both, never neither.
  Reopening the federation resumes the interrupted rebalance
  (:meth:`rebalance` re-homes every document the ring no longer maps to its
  current shard);
* **isolates failures**: ``fail_locations``/``repair`` target one shard, and
  a federation-wide :meth:`repair` sums per-shard reports into one
  :class:`FederationRepairReport` without letting one shard's unrecoverable
  disaster abort the others (a :meth:`transition_to` sums them into one
  :class:`FederationTransitionReport`);
* **aggregates health**: :meth:`status` sums per-shard
  :class:`~repro.system.service.ServiceStatus` into one
  :class:`FederationStatus`.

The verbs are :class:`~repro.system.protocol.ServiceLayer`'s, over
:meth:`ShardedStorageService._route` and
:meth:`ShardedStorageService._members`.  Durable federations keep a small
``federation.json`` manifest (shard ids, ring vnodes, the settled scheme
binding) next to one ``shard-NN/`` sub-root per shard; see
``docs/sharding.md``.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import threading
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import ContextManager, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import repro.schemes as schemes_registry
from repro.exceptions import InvalidParametersError, PlacementError
from repro.schemes.base import RedundancyScheme
from repro.system.transitions import TransitionReport
from repro.storage.backends import read_json, write_json
from repro.storage.maintenance import MaintenancePolicy
from repro.storage.placement import PlacementPolicy
from repro.system.frontend import DEFAULT_WORKERS, ConcurrentStorageService
from repro.system.protocol import Members, ServiceLayer, merged
from repro.system.service import ServiceRepairReport, ServiceStatus, StorageConfig, StorageService

__all__ = [
    "DEFAULT_VNODES",
    "FEDERATION_FORMAT",
    "FEDERATION_NAME",
    "FederationRepairReport",
    "FederationStatus",
    "FederationTransitionReport",
    "RebalanceReport",
    "ShardRing",
    "ShardedStorageService",
]

#: Virtual nodes per shard on the ring.  More vnodes -> tighter key balance
#: at a small lookup-table cost; 64 keeps every shard's share within a few
#: percent of ideal for realistic document counts.
DEFAULT_VNODES = 64

#: Name of the federation manifest inside a durable ``data_dir``.
FEDERATION_NAME = "federation.json"

#: Federation manifest format version.
FEDERATION_FORMAT = 1


class ShardRing:
    """A vnode-weighted consistent-hash ring over integer shard ids.

    Every shard contributes ``vnodes`` points on a 64-bit ring (SHA-256 of
    ``shard-<id>/vnode-<n>``); a key is owned by the shard whose point
    follows the key's own hash point.  Adding or removing one shard
    therefore moves only the keys that fall between the changed points --
    about ``1/(M+1)`` of them on a join of an ``M``-shard ring -- and never
    reassigns a key between two surviving shards.

    The ring is immutable: :meth:`with_shard` / :meth:`without_shard` return
    new rings, so concurrent readers can keep routing against a snapshot
    while a membership change builds its successor.

    The digest -> index mapping of the decentralised key scheme
    (:func:`repro.system.keys.location_for_key`) is the degenerate
    single-point form of the same idea and lives here too
    (:meth:`digest_index`), so the system has exactly one key-hashing
    convention.
    """

    __slots__ = ("_shard_ids", "_vnodes", "_points", "_owners")

    def __init__(self, shard_ids: Sequence[int], vnodes: int = DEFAULT_VNODES) -> None:
        ids = sorted(set(int(shard_id) for shard_id in shard_ids))
        if not ids:
            raise PlacementError("a shard ring needs at least one shard")
        if len(ids) != len(list(shard_ids)):
            raise PlacementError("shard ids must be unique")
        if any(shard_id < 0 for shard_id in ids):
            raise PlacementError("shard ids must be non-negative")
        if vnodes < 1:
            raise PlacementError("vnodes must be at least 1")
        self._shard_ids: Tuple[int, ...] = tuple(ids)
        self._vnodes = int(vnodes)
        ring = sorted(
            (self._vnode_point(shard_id, vnode), shard_id)
            for shard_id in ids
            for vnode in range(vnodes)
        )
        self._points: List[int] = [point for point, _ in ring]
        self._owners: List[int] = [shard_id for _, shard_id in ring]

    # ------------------------------------------------------------------
    # Hashing (the project-wide key-hash convention)
    # ------------------------------------------------------------------
    @staticmethod
    def key_point(key: str) -> int:
        """The 64-bit ring point of a document key (SHA-256 prefix)."""
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return int(digest[:16], 16)

    @staticmethod
    def _vnode_point(shard_id: int, vnode: int) -> int:
        digest = hashlib.sha256(
            f"shard-{shard_id}/vnode-{vnode}".encode("utf-8")
        ).hexdigest()
        return int(digest[:16], 16)

    @staticmethod
    def digest_index(digest: str, count: int) -> int:
        """Deterministic hex-digest -> index mapping (modulo form).

        The single-point convention of :mod:`repro.system.keys`:
        ``location_for_key`` is a thin shim over this method, so block keys
        and document routing share one hashing scheme.
        """
        if count < 1:
            raise PlacementError("location_count must be positive")
        return int(digest[:12], 16) % count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> Tuple[int, ...]:
        return self._shard_ids

    @property
    def shard_count(self) -> int:
        return len(self._shard_ids)

    @property
    def vnodes(self) -> int:
        return self._vnodes

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self._shard_ids

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardRing(shards={list(self._shard_ids)}, vnodes={self._vnodes})"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_for(self, key: str) -> int:
        """The shard owning ``key``: the first ring point at or after it."""
        position = bisect.bisect_left(self._points, self.key_point(key))
        if position == len(self._points):
            position = 0  # wrap around the ring
        return self._owners[position]

    def assignment(self, keys: Iterable[str]) -> Dict[str, int]:
        """Bulk :meth:`shard_for` (key -> shard id)."""
        return {key: self.shard_for(key) for key in keys}

    # ------------------------------------------------------------------
    # Membership (immutable: returns new rings)
    # ------------------------------------------------------------------
    def with_shard(self, shard_id: int) -> "ShardRing":
        if shard_id in self._shard_ids:
            raise PlacementError(f"shard {shard_id} is already on the ring")
        return ShardRing((*self._shard_ids, shard_id), vnodes=self._vnodes)

    def without_shard(self, shard_id: int) -> "ShardRing":
        if shard_id not in self._shard_ids:
            raise PlacementError(f"shard {shard_id} is not on the ring")
        if len(self._shard_ids) == 1:
            raise PlacementError("cannot remove the last shard from the ring")
        remaining = tuple(sid for sid in self._shard_ids if sid != shard_id)
        return ShardRing(remaining, vnodes=self._vnodes)


@dataclass
class FederationStatus(ServiceStatus):
    """Every shard's :class:`ServiceStatus` summed (``documents`` counts the
    merged catalogue), plus the per-shard breakdown."""

    shards: int = 0
    per_shard: Dict[int, ServiceStatus] = field(default_factory=dict)

    def summary(self) -> str:
        return f"{self.shards} shards: {super().summary()}"


@dataclass
class FederationRepairReport(ServiceRepairReport):
    """Every shard's :class:`ServiceRepairReport` summed (``rounds``: the
    max); one shard's failure never hides the rest.

    ``errors`` maps shard ids whose repair pass itself *raised* (not merely
    reported unrecovered blocks) to the error text; their entries are absent
    from ``per_shard`` and from the sums.
    """

    shards: int = 0
    per_shard: Dict[int, ServiceRepairReport] = field(default_factory=dict)
    errors: Dict[int, str] = field(default_factory=dict)

    def summary(self) -> str:
        failed = f"; failed shards: {sorted(self.errors)}" if self.errors else ""
        return f"{self.shards} shards: {super().summary()}{failed}"


@dataclass
class FederationTransitionReport(TransitionReport):
    """The moved shards' :class:`TransitionReport` counts summed (``resumed``
    if any shard resumed), plus the per-shard breakdown; ``None`` stands for
    no shard moved."""

    shards: int = 0
    per_shard: Dict[int, TransitionReport] = field(default_factory=dict)

    def summary(self) -> str:
        return f"{self.shards} shards: {super().summary()}"


@dataclass
class RebalanceReport:
    """Outcome of one rebalance pass (join, leave or crash resume)."""

    reason: str
    shard: Optional[int]
    total_documents: int
    bytes_moved: int = 0
    #: name -> (source shard, destination shard) for every moved document.
    moves: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def moved_documents(self) -> int:
        return len(self.moves)

    @property
    def moved_fraction(self) -> float:
        return self.moved_documents / self.total_documents if self.total_documents else 0.0

    def summary(self) -> str:
        label = f" (shard {self.shard})" if self.shard is not None else ""
        return (
            f"rebalance[{self.reason}{label}]: moved {self.moved_documents}/"
            f"{self.total_documents} documents "
            f"({self.moved_fraction:.1%}, {self.bytes_moved} bytes)"
        )


class ShardedStorageService(ServiceLayer):
    """Routes documents across ``M`` independent storage-service shards.

    Every shard is a full :class:`~repro.system.service.StorageService`
    behind its own :class:`~repro.system.frontend.ConcurrentStorageService`
    front-end, with its own cluster, backend root and metadata WAL --
    shards share *nothing*, which is what makes the federation scale writes
    and isolate disasters.  Documents route by name over a
    :class:`ShardRing`; reads fall back to a federation-wide catalogue scan
    when a document is mid-move (or a crash left it on its pre-move shard),
    so they stay byte-exact before, during and after a rebalance.

    Open one from a config with ``shards=M``::

        from repro.system.sharding import ShardedStorageService

        federation = ShardedStorageService.open(
            StorageConfig(scheme="ae-3-2-5", shards=4)
        )
        federation.put("report", payload)
        report = federation.add_shard()      # moves ~1/5 of the documents
        assert federation.get("report") == payload
    """

    _status_type = FederationStatus
    _report_type = FederationRepairReport

    def __init__(
        self,
        shards: Dict[int, ConcurrentStorageService],
        ring: ShardRing,
        *,
        shard_config: Optional[StorageConfig] = None,
        data_dir: Optional[str] = None,
        workers: int = DEFAULT_WORKERS,
        queue_depth: Optional[int] = None,
        leaving: Iterable[int] = (),
    ) -> None:
        if not shards:
            raise InvalidParametersError("a federation needs at least one shard")
        if set(ring.shard_ids) - set(shards):
            raise InvalidParametersError(
                "every ring shard needs a service: missing "
                f"{sorted(set(ring.shard_ids) - set(shards))}"
            )
        self._shards: Dict[int, ConcurrentStorageService] = dict(shards)
        self._ring = ring
        self._shard_config = shard_config or StorageConfig()
        self._data_dir = data_dir
        self._workers = workers
        self._queue_depth = queue_depth
        self._leaving: set[int] = set(leaving)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Opening / federation manifest
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        config: Optional[StorageConfig] = None,
        *,
        workers: int = DEFAULT_WORKERS,
        queue_depth: Optional[int] = None,
        vnodes: int = DEFAULT_VNODES,
        **overrides: object,
    ) -> "ShardedStorageService":
        """Open (or durably reopen) a federation from a config.

        ``config.shards`` picks the shard count for a fresh federation; a
        ``data_dir`` that already holds a ``federation.json`` *reopens* the
        stored one -- shard ids, the ring's vnode count and the scheme
        binding come from the manifest (an explicit conflicting ``shards``
        value is rejected), every shard reopens from its own sub-root under
        the scheme its own manifest names, and whatever a crash interrupted
        -- a transition some shards finished, a rebalance -- is finished
        before the call returns.
        """
        config = replace(config or StorageConfig(), **overrides)
        if config.cluster is not None or isinstance(config.placement, PlacementPolicy):
            raise InvalidParametersError(
                "a sharded service builds one cluster per shard; pass a "
                "placement registry name and a topology spec instead of "
                "pre-built instances"
            )
        if isinstance(config.scheme, RedundancyScheme):
            raise InvalidParametersError(
                "a sharded service needs a scheme registry id (each shard "
                "gets its own scheme instance), not a scheme object"
            )
        scheme_id = str(config.scheme)
        shard_ids: List[int]
        leaving: List[int] = []
        shard_schemes: Dict[int, str] = {}
        manifest = None
        if config.data_dir is not None:
            path = os.path.join(config.data_dir, FEDERATION_NAME)
            manifest = read_json(path, "federation manifest", FEDERATION_FORMAT)
        if manifest is not None:
            stored_backend = manifest.get("backend", config.backend)
            if stored_backend != config.backend:
                raise InvalidParametersError(
                    f"data_dir {config.data_dir!r} was written with the "
                    f"{stored_backend!r} backend, not {config.backend!r}"
                )
            shard_ids = [int(shard_id) for shard_id in manifest["shard_ids"]]
            leaving = [int(shard_id) for shard_id in manifest.get("leaving", [])]
            vnodes = int(manifest.get("vnodes", vnodes))
            if config.shards is not None and config.shards != len(shard_ids) - len(leaving):
                raise InvalidParametersError(
                    f"data_dir {config.data_dir!r} holds "
                    f"{len(shard_ids) - len(leaving)} shards, not {config.shards}"
                )
            # Each shard opens under the scheme its own manifest names (one
            # with a plan in flight resumes it inside its own open).
            binding = str(manifest.get("scheme"))
            for shard_id in shard_ids:
                stored = StorageService._load_manifest(cls._shard_root(config.data_dir, shard_id))
                shard_schemes[shard_id] = str((stored or {}).get("scheme", binding))
            if scheme_id != binding and scheme_id not in shard_schemes.values():
                raise InvalidParametersError(
                    f"data_dir {config.data_dir!r} holds a {binding!r} "
                    f"federation, not {scheme_id!r}"
                )
            scheme_id = binding
        else:
            shard_count = 1 if config.shards is None else int(config.shards)
            if shard_count < 1:
                raise InvalidParametersError("shards must be at least 1")
            shard_ids = list(range(shard_count))
        shard_config = replace(config, shards=None, data_dir=None, scheme=scheme_id)
        shards: Dict[int, ConcurrentStorageService] = {}
        with ExitStack() as half_built:  # closed again if a later shard fails
            for shard_id in shard_ids:
                shards[shard_id] = half_built.enter_context(
                    ConcurrentStorageService.open(
                        replace(
                            shard_config,
                            data_dir=cls._shard_root(config.data_dir, shard_id),
                            scheme=shard_schemes.get(shard_id, scheme_id),
                        ),
                        workers=workers,
                        queue_depth=queue_depth,
                    )
                )
            half_built.pop_all()
        ring = ShardRing(
            [shard_id for shard_id in shard_ids if shard_id not in leaving],
            vnodes=vnodes,
        )
        federation = cls(
            shards,
            ring,
            shard_config=shard_config,
            data_dir=config.data_dir,
            workers=workers,
            queue_depth=queue_depth,
            leaving=leaving,
        )
        if config.data_dir is not None:
            if federation._federation_record() != manifest:
                federation._write_federation()
            # Resume whatever a crash interrupted: shards on a scheme other
            # than the binding are a transition cut short (at most one
            # target; the call skips shards already on it), then re-home
            # misplaced documents and finish any half-completed removal.
            for target in {shard.scheme.scheme_id for shard in shards.values()} - {scheme_id}:
                federation.transition_to(target)
            if federation._misplaced() or leaving:
                federation.rebalance(reason="resume")
                for shard_id in list(leaving):
                    federation._complete_removal(shard_id)
        return federation

    @staticmethod
    def _shard_root(data_dir: Optional[str], shard_id: int) -> Optional[str]:
        """A shard's own sub-root of a durable federation."""
        return os.path.join(data_dir, f"shard-{shard_id:02d}") if data_dir is not None else None

    def _write_federation(self) -> None:
        """Atomically persist the membership next to the shard sub-roots.

        Written *before* data moves on a join and kept listing a leaving
        shard until its drain completes, so a crash at any point reopens a
        federation that can still reach every document.
        """
        if self._data_dir is None:
            return
        os.makedirs(self._data_dir, exist_ok=True)
        write_json(
            os.path.join(self._data_dir, FEDERATION_NAME),
            self._federation_record(),
            fsync=self._shard_config.fsync,
        )

    def _federation_record(self) -> Dict[str, object]:
        """What ``federation.json`` holds: the membership and the settled
        scheme binding."""
        return {
            "format": FEDERATION_FORMAT,
            "scheme": str(self._shard_config.scheme),
            "backend": self._shard_config.backend,
            "vnodes": self._ring.vnodes,
            "shard_ids": sorted(self._shards),
            "leaving": sorted(self._leaving),
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> Tuple[int, ...]:
        """Active (ring) shard ids."""
        return self._ring.shard_ids

    @property
    def shard_count(self) -> int:
        return self._ring.shard_count

    def shard(self, shard_id: int) -> ConcurrentStorageService:
        """The front-end of one shard (tests, probes, targeted maintenance)."""
        return self._shards[shard_id]

    def shard_for(self, name: str) -> int:
        """The ring owner of a document name (where a write would go)."""
        return self._ring.shard_for(name)

    # ------------------------------------------------------------------
    # The two hooks
    # ------------------------------------------------------------------
    def _locate(self, name: str) -> int:
        """The shard actually holding ``name``: ring owner first, then a
        catalogue scan -- a document mid-move (or stranded by a crash) is
        still served from wherever its committed copy lives."""
        owner = self._ring.shard_for(name)
        if self._shards[owner].service.has_document(name):
            return owner
        for shard_id, shard in self._shards.items():
            if shard_id != owner and shard.service.has_document(name):
                return shard_id
        return owner  # let the owner raise the canonical UnknownBlockError

    def _route(self, name: str, write: bool) -> ContextManager[ConcurrentStorageService]:
        """The shard for one request on ``name``: for a read the shard holding
        it (:meth:`_locate`), held by nothing; for a write :meth:`_owned`."""
        self._ensure_open()
        if write:
            return self._owned(name)
        return nullcontext(self._shards[self._locate(name)])

    @contextmanager
    def _owned(self, name: str) -> Iterator[ConcurrentStorageService]:
        """The ring owner of ``name``, after finishing a move of the name
        still in flight; once the write returns, the copies left on other
        shards are dropped."""
        owner = self._ring.shard_for(name)
        holder = self._locate(name)
        if holder != owner:
            with self._lock:
                self._move_document(name, holder, owner)
        yield self._shards[owner]
        for shard_id, shard in self._shards.items():
            if shard_id != owner and shard.service.has_document(name):
                shard.delete(name)

    def _members(self, shard: Optional[int] = None) -> Members:
        """The shard front-ends in id order (or the one ``shard`` names);
        each holds its own gate for a maintenance pass."""
        ids = sorted(self._shards) if shard is None else [shard]
        return Members((shard_id, self._shards[shard_id]) for shard_id in ids)

    # ------------------------------------------------------------------
    # Failures and repair (per shard: one disaster never blocks the rest)
    # ------------------------------------------------------------------
    def fail_locations(
        self, location_ids: Iterable[int], shard: Optional[int] = None
    ) -> None:
        """Fail the same location ids on every shard, or on one (``shard=``)
        while the other shards keep serving."""
        self._each("fail_locations", shard, list(location_ids))

    def restore_locations(
        self, location_ids: Optional[Iterable[int]] = None, shard: Optional[int] = None
    ) -> None:
        ids = None if location_ids is None else list(location_ids)
        self._each("restore_locations", shard, ids)

    def repair(
        self, policy: MaintenancePolicy = MaintenancePolicy.FULL, shard: Optional[int] = None
    ) -> FederationRepairReport:
        """Repair one shard, or every shard independently, under ``policy``.

        A shard whose repair pass raises (an unrecoverable disaster, a
        placement dead-end) is recorded in ``errors`` and the remaining
        shards still run -- failure independence is the point of the
        federation.
        """
        return self._repair(policy, shard)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Scheme transitions (federation-wide, shard by shard)
    # ------------------------------------------------------------------
    def transition_to(self, scheme: str) -> Optional[FederationTransitionReport]:
        """Migrate every shard not yet settled on ``scheme``, one at a time,
        then bind the federation to it; returns the moved shards' reports
        summed, ``None`` when no shard moved.

        Each shard's own durable plan is the only record of the switch, so a
        crash at any point -- between shards or inside one -- leaves shards
        on two schemes, and :meth:`open` finishes with this same call; so
        does a retry after a shard's run raised.
        Because shards transition independently (each behind its own
        maintenance gate), reads keep flowing federation-wide throughout; at
        most one shard's mutations are quiesced at a time.
        """
        self._ensure_open()
        target = str(scheme).strip().lower()
        # Resolve once up front: an unknown or malformed id must fail
        # before any shard moves.
        schemes_registry.get(target, block_size=self.block_size)
        with self._lock:
            reports = {
                shard_id: shard.transition_to(target)
                for shard_id, shard in self._members().items()
                if shard.service.scheme.scheme_id != target
                or shard.service.transition is not None
            }
            if target != self._shard_config.scheme:
                self._shard_config = replace(self._shard_config, scheme=target)
                self._write_federation()
        return merged(FederationTransitionReport, reports) if reports else None

    # ------------------------------------------------------------------
    # Membership and rebalancing
    # ------------------------------------------------------------------
    def _misplaced(self) -> List[Tuple[str, int, int]]:
        """``(name, holder, owner)`` for documents the ring maps elsewhere."""
        ring = self._ring
        moves: List[Tuple[str, int, int]] = []
        for shard_id, shard in self._shards.items():
            for name in shard.documents:
                owner = ring.shard_for(name)
                if owner != shard_id:
                    moves.append((name, shard_id, owner))
        return moves

    def _move_document(self, name: str, source: int, target: int) -> int:
        """Move one document shard-to-shard; returns the bytes copied.

        The target's document mover copies it in under the target's write
        route and the source's *read* route (readers there keep going), and
        its WAL commits the copy *before* the source's commits the delete.
        A crash in between leaves both copies; :meth:`_locate` prefers the
        ring owner (the target), and this same call again skips the copy and
        deletes the stale one."""
        source_shard = self._shards[source]
        target_shard = self._shards[target]
        moved = 0
        if not target_shard.has_document(name):
            if not source_shard.has_document(name):
                return 0  # deleted concurrently
            with target_shard._route(name, True) as into, source_shard._route(name, False) as out:
                moved = into._move_in([name], out)[0][0].length
        if source_shard.has_document(name):
            source_shard.delete(name)
        return moved

    def rebalance(self, reason: str = "resume", shard: Optional[int] = None) -> RebalanceReport:
        """Re-home every document the current ring maps to another shard.

        Normally invoked through :meth:`add_shard` / :meth:`remove_shard`;
        calling it directly finishes a rebalance a crash interrupted (a
        durable reopen does this automatically).  Only misplaced documents
        are touched -- by the ring's minimal-movement property that is the
        ring delta, about ``1/(M+1)`` of the namespace on a join.
        """
        self._ensure_open()
        with self._lock:
            moves = self._misplaced()
            total = len(self.documents)
            report = RebalanceReport(reason=reason, shard=shard, total_documents=total)
            for name, holder, owner in moves:
                report.bytes_moved += self._move_document(name, holder, owner)
                report.moves[name] = (holder, owner)
            return report

    def add_shard(self) -> RebalanceReport:
        """Join a fresh shard and move exactly the ring-delta documents to it.

        The membership change is durable *before* any data moves (a crash
        mid-move resumes on reopen), and reads stay byte-exact throughout:
        documents not yet moved are still served from their old shard via
        the catalogue-scan fallback.
        """
        self._ensure_open()
        with self._lock:
            shard_id = max(self._shards) + 1
            self._shards[shard_id] = ConcurrentStorageService.open(
                replace(self._shard_config, data_dir=self._shard_root(self._data_dir, shard_id)),
                workers=self._workers,
                queue_depth=self._queue_depth,
            )
            self._ring = self._ring.with_shard(shard_id)
            self._write_federation()
            return self.rebalance(reason="join", shard=shard_id)

    def remove_shard(self, shard_id: int) -> RebalanceReport:
        """Drain a shard onto the survivors, then drop it from the federation.

        The leaving shard stays in the federation manifest (flagged
        ``leaving``) until its last document has moved, so a crash mid-drain
        reopens with the shard still reachable and resumes.  Exactly the
        departing shard's documents move; every other document keeps its
        placement (the ring's minimal-movement property).
        """
        self._ensure_open()
        with self._lock:
            if shard_id not in self._shards:
                raise InvalidParametersError(f"no shard {shard_id} in this federation")
            if len(self._ring.shard_ids) == 1:
                raise InvalidParametersError("cannot remove the last shard")
            self._ring = self._ring.without_shard(shard_id)
            self._leaving.add(shard_id)
            self._write_federation()
            report = self.rebalance(reason="leave", shard=shard_id)
            self._complete_removal(shard_id)
            return report

    def _complete_removal(self, shard_id: int) -> None:
        """Drop a fully-drained leaving shard from the federation."""
        with self._lock:
            shard = self._shards.get(shard_id)
            if shard is None:
                self._leaving.discard(shard_id)
                return
            if shard.documents:
                raise InvalidParametersError(
                    f"shard {shard_id} still holds documents; rebalance first"
                )
            del self._shards[shard_id]
            self._leaving.discard(shard_id)
            self._write_federation()
            shard.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedStorageService(shards={list(self._ring.shard_ids)}, "
            f"scheme={self.scheme.scheme_id!r}, workers={self._workers}, "
            f"vnodes={self._ring.vnodes})"
        )
