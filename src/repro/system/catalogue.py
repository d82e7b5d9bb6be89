"""A storage service's durable truth: its catalogue.

A :class:`Catalogue` owns what the blocks alone cannot say -- the documents,
the transition plan and its fallback scheme, the parameter epochs of Sec.
III-B and the mutation sequence -- and the files that hold it:
``manifest.json`` (the checkpoint) and ``wal.log`` (the records since).  The
:class:`~repro.system.service.StorageService` keeps the verbs, the scheme,
block movement and the state lock.  Formats and the crash table:
``docs/persistence.md``.

This module is on the repro-lint RPR001 engine path: no wall-clock, no
entropy -- a replay restores the same catalogue every time.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import repro.schemes as schemes
from repro.core.blocks import DataId
from repro.core.dynamic import EpochHistory, ParameterEpoch
from repro.core.parameters import AEParameters
from repro.exceptions import InvalidParametersError, UnknownBlockError
from repro.schemes.base import RedundancyScheme
from repro.schemes.stripe import StripeBlockId
from repro.storage.backends import decode_block_id, encode_block_id, read_json, write_json
from repro.storage.wal import WAL_NAME, MetadataWAL, WalGroup
from repro.system.transitions import TransitionPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service imports us)
    from repro.system.service import StorageService

#: Name of the service manifest inside a durable ``data_dir``.
MANIFEST_NAME = "manifest.json"

#: Manifest format version (bumped on incompatible layout changes).
MANIFEST_FORMAT = 1

#: WAL size (bytes) past which a commit triggers a checkpoint that
#: collapses the log back into ``manifest.json``.
WAL_CHECKPOINT_BYTES = 1 << 20

#: The manifest settings the header record of every WAL epoch repeats.
BINDING_FIELDS = ("scheme", "block_size", "backend", "location_count", "seed", "custom_placement")

#: One WAL record: a JSON object with an ``"op"``.
Record = Dict[str, object]

#: A version a landing replaced: the scheme that encoded it and its data ids.
Version = Tuple[RedundancyScheme, List[object]]


def _successor(block_id: object) -> Optional[object]:
    """The id after ``block_id`` in an id run, ``None`` if no run holds it."""
    if isinstance(block_id, DataId):
        return DataId(block_id.index + 1)
    if isinstance(block_id, StripeBlockId):
        return StripeBlockId(block_id.stripe, block_id.position + 1)
    return None


@dataclass
class StoredDocument:
    """Metadata of one document stored in the system."""

    name: str
    data_ids: List[object]
    length: int

    @property
    def block_count(self) -> int:
        return len(self.data_ids)

    def entry(self) -> Dict[str, object]:
        """The catalogue entry of this document: a manifest ``documents``
        value, and a ``put_doc`` record with its ``op`` and ``name``.

        Data ids are consecutive within a document (``d-5, d-6, ...`` for AE;
        ``s[3,0], s[3,1], ...`` within a stripe), so the entry stores
        ``["d-5", 120]`` (120 ids starting at ``d-5``) instead of 120 strings
        -- the manifest stays O(documents + stripes), not O(blocks).
        """
        runs: List[List[object]] = []
        expected: Optional[object] = None
        for block_id in self.data_ids:
            if block_id == expected:
                runs[-1][1] += 1  # type: ignore[operator]
            else:
                runs.append([block_id, 1])
            expected = _successor(block_id)
        keys = [(encode_block_id(start), count) for start, count in runs]
        return {"data_ids": [k if c == 1 else [k, c] for k, c in keys], "length": self.length}


def _read_document(name: str, entry: object, block_size: int, path: str) -> StoredDocument:
    """One catalogue entry of ``path`` (the manifest or the WAL), checked: a
    run is a key or a ``[key, count >= 1]`` pair, and ``length`` an integer
    >= 0 whose ``ceil(length / block_size)`` blocks the runs list exactly.
    A rotten entry would reopen serving the wrong bytes, so it is refused."""

    def corrupt(problem: str) -> InvalidParametersError:
        return InvalidParametersError(
            f"corrupt catalogue entry {name!r} in {path!r}: {problem}; the data "
            "it describes is still on disk -- restore the file from a backup"
        )

    fields = entry if isinstance(entry, dict) else {}
    runs, length = fields.get("data_ids"), fields.get("length")
    if not isinstance(runs, list):
        raise corrupt(f"data_ids {runs!r} is not a list")
    if type(length) is not int or length < 0:
        raise corrupt(f"length {length!r} is not an integer >= 0")
    data_ids: List[object] = []
    for run in runs:
        if isinstance(run, str):
            key, count = run, None
        elif (isinstance(run, list) and len(run) == 2 and isinstance(run[0], str)
              and type(run[1]) is int and run[1] >= 1):
            key, count = run
        else:
            raise corrupt(f"id run {run!r} is neither a key nor a [key, count >= 1] pair")
        try:
            start = decode_block_id(key)
        except InvalidParametersError as exc:
            raise corrupt(str(exc)) from None
        if count is None:
            data_ids.append(start)
        elif isinstance(start, DataId):
            data_ids.extend(DataId(start.index + i) for i in range(count))
        elif isinstance(start, StripeBlockId):
            data_ids.extend(StripeBlockId(start.stripe, start.position + i) for i in range(count))
        else:
            raise corrupt(f"an id run may not start at {key!r}")
    if len(data_ids) != -(-length // block_size):
        raise corrupt(f"{len(data_ids)} block ids for {length} bytes of {block_size}-byte blocks")
    return StoredDocument(name=name, data_ids=data_ids, length=length)


def load_manifest(data_dir: Optional[str]) -> Optional[Dict[str, object]]:
    """The manifest of the service rooted at ``data_dir``, ``None`` when
    there is none (or no ``data_dir``)."""
    if data_dir is None:
        return None
    legacy_plan = os.path.join(data_dir, "transition.json")
    if os.path.exists(legacy_plan):
        raise InvalidParametersError(
            f"{legacy_plan!r} is the transition plan of an older version "
            "(plans now live in the manifest); finish the transition with "
            "the version that started it before reopening"
        )
    return read_json(os.path.join(data_dir, MANIFEST_NAME), "service manifest", MANIFEST_FORMAT)


def check_binding(
    record: Dict[str, object], scheme: RedundancyScheme, backend: str,
    plan: Optional[TransitionPlan], path: str,
) -> None:
    """Refuse ``record`` -- a manifest or the header of a WAL epoch -- unless
    it binds ``path`` to this service: ``scheme`` or, mid-transition, either
    end of ``plan``, the scheme's block size and ``backend``.  A block size
    or backend the record does not name binds nothing."""
    stored, stored_backend = record.get("scheme"), record.get("backend", backend)
    block_size = int(record.get("block_size", scheme.block_size))  # type: ignore[arg-type]
    allowed = {scheme.scheme_id, *((plan.source, plan.target) if plan is not None else ())}
    if stored not in allowed or block_size != scheme.block_size or stored_backend != backend:
        raise InvalidParametersError(
            f"{path!r} holds a {stored!r} service (block size {block_size}, "
            f"backend {stored_backend!r}), not this {scheme.scheme_id!r} one "
            f"(block size {scheme.block_size}, backend {backend!r})"
        )


def _epochs_of(scheme: RedundancyScheme) -> Optional[EpochHistory]:
    """A fresh epoch history for an AE scheme, ``None`` for the others."""
    params = getattr(scheme, "params", None)
    return EpochHistory.starting_with(params) if isinstance(params, AEParameters) else None


class Catalogue:
    """The documents, the plan, the epochs and the files that hold them.

    ``documents`` maps each name to its :class:`StoredDocument`: read it
    under the service's state lock, change it through :meth:`land` and
    :meth:`drop`.  Those run under that lock and hand out the change's WAL
    records, which the caller makes durable with one :meth:`commit` once it
    has left the lock.  A reopen is :meth:`open`, and :meth:`checkpoint`
    collapses the log into the manifest.  A volatile catalogue (no
    ``data_dir``) hands out no records and has no files.
    """

    def __init__(
        self,
        service: "StorageService",
        lock: threading.RLock,
        data_dir: Optional[str] = None,
        fsync: bool = False,
        seed: int = 0,
        custom_placement: bool = False,
        placement_spec: Optional[str] = None,
    ) -> None:
        self._service = service
        self._lock = lock
        self._data_dir = data_dir
        self._fsync = fsync
        self._seed = seed
        self._custom_placement = custom_placement
        self._placement_spec = placement_spec
        self.documents: Dict[str, StoredDocument] = {}
        # While a transition is in flight, ``_plan.pending`` names the
        # documents still encoded under ``_fallback`` (a re-encode's retained
        # source); everything else reads through the service's scheme.
        self._plan: Optional[TransitionPlan] = None
        self._fallback: Optional[RedundancyScheme] = None
        # Every live alpha raise appends an epoch, so tooling can answer
        # "which parameters protect block i" across an AE lattice's history.
        self._epochs = _epochs_of(service.scheme)
        self._seq = 0
        # Records handed out and not yet committed; a checkpoint waits for 0.
        self._uncommitted = 0
        self._committed = threading.Condition()
        self._wal: Optional[MetadataWAL] = None
        if data_dir is not None:
            self._wal = MetadataWAL(os.path.join(data_dir, WAL_NAME), fsync)

    @property
    def data_dir(self) -> Optional[str]:
        return self._data_dir

    @property
    def plan(self) -> Optional[TransitionPlan]:
        return self._plan

    @property
    def fallback(self) -> Optional[RedundancyScheme]:
        return self._fallback

    @property
    def epochs(self) -> Optional[EpochHistory]:
        return self._epochs

    def document(self, name: str) -> StoredDocument:
        if name not in self.documents:
            raise UnknownBlockError(f"unknown document {name!r}")
        return self.documents[name]

    def scheme_for(self, name: str) -> RedundancyScheme:
        """The scheme that currently encodes document ``name``.

        Outside a transition this is always the service's.  During a cross-
        family migration, documents still in the plan's pending set are
        encoded under the retained source scheme -- the fallback read path
        that keeps every document byte-exact mid-transition.
        """
        plan = self._plan
        if plan is not None and self._fallback is not None and name in plan.pending:
            return self._fallback
        return self._service.scheme

    def land(self, documents: Sequence[StoredDocument]) -> Tuple[List[Version], List[Record]]:
        """Catalogue new versions of ``documents`` (under the state lock,
        after every encode of the landing).  Returns the versions they
        replaced, each with the scheme that encoded it, and the records to
        commit: a ``put_doc`` per document and one scheme-state snapshot,
        taken here so that it covers every catalogued document's blocks."""
        replaced: List[Version] = []
        for document in documents:
            previous = self.documents.get(document.name)
            if previous is not None:
                replaced.append((self.scheme_for(document.name), previous.data_ids))
            self.documents[document.name] = document
            if self._plan is not None:
                # The new version is target-encoded: whatever migration the
                # name was owed is done.
                self._plan.pending.discard(document.name)
        if self._wal is None:
            return replaced, []
        seq = self._next_seq()
        records: List[Record] = [
            {"op": "put_doc", "name": document.name, **document.entry()} for document in documents
        ]
        records.append({"op": "scheme_state", "state": self._service.scheme.state(), "seq": seq})
        return replaced, self._hand_out(records)

    def drop(self, name: str) -> Tuple[StoredDocument, RedundancyScheme, List[Record]]:
        """Uncatalogue ``name`` (under the state lock): its document, the
        scheme that encoded it and the ``delete_doc`` record to commit."""
        document = self.document(name)
        scheme = self.scheme_for(name)
        del self.documents[name]
        if self._plan is not None:
            self._plan.pending.discard(name)
        seq = self._next_seq()
        return document, scheme, self._hand_out([{"op": "delete_doc", "name": name, "seq": seq}])

    def relocated(self, count: int) -> List[Record]:
        """The informational record of a repair that moved ``count`` blocks:
        a durability point (the directory itself is rebuilt from backend
        scans on reopen, so replay ignores its content)."""
        return self._hand_out([{"op": "placement", "relocated": count}])

    def begin(self, plan: TransitionPlan, fallback: Optional[RedundancyScheme] = None) -> None:
        """Take up ``plan`` (under the state lock).  A re-encode passes its
        retained source, once the service is on the target, which starts a
        fresh epoch ledger."""
        self._plan, self._fallback = plan, fallback
        if fallback is not None:
            self._epochs = _epochs_of(self._service.scheme)

    def settle(self) -> None:
        """Drop the plan and the fallback: the transition is done, and the
        next checkpoint commits its last step."""
        with self._lock:
            self._plan = self._fallback = None

    def record_epoch(self, params: AEParameters) -> None:
        """Append a parameter epoch at the lattice head (under the state
        lock); a setting that never encoded a block there hands its slot over."""
        if self._epochs is None:
            self._epochs = EpochHistory.starting_with(params)
            return
        position = self._service.scheme.entangler.blocks_encoded + 1  # type: ignore[attr-defined]
        epochs = self._epochs.epochs
        if epochs and epochs[-1].first_index >= position:
            epochs[-1] = ParameterEpoch(epochs[-1].first_index, params)
        else:
            self._epochs.change(position, params)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _hand_out(self, records: List[Record]) -> List[Record]:
        if self._wal is None:
            return []
        with self._committed:
            self._uncommitted += 1
        return records

    def commit(self, records: List[Record]) -> None:
        """Durably record handed-out ``records``: one WAL group, then a
        checkpoint once the log is long enough.  Call it outside the state
        lock, where concurrent mutators share one group commit."""
        wal = self._wal
        if wal is None or not records:
            return
        try:
            if wal.size_bytes == 0:
                # Open the fresh epoch with the binding header; a duplicate
                # from a racing mutator is harmless (replay checks it twice).
                records = [self._binding()] + records
            wal.commit(records)
        finally:
            with self._committed:
                self._uncommitted -= 1
                self._committed.notify_all()
        if wal.size_bytes >= WAL_CHECKPOINT_BYTES:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Collapse the WAL into ``manifest.json`` and reset the log.

        Runs under the state lock, so no record is handed out meanwhile,
        and first waits until every record handed out before it is in the
        log: the reset drops only records the manifest absorbed.  (A record
        committed after the reset would replay its older scheme state over
        the manifest's newer one.)
        """
        if self._wal is None:
            return
        with self._lock:
            with self._committed:
                while self._uncommitted:
                    self._committed.wait()
            os.makedirs(str(self._data_dir), exist_ok=True)
            path = os.path.join(str(self._data_dir), MANIFEST_NAME)
            write_json(path, self._manifest(), fsync=self._fsync)
            self._wal.reset()

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()

    def _settings(self) -> Dict[str, object]:
        """The manifest's fields that say how the service is built."""
        scheme, cluster = self._service.scheme, self._service.cluster
        settings: Dict[str, object] = {
            "format": MANIFEST_FORMAT,
            "scheme": scheme.scheme_id,
            "block_size": scheme.block_size,
            "location_count": cluster.location_count,
            "backend": cluster.backend_spec,
            "seed": self._seed,
            "custom_placement": self._custom_placement,
        }
        if not cluster.topology.is_flat():
            settings["topology"] = cluster.topology.to_dict()
        if self._placement_spec is not None:
            settings["placement_spec"] = self._placement_spec
        if self._epochs is not None:
            settings["epochs"] = self._epochs.rows()
        return settings

    def _manifest(self) -> Dict[str, object]:
        manifest = self._settings()
        manifest["scheme_state"] = self._service.scheme.state()
        manifest["documents"] = {name: doc.entry() for name, doc in self.documents.items()}
        if self._plan is not None:
            manifest["transition"] = self._plan.to_dict()
        return manifest

    def _binding(self) -> Record:
        """The header record opening every fresh WAL epoch."""
        settings = self._settings()
        return {"op": "placement", **{key: settings[key] for key in BINDING_FIELDS}}

    def open(self, manifest: Optional[Dict[str, object]]) -> None:
        """Restore the catalogue and the scheme's write position from
        ``manifest`` (the caller ran :func:`check_binding`) plus the WAL
        tail it has not absorbed yet.

        A replayed tail, a missing manifest or settings the manifest does
        not record yet go into a fresh checkpoint, so the next crash window
        -- and a resumed transition's first record -- starts from an empty
        log bound to the scheme that owns it; a clean reopen rewrites
        nothing.
        """
        service = self._service
        groups = self._wal.recovered_groups() if self._wal is not None else []
        state: Optional[Dict[str, object]] = None
        if manifest is not None:
            path = os.path.join(str(self._data_dir), MANIFEST_NAME)
            if "transition" in manifest:
                self._plan = TransitionPlan.from_dict(manifest["transition"])  # type: ignore[arg-type]
            for name, entry in manifest.get("documents", {}).items():  # type: ignore[attr-defined]
                self.documents[name] = _read_document(name, entry, service.block_size, path)
            state = manifest.get("scheme_state", {})  # type: ignore[assignment]
            rows = manifest.get("epochs")
            if rows is not None and self._epochs is not None:
                self._epochs = EpochHistory.from_rows(rows)  # type: ignore[arg-type]
        if groups:
            state = self._replay(groups, state)
        if state is not None:
            service.scheme.restore_state(state, service.cluster)
        plan = self._plan
        if plan is not None and plan.pending:
            # Mid-migration: rebuild the source scheme from its frozen state
            # so pending documents keep their read path.
            fallback = schemes.get(plan.source, block_size=service.block_size)
            fallback.restore_state(dict(plan.source_state), service.cluster)
            self._fallback = fallback
        if self._data_dir is not None and (
            manifest is None
            or groups
            or any(manifest.get(key) != value for key, value in self._settings().items())
        ):
            self.checkpoint()

    def _replay(
        self, groups: List[WalGroup], state: Optional[Dict[str, object]]
    ) -> Optional[Dict[str, object]]:
        """Apply the committed WAL tail over the manifest; returns the
        scheme state to restore.  Replay is idempotent (``put_doc``
        overwrites, ``delete_doc`` pops if present, the newest
        ``scheme_state`` wins), and the log holds only records newer than
        the manifest (see :meth:`checkpoint`)."""
        scheme = self._service.scheme
        wal_path = self._wal.path  # type: ignore[union-attr]
        backend = self._service.cluster.backend_spec
        state_seq = -1
        pending = self._plan.pending if self._plan is not None else set()
        # Whether the current WAL epoch was written under the service's
        # scheme.  Normally always; the tail a transition's own checkpoint
        # has not reset yet is bound to the other side of the switch: its
        # documents still owe their migration and its scheme-state snapshots
        # must not be restored into the primary scheme.
        ours = True
        for group in groups:
            for op in group.ops:
                kind = op.get("op")
                if kind == "put_doc":
                    name = str(op["name"])
                    self.documents[name] = _read_document(name, op, scheme.block_size, wal_path)
                    if ours:
                        pending.discard(name)
                elif kind == "delete_doc":
                    self.documents.pop(str(op["name"]), None)
                    if ours:
                        pending.discard(str(op["name"]))
                elif kind == "scheme_state":
                    seq = int(op.get("seq", 0))  # type: ignore[arg-type]
                    if ours and seq >= state_seq:
                        state = op.get("state", {})  # type: ignore[assignment]
                        state_seq = seq
                elif kind == "placement":
                    if "scheme" in op:  # an epoch header, not a repair's record
                        check_binding(op, scheme, backend, self._plan, wal_path)
                        ours = op["scheme"] == scheme.scheme_id
                else:
                    raise InvalidParametersError(
                        f"unknown WAL record type {kind!r} in "
                        f"{self._data_dir!r}; the log was written by an "
                        "incompatible version or corrupted"
                    )
        return state
