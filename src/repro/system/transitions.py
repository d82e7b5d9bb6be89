"""Live redundancy-scheme transitions for a running storage service.

The paper's headline flexibility (Sec. I and III-B) is that redundancy can
*evolve in place*: alpha can be raised without touching stored data,
parities can be punctured for intermediate code rates, and an archive can
outgrow one code family into another.  This module makes that operational
for the live system: a :class:`TransitionEngine` migrates an open
:class:`~repro.system.service.StorageService` between any two registered
schemes while reads keep flowing, and a durable :class:`TransitionPlan`
(the ``"transition"`` section of the service manifest, written in the same
atomic rename as the scheme it goes with) makes every step crash-resumable.

Three transition kinds, picked by :func:`classify`:

``alpha-raise``
    AE -> AE with the same ``(s, p)`` geometry and a higher ``alpha``.
    The engine encodes the stored data blocks once more, ``batch_blocks``
    at a time, with a fresh target scheme and writes only the parities the
    cluster does not hold -- the new strand class, or what an interrupted
    run did not reach; **zero data blocks are rewritten**.  That encoder
    then is the service's scheme, and the change is recorded in the
    service's :class:`~repro.core.dynamic.EpochHistory`.

``repuncture``
    AE -> AE with identical parameters but a different puncturing rate
    (including plain <-> punctured).  Parities the target stores but the
    source dropped are regenerated through the source's ``repair`` and
    written *before* the scheme flips; parities the target punctures are deleted
    only *after* the flip is durable -- the copy-commit-before-delete
    ordering of the shard rebalancer, applied to parities.

``reencode``
    Everything else (replication -> AE, AE -> Reed-Solomon, RS -> LRC,
    ...).  Each pending document is overwritten with its own bytes: moved
    from the service into itself by the document mover, a batch of whole
    documents (at most ``batch_blocks`` data blocks) at a time.  A batch is
    read in one pass under the old scheme, each document encoded on its own
    under the new one, and the batch is written in one bulk write,
    committed to the metadata WAL as one group and only then are the old
    blocks deleted, in one batch.  A longer document is a batch of its own
    and streams through in whole-stripe chunks.  Reads of
    not-yet-migrated documents fall back to the retained source scheme, so
    every document is byte-exact at every instant.  AE -> AE geometry
    changes are rejected: both settings share the ``d-<n>`` block
    namespace, so a live re-encode cannot keep both generations readable.

This module is on the repro-lint RPR001 engine path: no wall-clock, no
entropy -- a resumed transition replays to the same result.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ContextManager, Dict, Iterator, List, Optional, Sequence, Set

import numpy as np

import repro.schemes as schemes
from repro.codes.entanglement import EntanglementScheme, PuncturedEntanglementScheme
from repro.core.blocks import DataId, ParityId
from repro.core.puncturing import masked_parities
from repro.exceptions import InvalidParametersError, RepairFailedError
from repro.schemes.base import RedundancyScheme
from repro.schemes.stripe import StripeScheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service imports us)
    from repro.system.service import StorageService

__all__ = [
    "KIND_ALPHA_RAISE",
    "KIND_REENCODE",
    "KIND_REPUNCTURE",
    "TransitionEngine",
    "TransitionPlan",
    "TransitionReport",
    "classify",
]

KIND_ALPHA_RAISE = "alpha-raise"
KIND_REPUNCTURE = "repuncture"
KIND_REENCODE = "reencode"

#: Guards one batch of documents against concurrent readers while it
#: migrates (the front-end write-locks the batch's stripes; a bare service
#: needs none).
DocumentGuard = Callable[[Sequence[str]], ContextManager[object]]


def classify(source: RedundancyScheme, target: RedundancyScheme) -> str:
    """The transition kind between two schemes, or raise if unsupported.

    AE -> AE pairs must either share all parameters (a ``repuncture``) or
    differ *only* by a higher target alpha with neither side punctured (an
    ``alpha-raise``); anything else -- geometry changes, alpha lowering,
    raising a punctured lattice -- is rejected with the supported path
    spelled out.  Every cross-family pair is a ``reencode``.
    """
    source_ae = isinstance(source, EntanglementScheme)
    target_ae = isinstance(target, EntanglementScheme)
    if not (source_ae and target_ae):
        return KIND_REENCODE
    if source.params == target.params:
        return KIND_REPUNCTURE
    source_plain = not isinstance(source, PuncturedEntanglementScheme)
    target_plain = not isinstance(target, PuncturedEntanglementScheme)
    same_geometry = (
        not source.params.is_single
        and not target.params.is_single
        and source.params.s == target.params.s
        and source.params.p == target.params.p
    )
    if same_geometry and source_plain and target_plain:
        # Every raise adds a strand class: AEParameters stops at alpha=3.
        if target.params.alpha > source.params.alpha:
            return KIND_ALPHA_RAISE
        raise InvalidParametersError(
            f"cannot lower alpha live ({source.scheme_id} -> "
            f"{target.scheme_id}); puncture instead "
            f"({source.scheme_id}-p<keep%> trades parities for rate without "
            "rewiring the lattice)"
        )
    if same_geometry and target.params.alpha > source.params.alpha:
        raise InvalidParametersError(
            f"cannot raise alpha on a punctured lattice ({source.scheme_id} "
            f"-> {target.scheme_id}); transition to the unpunctured setting "
            "first, then raise alpha"
        )
    raise InvalidParametersError(
        f"cannot re-wire AE geometry live ({source.scheme_id} -> "
        f"{target.scheme_id}): both settings share the d-<n> block "
        "namespace, so a live re-encode cannot keep the old generation "
        "readable; supported AE transitions are alpha raises and puncturing "
        "changes"
    )


@dataclass
class TransitionPlan:
    """The durable state machine of one scheme transition.

    Persisted as the ``"transition"`` section of the manifest checkpoint, in
    the same atomic rename as the scheme it goes with; together with the
    metadata WAL it makes the transition resumable from any crash point.
    ``pending`` is the set of documents still encoded under the source
    scheme (reads of those fall back to the source); every ``put_doc``
    record the WAL commits under the target shrinks it between checkpoints.
    ``source_state`` is the source scheme's state frozen at the start, so a
    reopen can rebuild the fallback read path.
    """

    source: str
    target: str
    kind: str
    pending: Set[str] = field(default_factory=set)
    source_state: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "target": self.target,
            "kind": self.kind,
            "pending": sorted(self.pending),
            "source_state": self.source_state,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "TransitionPlan":
        return cls(
            source=str(raw["source"]),
            target=str(raw["target"]),
            kind=str(raw["kind"]),
            pending=set(str(name) for name in raw.get("pending", [])),  # type: ignore[union-attr]
            source_state=dict(raw.get("source_state", {})),  # type: ignore[arg-type]
        )


@dataclass
class TransitionReport:
    """Outcome of one completed transition (or resumed remainder)."""

    source: str
    target: str
    kind: str
    documents_migrated: int = 0
    blocks_written: int = 0
    blocks_deleted: int = 0
    parities_written: int = 0
    data_blocks_rewritten: int = 0
    resumed: bool = False

    def summary(self) -> str:
        text = (
            f"[{self.kind}] {self.source} -> {self.target}: "
            f"{self.documents_migrated} documents migrated, "
            f"{self.blocks_written} blocks written "
            f"({self.data_blocks_rewritten} data), "
            f"{self.blocks_deleted} deleted"
        )
        if self.resumed:
            text += " (resumed)"
        return text


class TransitionEngine:
    """Drives one scheme transition over a live storage service.

    The engine orchestrates; a batch of re-encoded documents moves through
    :meth:`StorageService._move_in`, the routine a shard rebalance moves
    documents with, which lands it through the one routine every put goes
    through -- so it shares the service's lock and WAL discipline.
    ``doc_guard`` (when the front-end supplies one) excludes readers of
    the batch being migrated -- the front-end locks its names' stripes --
    for the whole of its read-copy-commit-delete window; all other reads
    proceed untouched.
    """

    def __init__(
        self,
        service: "StorageService",
        target: RedundancyScheme,
        doc_guard: Optional[DocumentGuard] = None,
    ) -> None:
        self._service = service
        self._target = target
        self._doc_guard: DocumentGuard = doc_guard or (lambda _names: nullcontext())

    def run(self) -> Optional[TransitionReport]:
        """Execute (or resume) the transition to completion.

        Returns ``None`` when the service is already on the target scheme
        and nothing was in flight.
        """
        service = self._service
        plan = service.transition
        resumed = plan is not None
        if plan is None:
            plan = self._start()
            if plan is None:
                return None
        report = TransitionReport(
            source=plan.source, target=plan.target, kind=plan.kind, resumed=resumed
        )
        if plan.kind == KIND_ALPHA_RAISE:
            self._run_alpha_raise(plan, report)
        elif plan.kind == KIND_REPUNCTURE:
            self._run_repuncture(plan, report)
        elif plan.kind == KIND_REENCODE:
            self._run_reencode(plan, report)
        else:
            raise InvalidParametersError(
                f"unknown transition kind {plan.kind!r} in "
                f"{service.data_dir!r}; the manifest's transition section "
                "was written by an incompatible version"
            )
        # Settle: the checkpoint that drops the plan commits its last step.
        service.catalogue.settle()
        service.catalogue.checkpoint()
        return report

    # ------------------------------------------------------------------
    # Start: freeze the plan, make the intent durable
    # ------------------------------------------------------------------
    def _start(self) -> Optional[TransitionPlan]:
        service = self._service
        catalogue = service.catalogue
        target = self._target
        with service._state_lock:
            source = service.scheme
            if source.scheme_id == target.scheme_id:
                return None
            if source.block_size != target.block_size:
                raise InvalidParametersError(
                    f"cannot transition across block sizes "
                    f"({source.block_size} -> {target.block_size}); blocks "
                    "would need re-chunking, which changes every document's "
                    "block ids"
                )
            kind = classify(source, target)
            plan = TransitionPlan(
                source=source.scheme_id,
                target=target.scheme_id,
                kind=kind,
                source_state=dict(source.state()),
            )
            if kind == KIND_REENCODE:
                plan.pending = set(catalogue.documents)
                if isinstance(source, StripeScheme) and isinstance(
                    target, StripeScheme
                ):
                    # Both families use StripeBlockId: the target starts
                    # numbering past the source so the namespaces stay
                    # disjoint until the old stripes are reclaimed.
                    target.restore_state(
                        {"next_stripe": source.stripes_written}, service.cluster
                    )
                # Flip now: new writes land on the target, reads of pending
                # documents fall back to the retained source instance.
                service._scheme = target
                catalogue.begin(plan, fallback=source)
            else:
                catalogue.begin(plan)
                if kind == KIND_REPUNCTURE and not self._regenerated(source).any():
                    # Nothing to regenerate: the flip needs no write before
                    # it, so the start checkpoint carries it with the plan
                    # (the deletion pass is still owed).
                    self._flip(source)
                # Otherwise the source keeps serving until the run's parity
                # walk completes; the flip is inside the run.
        # The start checkpoint makes the intent durable: scheme and plan go
        # out in one manifest rename, so no crash can separate them.
        catalogue.checkpoint()
        return plan

    # ------------------------------------------------------------------
    # alpha-raise: new strand-class parities only, zero data rewritten
    # ------------------------------------------------------------------
    def _run_alpha_raise(self, plan: TransitionPlan, report: TransitionReport) -> None:
        service = self._service
        with service._state_lock:
            source = service.scheme
            assert isinstance(source, EntanglementScheme)
            raised = EntanglementScheme(
                self._target.params,  # type: ignore[attr-defined]
                block_size=source.block_size,
                scheme_id=plan.target,
            )
            cluster = service.cluster
            ids = [DataId(index) for index in range(1, source.entangler.blocks_encoded + 1)]
            step = service.batch_blocks
            for start in range(0, len(ids), step):
                # Strand wiring depends on (s, p) alone, so the source's
                # classes come out bit-identical and are already stored; what
                # the cluster lacks is the new class, or what an interrupted
                # run did not reach.  Lost data blocks are rebuilt through the
                # source in the read's one repair pass and not written back.
                payloads = service._read_payloads(ids[start : start + step], scheme=source)
                fresh = [
                    (block_id, payload)
                    for block_id, payload in raised.encode(payloads).blocks
                    if isinstance(block_id, ParityId) and not cluster.knows(block_id)
                ]
                cluster.put_many(fresh)
                report.parities_written += len(fresh)
            report.blocks_written += report.parities_written
            # The walk left the encoder where the source stopped, strand
            # heads of every class included: it is the scheme from here on.
            service._scheme = raised
            service.catalogue.record_epoch(raised.params)
            # Nothing is deleted after a raise, so the flip settles it: no
            # checkpoint may name the target with the raise still owed.
            service.catalogue.settle()

    # ------------------------------------------------------------------
    # repuncture: regenerate-then-flip-then-delete
    # ------------------------------------------------------------------
    def _regenerated(self, source: RedundancyScheme) -> np.ndarray:
        """The mask of the parities a repuncture regenerates: what the
        source punctured and the target does not.  A plain source stored
        everything, and a target at a lower keep fraction punctures a
        superset of the source's (the policy is monotone in it)."""
        if not isinstance(source, PuncturedEntanglementScheme):
            return np.zeros((0, 0), dtype=bool)
        dropped = source.punctured_code.mask(source.entangler.blocks_encoded)
        if isinstance(self._target, PuncturedEntanglementScheme):
            dropped &= ~self._target.punctured_code.mask(len(dropped))
        return dropped

    def _flip(self, source: RedundancyScheme) -> None:
        """Make the target the service's scheme (under the state lock): it
        re-reads the strand heads, regenerating any the new rate punctures."""
        self._target.restore_state(source.state(), self._service.cluster)
        self._service._scheme = self._target

    def _run_repuncture(self, plan: TransitionPlan, report: TransitionReport) -> None:
        service = self._service
        if service.scheme.scheme_id != plan.target:
            # Additions pass: parities the target keeps but the source never
            # stored are regenerated through the source's repair and written
            # first, a bounded batch at a time in lattice order -- what one
            # batch stored is an input the next one finds available.
            with service._state_lock:
                source = service.scheme
                assert isinstance(source, EntanglementScheme)
                cluster = service.cluster
                # A resume skips what is there.
                wanted = [
                    parity
                    for parity in masked_parities(
                        self._regenerated(source), source.params.strand_classes
                    )
                    if not cluster.knows(parity)
                ]
                step = service.batch_blocks
                for start in range(0, len(wanted), step):
                    batch = wanted[start : start + step]
                    outcome = source.repair(set(batch), cluster)
                    if outcome.unrecovered:
                        raise RepairFailedError(
                            outcome.unrecovered[0], "no available recovery path"
                        )
                    cluster.put_many(
                        (parity, outcome.recovered[parity]) for parity in batch
                    )
                report.parities_written += len(wanted)
                report.blocks_written += report.parities_written
                self._flip(source)
            # The flip must be durable before any parity disappears.
            service.catalogue.checkpoint()
        # Deletion pass: parities the (now current) target punctures -- its
        # mask over the lattice.  The deterministic policy is monotone in the
        # keep fraction, so the target's punctured set covers everything any
        # source rate stored.
        with service._state_lock:
            current = service.scheme
            if isinstance(current, PuncturedEntanglementScheme):
                doomed = [
                    parity
                    for parity in current.punctured_parities()
                    if service.cluster.knows(parity)
                ]
                report.blocks_deleted += service.cluster.delete_blocks(doomed)

    # ------------------------------------------------------------------
    # reencode: stream documents through the new scheme
    # ------------------------------------------------------------------
    def _batches(self, names: List[str]) -> Iterator[List[str]]:
        """``names`` in order, cut into runs of whole documents holding at
        most ``batch_blocks`` data blocks; a longer document is a run of its
        own."""
        documents = self._service.documents
        limit = self._service.batch_blocks
        batch: List[str] = []
        blocks = 0
        for name in names:
            count = documents[name].block_count if name in documents else 0
            if batch and blocks + count > limit:
                yield batch
                batch, blocks = [], 0
            batch.append(name)
            blocks += count
        if batch:
            yield batch

    def _run_reencode(self, plan: TransitionPlan, report: TransitionReport) -> None:
        """Overwrite every pending document with its own bytes, a batch at a
        time: read under the retained source, land under the target."""
        service = self._service
        for batch in self._batches(sorted(plan.pending)):
            with self._doc_guard(batch):
                with service._state_lock:
                    # Skip what was deleted or overwritten since the plan was read.
                    names = [
                        name
                        for name in batch
                        if name in service.catalogue.documents and name in plan.pending
                    ]
                if not names:
                    continue
                landed, written, deleted = service._move_in(names, service)
            report.documents_migrated += len(landed)
            report.blocks_written += written
            report.blocks_deleted += deleted
            report.data_blocks_rewritten += sum(document.block_count for document in landed)
        # A non-erasable source (entanglement) reclaims nothing per
        # document; once every document lives on the target, the whole
        # retired lattice -- data and parities -- is deleted in one sweep.
        source_scheme = schemes.get(plan.source, block_size=service.block_size)
        if not source_scheme.capabilities().erasable:
            with service._state_lock:
                doomed = [
                    block_id
                    for block_id in service.cluster.block_ids()
                    if isinstance(block_id, (DataId, ParityId))
                ]
                report.blocks_deleted += service.cluster.delete_blocks(doomed)
