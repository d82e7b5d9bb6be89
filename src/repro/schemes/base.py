"""The scheme-agnostic redundancy protocol.

Every redundancy scheme the paper evaluates -- alpha entanglement codes and
the stripe-code baselines (Reed-Solomon, Azure/Xorbas LRC, flat XOR codes,
replication) -- is driven through one interface: :class:`RedundancyScheme`.
The protocol covers the four verbs a storage front-end needs
(:meth:`~RedundancyScheme.encode`, :meth:`~RedundancyScheme.repair`,
:meth:`~RedundancyScheme.scrub`, :meth:`~RedundancyScheme.document_blocks`)
-- ``repair(missing, source)``
over a :class:`BlockSource` is the whole read side: a degraded read, a
strand head on reopen and a parity a transition regenerates all come back
through it -- plus capability metadata (:class:`SchemeCapabilities`) that carries the
analytic Table IV quantities, so measured and closed-form costs can be printed
side by side.

Adapters:

* :class:`repro.codes.entanglement.EntanglementScheme` -- AE(alpha, s, p)
  over the helical lattice (wraps the batched encoder and the round repair);
* :class:`repro.schemes.stripe.StripeScheme` -- any
  :class:`repro.codes.base.StripeCode` subclass.

Instances are resolved from string identifiers through the registry in
:mod:`repro.schemes` (``repro.schemes.get("rs-10-4")``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Protocol, Sequence, Set, Tuple

from repro.core.xor import Payload, PayloadBatch, as_payload
from repro.exceptions import RepairFailedError

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.codes.base import CodeCosts
    from repro.storage.placement import PlacementPolicy
    from repro.storage.topology import Topology

class BlockSource(Protocol):
    """Where a scheme reads blocks from: the one shape of its read side.

    A :class:`~repro.storage.cluster.StorageCluster` is one; so is anything
    else with these two methods -- a payload dict behind a few lines, a
    network client, a cluster with one block masked.
    """

    def try_get_many(self, block_ids: Iterable[object]) -> Sequence[Optional[Payload]]:
        """Payloads in request order, ``None`` for blocks that cannot be read."""

    def is_available(self, block_id: object) -> bool:
        """Whether a fetch would succeed, without moving payload bytes."""


@dataclass(frozen=True)
class SchemeCapabilities:
    """Capability metadata of a redundancy scheme.

    ``storage_overhead`` is the additional storage as a fraction of the
    original data and ``single_failure_reads`` the number of surviving blocks
    read to repair one missing block -- together they are the scheme's
    analytic Table IV row (see :meth:`costs`).  ``streaming`` marks append-only
    schemes whose global state grows with every write (the AE lattice);
    ``erasable`` marks schemes whose blocks can be physically deleted without
    invalidating other documents' redundancy (stripe codes: yes, entanglement:
    no, the lattice is append-only).
    """

    scheme_id: str
    name: str
    kind: str
    storage_overhead: float
    single_failure_reads: int
    streaming: bool = False
    erasable: bool = True

    def costs(self) -> "CodeCosts":
        """The scheme's analytic Table IV row."""
        from repro.codes.base import CodeCosts

        return CodeCosts(
            name=self.name,
            additional_storage_percent=self.storage_overhead * 100.0,
            single_failure_cost=self.single_failure_reads,
        )


@dataclass
class EncodedPart:
    """Result of encoding one batch of data blocks.

    ``data_ids`` holds one identifier per input block, in input order -- these
    are the handles a document records.  ``blocks`` holds every block the
    batch produced (data, redundancy and, for stripe codes, zero padding) as
    ``(block_id, payload)`` pairs ready for a bulk cluster write.
    """

    data_ids: List[object] = field(default_factory=list)
    blocks: List[Tuple[object, Payload]] = field(default_factory=list)

    @property
    def block_count(self) -> int:
        return len(self.blocks)


@dataclass
class SchemeRepairOutcome:
    """Result of a scheme-level repair pass.

    ``recovered`` maps repaired block identifiers to their rebuilt payloads
    (the caller decides where to write them); ``blocks_read`` counts every
    payload the repair fetched, the measured counterpart of the analytic
    single-failure cost; ``rounds`` is the number of repair rounds used
    (> 1 only for entanglement after large disasters, Table VI).
    """

    recovered: Dict[object, Payload] = field(default_factory=dict)
    blocks_read: int = 0
    rounds: int = 0
    unrecovered: List[object] = field(default_factory=list)

    @property
    def repaired_count(self) -> int:
        return len(self.recovered)

    def restricted_to(self, wanted: Set[object]) -> "SchemeRepairOutcome":
        """This outcome with only ``wanted`` listed: what else the pass
        rebuilt was an intermediate -- read and counted, never handed on."""
        self.recovered = {
            block_id: payload
            for block_id, payload in self.recovered.items()
            if block_id in wanted
        }
        self.unrecovered = [
            block_id for block_id in self.unrecovered if block_id in wanted
        ]
        return self


@dataclass
class SchemeScrubOutcome:
    """Result of a scheme checking its stored blocks against each other.

    ``checked`` / ``unchecked`` count the checks run and the ones a block
    that cannot be read (unreachable, punctured, deleted) left out -- an
    unchecked check is never a violated one.  ``violated`` names the checks
    that failed: an entanglement equation by the parity it closes, a stripe
    by its number.  ``suspects`` are the blocks the failed checks single
    out; ``ambiguous`` the blocks they implicate no more than another block,
    which nothing may be rebuilt from or written over.
    """

    checked: int = 0
    unchecked: int = 0
    violated: List[object] = field(default_factory=list)
    suspects: List[object] = field(default_factory=list)
    ambiguous: List[object] = field(default_factory=list)


class RedundancyScheme(ABC):
    """Uniform encode / read / repair interface over one redundancy scheme.

    A scheme instance is bound to a block size and owns whatever per-stream
    state its code family needs (the strand heads of an entanglement encoder,
    the stripe counter of a stripe code).  It never talks to storage directly:
    reads go through the :class:`BlockSource` supplied by the caller, which
    keeps the scheme reusable against a cluster, a payload dict or a network
    client.  The read side is one verb, :meth:`repair`; :meth:`read_block`
    is that verb for one block.
    """

    def __init__(self, scheme_id: str, block_size: int) -> None:
        self._scheme_id = scheme_id
        self._block_size = block_size

    @property
    def scheme_id(self) -> str:
        """The registry identifier of this instance, e.g. ``"rs-10-4"``."""
        return self._scheme_id

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def stripe_data_blocks(self) -> int:
        """Data blocks per stripe: encoding a document in chunks of a
        multiple of this stores what one encode of it stores (1 unless the
        code pads a short final stripe)."""
        return 1

    @abstractmethod
    def capabilities(self) -> SchemeCapabilities:
        """Capability metadata, including the analytic Table IV costs."""

    @abstractmethod
    def encode(self, payloads: PayloadBatch) -> EncodedPart:
        """Encode a batch of data blocks into storable blocks.

        ``payloads`` may be a byte string (split into zero-padded blocks), a
        ``(n, block_size)`` uint8 matrix or a sequence of block payloads --
        the accepted inputs of :func:`repro.core.xor.as_payload_matrix`.
        """

    @abstractmethod
    def repair(self, missing: Set[object], source: BlockSource) -> SchemeRepairOutcome:
        """Rebuild as many of ``missing`` blocks as possible from ``source``."""

    def read_block(self, block_id: object, source: BlockSource) -> Payload:
        """The payload of one block: fetched, or -- when ``source`` does not
        have it -- :meth:`repair` of that one block.  Raises
        :class:`repro.exceptions.RepairFailedError` when no recovery path is
        available."""
        payload = source.try_get_many([block_id])[0]
        if payload is None:
            payload = self.repair({block_id}, source).recovered.get(block_id)
            if payload is None:
                raise RepairFailedError(block_id, "no available recovery path")
        return as_payload(payload)

    @abstractmethod
    def scrub(self, source: BlockSource) -> SchemeScrubOutcome:
        """Check every readable block of this instance against the others
        (nothing is written: rebuilding the suspects is the caller's)."""

    @abstractmethod
    def owns(self, block_id: object) -> bool:
        """True when ``block_id`` names a block this instance has encoded.

        :meth:`repair` returns identifiers it does not own in ``unrecovered``
        without decoding them; a service holding two schemes mid-transition
        uses this to hand each its own generation of blocks.
        """

    @abstractmethod
    def is_data_block(self, block_id: object) -> bool:
        """True when ``block_id`` identifies a data (not redundancy) block."""

    @abstractmethod
    def document_blocks(self, data_ids: Sequence[object]) -> List[object]:
        """All block identifiers backing the given data blocks.

        For stripe codes this is every position of every stripe the data ids
        touch (including redundancy and padding) -- the set a delete must
        clean up.  Entanglement returns only the data ids themselves: parities
        are woven into the append-only lattice and must survive deletion.
        """

    def default_placement(self, topology: "Topology | int", seed: int = 0) -> "PlacementPolicy":
        """The placement policy used when the caller does not supply one.

        ``topology`` is a :class:`~repro.storage.topology.Topology` or a bare
        location count (the flat single-site shim).
        """
        from repro.storage.placement import RandomPlacement

        return RandomPlacement(topology, seed=seed)

    # ------------------------------------------------------------------
    # Durability hooks
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """JSON-serialisable per-stream state for a durable close/reopen.

        Schemes whose encoder carries state across writes (the entanglement
        lattice size, a stripe counter) return it here so a
        :class:`~repro.system.service.StorageService` manifest can bring a
        reopened service back to the exact write position.  Stateless schemes
        return an empty dict.
        """
        return {}

    def restore_state(self, state: Dict[str, object], source: BlockSource) -> None:
        """Rebuild the per-stream state captured by :meth:`state`.

        ``source`` is the reopened storage (the entanglement encoder
        retrieves its strand-head parities from it, paper Sec. IV-A).
        The default is a no-op for stateless schemes.
        """
