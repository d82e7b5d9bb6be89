"""The scheme-agnostic redundancy protocol.

Every redundancy scheme the paper evaluates -- alpha entanglement codes and
the stripe-code baselines (Reed-Solomon, Azure/Xorbas LRC, flat XOR codes,
replication) -- is driven through one interface: :class:`RedundancyScheme`.
The protocol covers the four verbs a storage front-end needs
(:meth:`~RedundancyScheme.encode`, :meth:`~RedundancyScheme.read_block`,
:meth:`~RedundancyScheme.repair`, :meth:`~RedundancyScheme.document_blocks`)
plus capability metadata (:class:`SchemeCapabilities`) that carries the
analytic Table IV quantities, so measured and closed-form costs can be printed
side by side.

Adapters:

* :class:`repro.codes.entanglement.EntanglementScheme` -- AE(alpha, s, p)
  over the helical lattice (wraps the batched encoder and lattice decoder);
* :class:`repro.schemes.stripe.StripeScheme` -- any
  :class:`repro.codes.base.StripeCode` subclass.

Instances are resolved from string identifiers through the registry in
:mod:`repro.schemes` (``repro.schemes.get("rs-10-4")``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.xor import Payload, PayloadBatch

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.codes.base import CodeCosts
    from repro.storage.placement import PlacementPolicy
    from repro.storage.topology import Topology

#: A block source returns the payload of a block or ``None`` when unavailable.
BlockFetcher = Callable[[object], Optional[Payload]]


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


class RedundancyScheme(ABC):
    """Uniform encode / read / repair interface over one redundancy scheme.

    A scheme instance is bound to a block size and owns whatever per-stream
    state its code family needs (the strand heads of an entanglement encoder,
    the stripe counter of a stripe code).  It never talks to storage directly:
    reads go through a :data:`BlockFetcher` callable supplied by the caller,
    which keeps the scheme reusable against a cluster, a payload dict or a
    network client.
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
    def read_block(self, block_id: object, fetch: BlockFetcher) -> Payload:
        """Return the payload of one block, repairing through redundancy when
        the direct fetch fails.  Raises
        :class:`repro.exceptions.RepairFailedError` when no recovery path is
        available."""

    @abstractmethod
    def repair(self, missing: Set[object], fetch: BlockFetcher) -> SchemeRepairOutcome:
        """Rebuild as many of ``missing`` blocks as possible from ``fetch``."""

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

    def restore_state(self, state: Dict[str, object], fetch: BlockFetcher) -> None:
        """Rebuild the per-stream state captured by :meth:`state`.

        ``fetch`` reads blocks from the reopened storage (the entanglement
        encoder retrieves its strand-head parities this way, paper Sec. IV-A).
        The default is a no-op for stateless schemes.
        """


class CountingFetcher:
    """Wraps a :data:`BlockFetcher` and counts successful reads."""

    def __init__(self, fetch: BlockFetcher) -> None:
        self._fetch = fetch
        self.reads = 0

    def __call__(self, block_id: object) -> Optional[Payload]:
        payload = self._fetch(block_id)
        if payload is not None:
            self.reads += 1
        return payload

    def try_get_many(self, block_ids: Iterable[object]) -> List[Optional[Payload]]:
        """Bulk fetch, counting successes; batches through to the wrapped
        fetcher's own ``try_get_many`` when it has one (a
        :class:`~repro.storage.cluster.ClusterBlockSource`), falling back to
        one call per block otherwise."""
        wanted = list(block_ids)
        bulk = getattr(self._fetch, "try_get_many", None)
        if bulk is not None:
            payloads = list(bulk(wanted))
        else:
            payloads = [self._fetch(block_id) for block_id in wanted]
        self.reads += sum(1 for payload in payloads if payload is not None)
        return payloads
