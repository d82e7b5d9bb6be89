"""repro -- a reproduction of *Alpha Entanglement Codes* (DSN 2018).

The package implements the AE(alpha, s, p) family of entanglement codes and
everything needed to evaluate them the way the paper does: baseline codes
(Reed-Solomon, Azure/Xorbas LRC, flat XOR, replication), a storage cluster
substrate with failure injection, a scheme-agnostic storage service that
drives any of those codes through one put/get/repair API, the
entangled-storage-system use cases (geo-replicated backup and RAID-AE), the
minimal-erasure fault-tolerance analysis and a vectorised disaster-recovery
simulator.

Quickstart::

    from repro import open_service

    service = open_service(scheme="ae-3-2-5")
    service.put("archive", b"some archive content")
    service.fail_locations(range(3))
    report = service.repair()
    assert service.get("archive") == b"some archive content"

Any identifier the :mod:`repro.schemes` registry resolves works as the
``scheme`` -- ``"rs-10-4"``, ``"lrc-azure"``, ``"rep-3"``, ``"xor-geo"``,
... -- which is how the paper's Table IV comparisons become runnable
scenarios (see ``repro-experiments compare``).  The lower-level encoder
objects remain available::

    from repro import AEParameters, Entangler

    code = AEParameters.triple(s=2, p=5)      # AE(3,2,5), the 5-HEC setting
    encoder = Entangler(code, block_size=4096)
    encoded, length = encoder.encode_bytes(b"some archive content")

See ``examples/quickstart.py`` for a complete encode / damage / repair cycle
and ``docs/architecture.md`` for the layer-by-layer tour.

Exported symbols and where they come from in the paper
------------------------------------------------------

===================== ==========================================================
Symbol                Paper reference / units
===================== ==========================================================
``AEParameters``      The AE(alpha, s, p) setting (Sec. III-B, "Code
                      Parameters"): ``alpha`` parities per block
                      (dimensionless), ``s`` horizontal strands, ``p`` helical
                      strands per class.
``StrandClass``       Horizontal / right-handed / left-handed strand classes
                      used to weave the lattice (Sec. III-B, Fig. 3).
``NodeCategory``      Top / central / bottom position of a node in its lattice
                      column, selecting the rule rows of Tables I and II.
``HelicalLattice``    The virtual graph of entangled blocks: nodes are data
                      blocks, edges are parities (Sec. III-B, Fig. 3-4).
``Entangler``         Streaming encoder; one 4 KiB block (default) in,
                      ``alpha`` parities out via XOR (Sec. III-B, "Code
                      Specification").
``BatchEntangler``    Batch encoder: a ``(n, block_size)`` uint8 stack in, one
                      ``(alpha, n, block_size)`` parity stack out, ``alpha``
                      XORs per block along a memoised scan plan.  Bit-identical
                      to ``n`` sequential ``entangle`` calls; the throughput
                      path behind the write-performance story of Fig. 10.
``EncodedBlock``      One data block plus its ``alpha`` parities (Sec. III-B).
``EncodedBatch``      A batch of encoded blocks kept in matrix form (rows are
                      blocks, payload bytes as ``numpy.uint8``).
``Decoder``           Single-block repair from pp-/dp-tuples, two-block XORs
                      (Sec. III-B and IV-A, Fig. 2).
``RepairRun``         Multi-round global repair after disasters, one bulk
                      read and one XOR pass per round (Sec. V-C4).
``Block``             Identifier plus payload (``numpy.uint8`` array, bytes).
``BlockId``           Union of ``DataId`` and ``ParityId``.
``DataId``            d-block identifier: lattice position ``i >= 1`` (Fig. 3).
``ParityId``          p-block identifier: (creator index, strand class); the
                      paper's edge notation ``p_{i,j}`` (Table II).
``StrandId``          (class, label) pair naming one of the ``s + (alpha-1)*p``
                      strands (Sec. III-B).
``__version__``       Package version string.
===================== ==========================================================

Exceptions (all subclasses of ``ReproError``): ``BlockSizeMismatchError``
(entanglement is only defined for equal-size blocks, Sec. III-B),
``BlockUnavailableError`` / ``UnknownBlockError`` (reads against failed or
unknown locations, Sec. V-C), ``DecodingError`` / ``RepairFailedError`` (no
available recovery path, Sec. V-C4), ``IntegrityError`` (anti-tampering
checks, Sec. IV-B), ``InvalidParametersError`` (the validity rules of
Sec. III-B), ``LatticeBoundsError`` (queries outside the entangled region),
``PlacementError`` / ``StorageFullError`` (the placement layer, Sec. V-C),
``ServiceOverloadedError`` (the concurrent front-end's bounded admission
queue is full; retry once responses drain).

The higher layers are re-exported or imported from their subpackages:
``open_service`` / ``DocumentService`` (the one way to open a service and
the one surface every layer conforms to, from ``repro.system.opening`` and
``repro.system.protocol``),
``StorageService`` / ``StorageConfig`` (the scheme-agnostic front-end, from
``repro.system.service``), ``ConcurrentStorageService`` (the multi-client
request path, from ``repro.system.frontend``),
``ShardedStorageService`` / ``ShardRing`` (the consistent-hash federation of
many services, from ``repro.system.sharding``),
``RedundancyScheme`` / ``get_scheme`` (the
pluggable redundancy protocol and registry, from ``repro.schemes``),
``repro.storage`` (cluster, placement, maintenance policies) and
``repro.analysis`` / ``repro.simulation`` (the paper's evaluation).
"""

from repro.core import (
    AEParameters,
    BatchEntangler,
    Block,
    BlockId,
    DataId,
    Decoder,
    EncodedBatch,
    EncodedBlock,
    Entangler,
    HelicalLattice,
    NodeCategory,
    ParityId,
    RepairRun,
    StrandClass,
    StrandId,
)
from repro.exceptions import (
    BlockSizeMismatchError,
    BlockUnavailableError,
    DecodingError,
    IntegrityError,
    InvalidParametersError,
    LatticeBoundsError,
    PlacementError,
    RepairFailedError,
    ReproError,
    ServiceOverloadedError,
    StorageFullError,
    UnknownBlockError,
)
from repro.schemes import RedundancyScheme, SchemeCapabilities
from repro.schemes import get as get_scheme
from repro.system.frontend import ConcurrentStorageService
from repro.system.opening import open_service
from repro.system.protocol import DocumentService
from repro.system.service import StorageConfig, StorageService
from repro.system.sharding import ShardRing, ShardedStorageService

__version__ = "1.2.0"

__all__ = [
    "AEParameters",
    "BatchEntangler",
    "Block",
    "BlockId",
    "BlockSizeMismatchError",
    "BlockUnavailableError",
    "ConcurrentStorageService",
    "DataId",
    "Decoder",
    "DecodingError",
    "DocumentService",
    "EncodedBatch",
    "EncodedBlock",
    "Entangler",
    "HelicalLattice",
    "IntegrityError",
    "InvalidParametersError",
    "LatticeBoundsError",
    "NodeCategory",
    "ParityId",
    "PlacementError",
    "RedundancyScheme",
    "RepairFailedError",
    "RepairRun",
    "ReproError",
    "SchemeCapabilities",
    "ServiceOverloadedError",
    "ShardRing",
    "ShardedStorageService",
    "StorageConfig",
    "StorageFullError",
    "StorageService",
    "StrandClass",
    "StrandId",
    "UnknownBlockError",
    "__version__",
    "get_scheme",
    "open_service",
]
