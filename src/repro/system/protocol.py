"""The document-service surface, declared once.

:class:`DocumentService` is what "a service" means to everything above the
service layers (CLI, :mod:`~repro.system.compare`, load generator, examples):
the put/get/repair verbs of one entangled store, whether the handle is a
plain :class:`~repro.system.service.StorageService`, the concurrent
:class:`~repro.system.frontend.ConcurrentStorageService` or a
:class:`~repro.system.sharding.ShardedStorageService` federation.  The three
classes conform structurally; what each adds *behind* the verbs is tabulated
in ``docs/architecture.md``.  :func:`repro.system.opening.open_service`
opens the right one.

Declarations only: the service types are imported for annotations alone,
so any module may import this one without a cycle.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Protocol, Union, runtime_checkable,
)

from repro.storage.maintenance import MaintenancePolicy

if TYPE_CHECKING:
    from repro.schemes.base import RedundancyScheme, SchemeCapabilities
    from repro.storage.topology import Topology
    from repro.system.service import (
        ServiceRepairReport, ServiceStatus, StorageService, StoredDocument,
    )
    from repro.system.sharding import FederationRepairReport, FederationStatus
    from repro.system.transitions import TransitionReport

__all__ = ["DocumentService"]


@runtime_checkable
class DocumentService(Protocol):
    """One entangled store behind put/get/repair, at any layer.

    Once the handle is closed every verb raises the layer's own
    :class:`~repro.exceptions.InvalidParametersError`; the read-only
    introspection (the properties, ``status``, ``has_document``) stays
    readable.
    """

    @property
    def scheme(self) -> RedundancyScheme:
        """The redundancy scheme (a federation shows one shard's instance)."""

    @property
    def capabilities(self) -> SchemeCapabilities: ...

    @property
    def block_size(self) -> int: ...

    @property
    def topology(self) -> Topology:
        """The site -> rack -> node layout (the same on every shard)."""

    @property
    def data_dir(self) -> Optional[str]:
        """Root directory of a durable service, ``None`` when volatile."""

    @property
    def documents(self) -> Dict[str, StoredDocument]: ...

    def status(self) -> Union[ServiceStatus, FederationStatus]: ...

    def has_document(self, name: str) -> bool: ...

    def service_for(self, name: str) -> StorageService:
        """The plain service whose cluster holds (or would hold) ``name``."""

    def put(self, name: str, data: bytes) -> StoredDocument: ...

    def put_stream(self, name: str, chunks: Iterable[bytes]) -> StoredDocument: ...

    def get(self, name: str) -> bytes: ...

    def get_stream(self, name: str) -> Iterator[bytes]: ...

    def delete(self, name: str) -> List[object]: ...

    def verify_document(self, name: str, expected: bytes) -> bool: ...

    def fail_locations(self, location_ids: Iterable[int]) -> None:
        """Fail the locations (on a federation: on every shard)."""

    def restore_locations(self, location_ids: Optional[Iterable[int]] = None) -> None: ...

    def repair(
        self, policy: MaintenancePolicy = MaintenancePolicy.FULL
    ) -> Union[ServiceRepairReport, FederationRepairReport]:
        """Rebuild unreachable blocks; ``policy`` (default ``FULL``) is how
        much maintenance to do, what it left alone comes back as skipped."""

    def transition_to(
        self, scheme: str
    ) -> Union[Optional[TransitionReport], Dict[int, Optional[TransitionReport]]]:
        """Migrate to another scheme: one report, or one per shard."""

    def flush(self) -> None: ...

    def close(self) -> None: ...
