"""The document-service surface, declared once and written once.

:class:`DocumentService` is what "a service" means to everything above the
service layers (CLI, :mod:`~repro.system.compare`, load generator, examples):
the put/get/repair verbs of one entangled store, whether the handle is a
plain :class:`~repro.system.service.StorageService`, the concurrent
:class:`~repro.system.frontend.ConcurrentStorageService` or a
:class:`~repro.system.sharding.ShardedStorageService` federation.
:func:`repro.system.opening.open_service` opens the right one.

The two layers that wrap other services share one implementation of the
surface, :class:`ServiceLayer`, and differ only in two hooks:

* ``_route(name, write)`` -- a context manager yielding the member that
  serves one request on ``name``, held for the request (the front-end's
  admission slot and locks; the federation's ring owner or holder);
* ``_members(shard=None)`` -- the members by id as :class:`Members`, which a
  maintenance pass enters to hold them (the front-end's gate).

What each layer adds behind the verbs is tabulated in
``docs/architecture.md``.
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack, nullcontext
from typing import (
    TYPE_CHECKING, Any, ContextManager, Dict, Iterable, Iterator, List, Optional, Protocol,
    Tuple, Type, TypeVar, runtime_checkable,
)

from repro.exceptions import ReproError
from repro.storage.maintenance import MaintenancePolicy
from repro.system.service import (
    ServiceHandle, ServiceRepairReport, ServiceScrubReport, ServiceStatus,
)
from repro.system.transitions import TransitionReport

if TYPE_CHECKING:
    from repro.schemes.base import RedundancyScheme, SchemeCapabilities
    from repro.storage.topology import Topology
    from repro.system.service import StorageService, StoredDocument

#: The public surface; :class:`ServiceLayer` and its helpers are the two
#: wrapping layers' shared implementation, not a third kind of service.
__all__ = ["DocumentService"]

R = TypeVar("R", ServiceStatus, ServiceRepairReport, ServiceScrubReport, TransitionReport)


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

    def status(self) -> ServiceStatus: ...

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

    def repair(self, policy: MaintenancePolicy = MaintenancePolicy.FULL) -> ServiceRepairReport:
        """Rebuild unreachable blocks; ``policy`` (default ``FULL``) is how
        much maintenance to do, what it left alone comes back as skipped."""

    def scrub(self) -> ServiceScrubReport:
        """Check the stored blocks against each other and rewrite the ones
        the checks single out (on a federation: every shard, summed)."""

    def transition_to(self, scheme: str) -> Optional[TransitionReport]:
        """Migrate to another scheme (or finish a run to it that did not
        complete); ``None`` when nothing moved."""

    def flush(self) -> None: ...

    def close(self) -> None: ...


def merged(
    into: Type[R], parts: Dict[int, R], errors: Optional[Dict[int, str]] = None, **fixed: object
) -> R:
    """One ``into`` over per-member reports: every field is the sum of the
    parts' (lists concatenated, ``rounds`` the max, a flag set if any part's
    is, a text field the first part's) unless ``fixed`` names it; a
    federation type's ``shards``, ``per_shard`` and ``errors`` are the
    breakdown itself."""
    errors = errors if errors is not None else {}
    given = {"shards": len(parts) + len(errors), "per_shard": parts, "errors": errors, **fixed}
    values: Dict[str, object] = {}
    for spec in dataclasses.fields(into):
        name = spec.name
        if name in given:
            values[name] = given[name]
            continue
        column = [getattr(part, name) for part in parts.values()]
        if name == "rounds":
            values[name] = max(column, default=0)
        elif spec.default_factory is list:
            values[name] = [item for listed in column for item in listed]
        elif column and isinstance(column[0], (str, bool)):
            values[name] = column[0] if isinstance(column[0], str) else any(column)
        else:
            values[name] = sum(column)
    return into(**values)


class Members(Dict[int, Any]):
    """A layer's members by id, in id order.  Reading them holds nothing;
    ``with members:`` holds ``hold`` (a front-end's gate) for one pass."""

    def __init__(
        self, members: Iterable[Tuple[int, Any]], hold: Optional[ContextManager[object]] = None
    ) -> None:
        super().__init__(members)
        self._hold = hold or nullcontext()

    def __enter__(self) -> "Members":
        self._hold.__enter__()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._hold.__exit__(*exc)


def _from_lowest_member(attribute: str) -> property:
    """A property read off the lowest member (each shard has its own scheme
    instance, and the same settings)."""
    return property(lambda self: getattr(next(iter(self._members().values())), attribute))


class ServiceLayer(ServiceHandle):
    """:class:`DocumentService` written once over ``_route`` and ``_members``;
    ``_status_type`` / ``_report_type`` name what the members' reports merge
    into.  Only a federation type has room for one shard's failed repair."""

    _status_type: Type[ServiceStatus] = ServiceStatus
    _report_type: Type[ServiceRepairReport] = ServiceRepairReport
    _data_dir: Optional[str] = None

    def _route(self, name: str, write: bool) -> ContextManager[Any]:
        """The member serving one request on ``name``, held until it returns."""
        raise NotImplementedError

    def _members(self, shard: Optional[int] = None) -> Members:
        """Every member by id, or the one ``shard`` names."""
        raise NotImplementedError

    # -- Introspection (readable after close) --
    scheme = _from_lowest_member("scheme")
    capabilities = _from_lowest_member("capabilities")
    block_size = _from_lowest_member("block_size")
    topology = _from_lowest_member("topology")

    @property
    def data_dir(self) -> Optional[str]:
        return self._data_dir

    @property
    def documents(self) -> Dict[str, StoredDocument]:
        """Every member's catalogue; a name two members hold (a move in
        flight) is listed with the lower member's copy."""
        catalogue: Dict[str, StoredDocument] = {}
        for member in reversed(list(self._members().values())):
            catalogue.update(member.documents)
        return catalogue

    def status(self) -> ServiceStatus:
        parts = {key: member.status() for key, member in self._members().items()}
        return merged(
            self._status_type, parts, scheme=self.scheme.scheme_id, documents=len(self.documents)
        )

    def has_document(self, name: str) -> bool:
        return any(member.has_document(name) for member in self._members().values())

    def service_for(self, name: str) -> StorageService:
        with self._route(name, False) as member:
            return member.service_for(name)

    # -- Document verbs: one member, held for the request --
    def put(self, name: str, data: bytes) -> StoredDocument:
        with self._route(name, True) as member:
            return member.put(name, data)

    def put_stream(self, name: str, chunks: Iterable[bytes]) -> StoredDocument:
        """Store a document from a chunk iterable, held for the stream's
        whole lifetime (so :meth:`close` waits for it)."""
        with self._route(name, True) as member:
            return member.put_stream(name, chunks)

    def get(self, name: str) -> bytes:
        with self._route(name, False) as member:
            return member.get(name)

    def get_stream(self, name: str) -> Iterator[bytes]:
        """Stream a document, holding its route until the stream is
        exhausted, closed or dropped."""
        with ExitStack() as stack:
            chunks = stack.enter_context(self._route(name, False)).get_stream(name)
            held = stack.pop_all()

        def stream() -> Iterator[bytes]:
            with held:
                yield b""  # primed below: from here on, closing releases
                yield from chunks

        primed = stream()
        next(primed)
        return primed

    def delete(self, name: str) -> List[object]:
        with self._route(name, True) as member:
            return member.delete(name)

    # -- Maintenance verbs: every member (or one shard), held for the pass --
    def _each(self, verb: str, shard: Optional[int], *args: object) -> None:
        self._ensure_open()
        with self._members(shard) as members:
            for member in members.values():
                getattr(member, verb)(*args)

    def fail_locations(self, location_ids: Iterable[int]) -> None:
        self._each("fail_locations", None, list(location_ids))

    def restore_locations(self, location_ids: Optional[Iterable[int]] = None) -> None:
        self._each("restore_locations", None, None if location_ids is None else list(location_ids))

    def repair(self, policy: MaintenancePolicy = MaintenancePolicy.FULL) -> ServiceRepairReport:
        """Run a repair pass on every member while mutations are quiesced;
        reads continue."""
        return self._repair(policy, None)

    def _repair(self, policy: MaintenancePolicy, shard: Optional[int]) -> ServiceRepairReport:
        self._ensure_open()
        parts: Dict[int, ServiceRepairReport] = {}
        errors: Dict[int, str] = {}
        with self._members(shard) as members:
            for key, member in members.items():
                try:
                    parts[key] = member.repair(policy)
                except ReproError as exc:
                    if self._report_type is ServiceRepairReport:
                        raise
                    errors[key] = str(exc)
        return merged(self._report_type, parts, errors, scheme=self.scheme.scheme_id)

    def scrub(self) -> ServiceScrubReport:
        """Scrub every member while mutations are quiesced; reads continue."""
        self._ensure_open()
        with self._members() as members:
            parts = {key: member.scrub() for key, member in members.items()}
        return merged(ServiceScrubReport, parts, scheme=self.scheme.scheme_id)

    def flush(self) -> None:
        """Checkpoint every member's metadata and flush its block writes."""
        self._each("flush", None)

    def close(self) -> None:
        """Refuse new requests, let the members drain, close them.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        with self._members() as members:
            for member in members.values():
                member.close()
