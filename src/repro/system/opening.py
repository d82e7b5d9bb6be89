"""One way to open a document service.

:func:`open_service` picks the layer from values the caller already holds
(``config.shards``, and whether ``workers`` was given), so no caller
branches on which class it needs.  The three ``.open`` classmethods keep
working for code that wants one layer by name.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.exceptions import InvalidParametersError
from repro.system.frontend import ConcurrentStorageService
from repro.system.protocol import DocumentService
from repro.system.service import StorageConfig, StorageService
from repro.system.sharding import ShardedStorageService

__all__ = ["open_service"]


def open_service(
    config: Optional[StorageConfig] = None,
    *,
    workers: Optional[int] = None,
    queue_depth: Optional[int] = None,
    **overrides: object,
) -> DocumentService:
    """Open the service a config describes, at the layer it needs.

    ``config.shards`` of 2 or more opens a
    :class:`~repro.system.sharding.ShardedStorageService` federation (``None``
    and ``1`` both mean unsharded); otherwise passing ``workers`` opens the
    concurrent :class:`~repro.system.frontend.ConcurrentStorageService`; with
    neither it is a plain :class:`~repro.system.service.StorageService`.
    ``workers`` (concurrent callers) / ``queue_depth`` size each front-end
    and default as that layer's own ``open`` does; ``overrides`` are
    :class:`StorageConfig` fields, as for the ``.open`` classmethods.
    """
    config = replace(config or StorageConfig(), **overrides)
    pool = {
        key: value
        for key, value in (("workers", workers), ("queue_depth", queue_depth))
        if value is not None
    }
    if config.shards not in (None, 1):
        return ShardedStorageService.open(config, **pool)
    if workers is not None:
        return ConcurrentStorageService.open(config, **pool)
    if queue_depth is not None:
        raise InvalidParametersError(
            "queue_depth bounds a front-end's requests in flight; pass workers too"
        )
    return StorageService.open(config)
