"""Block keys and location mapping for decentralised deployments.

In the geo-replicated backup use case (paper, Sec. IV-A) blocks are located by
a key "derived from the node id and the block position in the lattice (such
as a hash of both values)", and parities are mapped to storage nodes with a
deterministic or random placement algorithm.  This module implements that key
scheme: stable, content-independent keys that every participant can recompute
without coordination.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.blocks import BlockId


@dataclass(frozen=True)
class BlockKey:
    """A stable key identifying one block of one user's lattice."""

    owner: str
    block_label: str
    digest: str

    def short(self) -> str:
        return self.digest[:16]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"key({self.owner}:{self.block_label}:{self.short()})"


def derive_key(owner: str, block_id: BlockId) -> BlockKey:
    """Derive the key of ``block_id`` within ``owner``'s lattice.

    The key is a SHA-256 digest of the owner identity and the block label
    (``d26`` or ``p[26,rh]``); it does not depend on the payload, so it can be
    computed before the block exists and survives repairs.
    """
    label = block_id.label()
    digest = hashlib.sha256(f"{owner}|{label}".encode("utf-8")).hexdigest()
    return BlockKey(owner=owner, block_label=label, digest=digest)


def location_for_key(key: BlockKey, location_count: int) -> int:
    """Deterministic key -> storage-node mapping (consistent-hash style).

    A thin shim over :meth:`repro.system.sharding.ShardRing.digest_index`,
    so block keys and the sharded document namespace share one hashing
    convention.
    """
    from repro.system.sharding import ShardRing

    return ShardRing.digest_index(key.digest, location_count)


def location_for_block(
    owner: str, block_id: BlockId, location_count: int, exclude: int | None = None
) -> int:
    """Map a block to a storage node, optionally avoiding the owner's own node.

    Data blocks stay on the owner's computer in the cooperative backup design
    (they get the same stable mapping, should a caller want it); parities are
    uploaded to remote nodes.  ``exclude`` lets the caller skip the owner's
    node for parity placement.
    """
    target = location_for_key(derive_key(owner, block_id), location_count)
    if exclude is not None and location_count > 1 and target == exclude:
        target = (target + 1) % location_count
    return target
