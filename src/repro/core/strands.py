"""Strand identities and strand walking.

A *strand* is a chain of interleaved data and parity blocks (paper, Sec. III):
``..., d_h, p_{h,i}, d_i, p_{i,j}, d_j, ...``.  The lattice of an
AE(alpha, s, p) code contains ``s`` horizontal strands and, for every helical
class, ``p`` strands, for a total of ``s + (alpha - 1) * p``.

This module provides:

* :class:`StrandId` -- (class, label) pair naming one strand;
* walking primitives that enumerate the data nodes of a strand in either
  direction, used by the decoder (long recovery paths), the anti-tampering
  analysis and the minimal-erasure search;
* :class:`StrandHeadRegistry` -- the encoder's working memory: the last parity
  of each strand, which is all the state needed to entangle new blocks
  (paper, Sec. IV-A: the broker's memory footprint is linear in the number of
  distinct strands).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.parameters import AEParameters, StrandClass
from repro.core.position import strand_label
from repro.core.rules import input_index, output_index
from repro.core.xor import Payload
from repro.exceptions import LatticeBoundsError


@dataclass(frozen=True, order=True)
class StrandId:
    """Identity of a single strand: its class and 0-based label."""

    strand_class: StrandClass
    label: int

    def name(self) -> str:
        prefix = {
            StrandClass.HORIZONTAL: "H",
            StrandClass.RIGHT_HANDED: "RH",
            StrandClass.LEFT_HANDED: "LH",
        }[self.strand_class]
        return f"{prefix}{self.label + 1}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name()


def strand_of(index: int, strand_class: StrandClass, params: AEParameters) -> StrandId:
    """The strand of ``strand_class`` that passes through node ``index``."""
    return StrandId(strand_class, strand_label(index, strand_class, params))


def strands_of(index: int, params: AEParameters) -> List[StrandId]:
    """All ``alpha`` strands through node ``index`` (one per strand class)."""
    return [strand_of(index, cls, params) for cls in params.strand_classes]


def all_strands(params: AEParameters) -> List[StrandId]:
    """Every strand of the lattice, ``s + (alpha - 1) * p`` in total."""
    strands: List[StrandId] = [
        StrandId(StrandClass.HORIZONTAL, label) for label in range(params.s)
    ]
    for strand_class in params.strand_classes[1:]:
        strands.extend(StrandId(strand_class, label) for label in range(params.p))
    return strands


def walk_forward(
    start: int, strand_class: StrandClass, params: AEParameters, limit: Optional[int] = None
) -> Iterator[int]:
    """Yield data node indexes along a strand, starting at ``start`` (inclusive).

    ``limit`` bounds the largest index returned (used for finite lattices);
    without a limit the iterator is infinite and must be sliced by the caller.
    """
    if start < 1:
        raise LatticeBoundsError(f"start index must be >= 1, got {start}")
    current = start
    while limit is None or current <= limit:
        yield current
        current = output_index(current, strand_class, params)


def walk_backward(
    start: int, strand_class: StrandClass, params: AEParameters
) -> Iterator[int]:
    """Yield data node indexes along a strand towards its beginning."""
    if start < 1:
        raise LatticeBoundsError(f"start index must be >= 1, got {start}")
    current = start
    while current >= 1:
        yield current
        current = input_index(current, strand_class, params)


def nodes_between(
    start: int, end: int, strand_class: StrandClass, params: AEParameters
) -> List[int]:
    """Data nodes on the strand from ``start`` to ``end`` inclusive.

    ``end`` must be reachable from ``start`` walking forward; a
    :class:`LatticeBoundsError` is raised otherwise (the two nodes are not on
    the same strand, or ``end`` precedes ``start``).
    """
    if end < start:
        raise LatticeBoundsError("end precedes start on a forward strand walk")
    nodes: List[int] = []
    for node in walk_forward(start, strand_class, params):
        nodes.append(node)
        if node == end:
            return nodes
        if node > end:
            break
    raise LatticeBoundsError(
        f"nodes {start} and {end} are not connected on a {strand_class.value} strand"
    )


def edges_between(
    start: int, end: int, strand_class: StrandClass, params: AEParameters
) -> List[int]:
    """Creator indexes of the parities on the strand segment ``start .. end``.

    The returned list contains the creator of every edge between consecutive
    nodes of the segment, i.e. ``len(result) == number of hops``.
    """
    nodes = nodes_between(start, end, strand_class, params)
    return nodes[:-1]


def distance_on_strand(
    start: int, end: int, strand_class: StrandClass, params: AEParameters
) -> Optional[int]:
    """Number of hops from ``start`` to ``end`` along the strand, or ``None``.

    Returns ``None`` when ``end`` is not reachable walking forward from
    ``start`` (different strand, or behind ``start``).
    """
    if end < start:
        return None
    hops = 0
    for node in walk_forward(start, strand_class, params):
        if node == end:
            return hops
        if node > end:
            return None
        hops += 1
    return None  # pragma: no cover - unreachable (walk is unbounded)


def share_strand(
    first: int, second: int, strand_class: StrandClass, params: AEParameters
) -> bool:
    """True when the two nodes lie on the same strand of ``strand_class``."""
    return strand_label(first, strand_class, params) == strand_label(
        second, strand_class, params
    )


class StrandHeadRegistry:
    """Tracks the parity at the head of every strand during encoding.

    The encoder only ever needs the most recent parity of each strand (the
    block that will be XORed with the next data block of that strand).  The
    registry therefore holds at most ``s + (alpha - 1) * p`` payloads -- the
    memory footprint quoted in the paper for the backup broker.
    """

    def __init__(self, params: AEParameters) -> None:
        self._params = params
        self._heads: Dict[StrandId, Tuple[int, Payload]] = {}

    @property
    def params(self) -> AEParameters:
        return self._params

    def __len__(self) -> int:
        return len(self._heads)

    def head(self, strand: StrandId) -> Optional[Tuple[int, Payload]]:
        """Return ``(creator index, payload)`` of the strand head, if any."""
        return self._heads.get(strand)

    def head_payload(self, strand: StrandId) -> Optional[Payload]:
        entry = self._heads.get(strand)
        return entry[1] if entry is not None else None

    def update(self, strand: StrandId, creator: int, payload: Payload) -> None:
        """Record that ``creator`` produced the new head parity of ``strand``."""
        self._heads[strand] = (creator, payload)

    def forget(self, strand: StrandId) -> None:
        self._heads.pop(strand, None)

    def snapshot(self) -> Dict[StrandId, int]:
        """Creator index of each known strand head (used for crash recovery)."""
        return {strand: entry[0] for strand, entry in self._heads.items()}

    def clear(self) -> None:
        self._heads.clear()
