"""Code puncturing: trading fault tolerance for storage overhead.

The storage overhead of an AE code grows in steps of 100% with ``alpha``.  To
obtain intermediate code rates the paper proposes *puncturing*: after
encoding, some parities are simply not stored (paper, Sec. III-B, "Reducing
Storage Overhead").  Punctured parities behave exactly like missing blocks:
the decoder can often regenerate them on demand, but the effective fault
tolerance decreases.

This module provides puncturing policies (which parities to drop) and helpers
to compute the resulting storage overhead.  The policies are deterministic
functions of the block position so that readers and writers agree on the
punctured set without extra metadata.  Each is one numpy expression over an
array of node indexes, and every question about the punctured set -- one
parity, one encoded batch, a whole lattice, an overhead estimate -- is a
:meth:`PuncturedCode.mask` over the nodes it concerns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, List, Sequence

import numpy as np

from repro.core.blocks import ParityId
from repro.core.parameters import AEParameters, StrandClass
from repro.exceptions import InvalidParametersError

#: A puncturing policy maps an ``int64`` array of node indexes to the
#: ``(len(indexes), alpha)`` bool mask of the parities it drops for them, one
#: column per strand class in ``params.strand_classes`` order.
PuncturingPolicy = Callable[[np.ndarray], np.ndarray]

_LOW32 = np.uint64(0xFFFFFFFF)
#: ``puncture_rate``'s salt per column: strand class number ``c`` (1-based,
#: ``params.strand_classes`` order) adds ``c * 40503`` to the hash.
_SALTS = np.arange(1, len(StrandClass) + 1, dtype=np.uint64) * np.uint64(40503)


@dataclass(frozen=True)
class PuncturedCode:
    """An AE code together with a puncturing policy."""

    params: AEParameters
    policy: PuncturingPolicy
    description: str = "custom"

    def mask(self, count: int, start: int = 1) -> np.ndarray:
        """The ``(count, alpha)`` bool mask of the parities dropped for nodes
        ``start .. start + count - 1``; columns follow ``params.strand_classes``."""
        return self.policy(np.arange(start, start + count, dtype=np.int64))

    def _decisions(self, parities: Sequence[ParityId]) -> List[bool]:
        columns = [self.params.strand_classes.index(p.strand_class) for p in parities]
        rows = self.policy(np.array([p.index for p in parities], dtype=np.int64))
        return rows[np.arange(len(parities)), columns].tolist()

    def is_punctured(self, parity: ParityId) -> bool:
        """True when ``parity`` is dropped (not stored)."""
        return self._decisions([parity])[0]

    def stored_parities(self, parities: Iterable[ParityId]) -> Iterator[ParityId]:
        parities = list(parities)
        return (p for p, dropped in zip(parities, self._decisions(parities)) if not dropped)

    def punctured_parities(self, parities: Iterable[ParityId]) -> Iterator[ParityId]:
        parities = list(parities)
        return (p for p, dropped in zip(parities, self._decisions(parities)) if dropped)

    def effective_overhead(self, sample_size: int = 1000) -> float:
        """Storage overhead after puncturing, estimated over ``sample_size`` nodes.

        The overhead of the unpunctured code is ``alpha``; puncturing reduces
        it proportionally to the fraction of dropped parities.
        """
        mask = self.mask(sample_size)
        if mask.size == 0:
            return float(self.params.alpha)
        stored_fraction = 1.0 - int(mask.sum()) / mask.size
        return float(self.params.alpha) * stored_fraction


def masked_parities(
    mask: np.ndarray, strand_classes: Sequence[StrandClass], start: int = 1
) -> List[ParityId]:
    """The parities a ``(nodes, alpha)`` mask of nodes ``start..`` marks, in
    lattice order (node by node, strand classes in column order), built in C
    like :func:`~repro.core.blocks.parity_ids_for`."""
    rows, columns = np.nonzero(mask)
    classes = np.array(strand_classes, dtype=object)[columns]
    pairs = zip((rows + start).tolist(), classes.tolist())
    return list(map(tuple.__new__, repeat(ParityId), pairs))


def no_puncturing(params: AEParameters) -> PuncturedCode:
    """The identity policy: every parity is stored."""
    return PuncturedCode(
        params,
        lambda indexes: np.zeros((len(indexes), params.alpha), dtype=bool),
        description="none",
    )


def puncture_strand_class(
    params: AEParameters, strand_class: StrandClass
) -> PuncturedCode:
    """Drop every parity of one strand class (e.g. all horizontal parities).

    This converts an AE(alpha, s, p) code into a stored layout with overhead
    ``alpha - 1`` while keeping the lattice wiring of the original code.
    """
    if strand_class not in params.strand_classes:
        raise InvalidParametersError(
            f"{params.spec()} does not use strand class {strand_class}"
        )
    row = np.array([cls is strand_class for cls in params.strand_classes])
    return PuncturedCode(
        params,
        lambda indexes: np.tile(row, (len(indexes), 1)),
        description=f"drop-{strand_class.value}",
    )


def puncture_periodic(
    params: AEParameters, period: int, offset: int = 0
) -> PuncturedCode:
    """Drop the parities of every ``period``-th data block (all classes).

    ``period == 4`` stores 3 out of every 4 nodes' parities, reducing the
    overhead to ``0.75 * alpha``.
    """
    if period < 2:
        raise InvalidParametersError("puncturing period must be >= 2")

    def policy(indexes: np.ndarray) -> np.ndarray:
        # Signed arithmetic: numpy's modulo of a negative difference floors
        # like Python's.
        dropped = (indexes - offset) % period == 0
        return np.repeat(dropped[:, None], params.alpha, axis=1)

    return PuncturedCode(params, policy, description=f"periodic-{period}")


def puncture_rate(params: AEParameters, keep_fraction: float) -> PuncturedCode:
    """Drop parities pseudo-randomly (but deterministically) to approximate a rate.

    ``keep_fraction`` is the fraction of parities that remain stored.  The
    decision uses a small multiplicative hash of the parity identity so that it
    is stable across processes without shared state.  It runs in ``uint64``:
    the products wrap modulo 2**64, whose low 32 bits -- all the hash keeps --
    are those of the unbounded integer products.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise InvalidParametersError("keep_fraction must be in (0, 1]")
    threshold = np.uint64(int(keep_fraction * 0xFFFFFFFF))
    salts = _SALTS[: params.alpha]

    def policy(indexes: np.ndarray) -> np.ndarray:
        mixed = indexes.astype(np.uint64)[:, None] * np.uint64(2654435761)
        mixed = (mixed + salts) & _LOW32
        mixed ^= mixed >> np.uint64(16)
        mixed = (mixed * np.uint64(2246822519)) & _LOW32
        mixed ^= mixed >> np.uint64(13)
        return mixed > threshold

    return PuncturedCode(params, policy, description=f"rate-{keep_fraction:.2f}")


def parity_survivors(
    code: PuncturedCode, node_indexes: Sequence[int]
) -> List[ParityId]:
    """The stored parities for the given data nodes under ``code``'s policy."""
    parities = [
        ParityId(index, strand_class)
        for index in node_indexes
        for strand_class in code.params.strand_classes
    ]
    return list(code.stored_parities(parities))
