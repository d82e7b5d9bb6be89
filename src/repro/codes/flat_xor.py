"""Flat XOR-based codes.

The minimal-erasure methodology the paper builds on (Wylie & Swaminathan,
DSN'07; Greenan, Miller & Wylie, DSN'08) was originally defined for *flat
XOR codes*: irregular codes in which every parity is the XOR of an arbitrary
subset of the data blocks.  This module implements such codes so that the
analysis framework (:mod:`repro.analysis.erasure_patterns`) can be exercised
against the classic examples, and to provide the geo-replicated "XOR-based
codes at the data-centre level" baseline the introduction mentions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.codes.base import StripeCode
from repro.core.xor import Payload, xor_many, zero_payload
from repro.exceptions import DecodingError, InvalidParametersError


class FlatXorCode(StripeCode):
    """A flat XOR code defined by one data-subset per parity.

    ``equations[j]`` is the set of data positions XORed to produce parity
    ``j``.  The code is systematic: data occupies positions ``0..k-1`` and
    parity ``j`` occupies position ``k + j``.
    """

    def __init__(self, k: int, equations: Sequence[Sequence[int]]) -> None:
        if k < 1:
            raise InvalidParametersError("flat XOR codes require k >= 1")
        parsed: List[FrozenSet[int]] = []
        for equation in equations:
            members = frozenset(int(position) for position in equation)
            if not members:
                raise InvalidParametersError("parity equations cannot be empty")
            if any(position < 0 or position >= k for position in members):
                raise InvalidParametersError(
                    f"parity equation {sorted(members)} references positions outside 0..{k - 1}"
                )
            parsed.append(members)
        if not parsed:
            raise InvalidParametersError("flat XOR codes require at least one parity")
        super().__init__(k, len(parsed))
        self._equations: Tuple[FrozenSet[int], ...] = tuple(parsed)

    @property
    def equations(self) -> Tuple[FrozenSet[int], ...]:
        return self._equations

    @property
    def name(self) -> str:
        return f"FlatXOR({self.k},{self.m})"

    @property
    def single_failure_cost(self) -> int:
        """Cheapest single-failure repair: the smallest parity equation + 1 reads."""
        smallest = min(len(equation) for equation in self._equations)
        return smallest  # the equation's data blocks (data failure repaired via parity)

    # ------------------------------------------------------------------
    # Coding
    # ------------------------------------------------------------------
    def encode(self, data_blocks: Sequence[Payload]) -> List[Payload]:
        payloads = self._normalise_stripe(data_blocks)
        parities: List[Payload] = []
        for equation in self._equations:
            parities.append(xor_many([payloads[position] for position in sorted(equation)]))
        return parities

    def decode(self, available: Dict[int, Payload]) -> List[Payload]:
        """Iterative (peeling) decoder over the XOR equations.

        Repeatedly finds an equation with exactly one unknown block and solves
        it.  This is the standard decoder for XOR-based irregular codes; it
        fails when every remaining equation has two or more unknowns.
        """
        known: Dict[int, Payload] = {
            position: np.asarray(payload, dtype=np.uint8)
            for position, payload in available.items()
        }
        if not known:
            raise DecodingError("no blocks available")
        size = next(iter(known.values())).size
        progress = True
        while progress and not all(position in known for position in range(self.k)):
            progress = False
            for parity_index, equation in enumerate(self._equations):
                parity_position = self.k + parity_index
                members = set(equation)
                unknown_data = [pos for pos in members if pos not in known]
                if parity_position in known:
                    if len(unknown_data) == 1:
                        missing = unknown_data[0]
                        parts = [known[parity_position]]
                        parts.extend(known[pos] for pos in members if pos != missing)
                        known[missing] = xor_many(parts)
                        progress = True
                else:
                    if not unknown_data:
                        known[parity_position] = (
                            xor_many([known[pos] for pos in members])
                            if members
                            else zero_payload(size)
                        )
                        progress = True
        missing_data = [position for position in range(self.k) if position not in known]
        if missing_data:
            raise DecodingError(
                f"{self.name} peeling decoder cannot recover data positions {missing_data}"
            )
        return [known[position] for position in range(self.k)]

    def can_decode(self, available_positions: Sequence[int]) -> bool:
        """Structural decodability test using the peeling decoder shape."""
        available = set(available_positions)
        known = set(position for position in available if position < self.n)
        progress = True
        while progress and not set(range(self.k)) <= known:
            progress = False
            for parity_index, equation in enumerate(self._equations):
                parity_position = self.k + parity_index
                members = set(equation)
                unknown = [pos for pos in members if pos not in known]
                if parity_position in known and len(unknown) == 1:
                    known.add(unknown[0])
                    progress = True
                elif parity_position not in known and not unknown:
                    known.add(parity_position)
                    progress = True
        return set(range(self.k)) <= known

    def _equation_plan(self, position: int, available: Set[int]) -> Optional[List[int]]:
        """The positions of the smallest parity equation that rebuilds
        ``position`` from ``available`` alone, or ``None``."""
        for parity_index, equation in sorted(
            enumerate(self._equations), key=lambda pair: len(pair[1])
        ):
            parity_position = self.k + parity_index
            if position < self.k:
                if position not in equation:
                    continue
                needed = (set(equation) - {position}) | {parity_position}
            elif parity_position == position:
                needed = set(equation)
            else:
                continue
            if needed <= available:
                return sorted(needed)
        return None

    def repair_read_positions(
        self, position: int, available_positions: Sequence[int]
    ) -> List[int] | None:
        """Read the smallest fully available parity equation covering
        ``position``; fall back to the peeling decoder's full view."""
        plan = self._equation_plan(position, set(available_positions) - {position})
        if plan is not None:
            return plan
        return super().repair_read_positions(position, available_positions)

    def repair(self, position: int, available: Dict[int, Payload]) -> Payload:
        """Rebuild ``position`` from a single parity equation when one is
        fully available, falling back to the peeling decoder otherwise."""
        if position in available:
            return np.asarray(available[position], dtype=np.uint8)
        plan = self._equation_plan(position, set(available))
        if plan is not None:
            return xor_many([available[member] for member in plan])
        return super().repair(position, available)

    def tolerated_failures(self) -> int:
        """Largest number of arbitrary failures always tolerated (Hamming-style)."""
        for failures in range(1, self.n + 1):
            if not self._tolerates_all(failures):
                return failures - 1
        return self.n

    def _tolerates_all(self, failures: int) -> bool:
        from itertools import combinations

        for erased in combinations(range(self.n), failures):
            remaining = [pos for pos in range(self.n) if pos not in erased]
            if not self.can_decode(remaining):
                return False
        return True


def raid5_code(k: int) -> FlatXorCode:
    """RAID-5 style single parity over ``k`` data blocks."""
    return FlatXorCode(k, [range(k)])


def mirrored_pairs_code(k: int) -> FlatXorCode:
    """Parity-per-block layout equivalent to mirroring each data block."""
    return FlatXorCode(k, [[position] for position in range(k)])


def geo_xor_code() -> FlatXorCode:
    """The geo-replicated XOR arrangement mentioned in the paper's introduction.

    Facebook's warm BLOB storage XORs blocks hosted in two data centres and
    stores the XOR in a third; modelled here as a (2, 1) flat XOR code.
    """
    return FlatXorCode(2, [[0, 1]])
