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

from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.codes.base import StripeCode
from repro.exceptions import InvalidParametersError


class FlatXorCode(StripeCode):
    """A flat XOR code defined by one data-subset per parity.

    ``equations[j]`` is the set of data positions XORed to produce parity
    ``j``.  The code is systematic: data occupies positions ``0..k-1`` and
    parity ``j`` occupies position ``k + j``.  Every parity row is an XOR
    row of :class:`~repro.codes.base.StripeCode`, so a repair reads the
    smallest surviving equation; a set of positions decodes when its rows
    span the data, which is the MEL's maximum-likelihood criterion
    (:meth:`repro.analysis.mel.TannerGraph.lost_data`), not peeling's.
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
        matrix = np.zeros((k + len(parsed), k), dtype=np.uint8)
        matrix[:k] = np.eye(k, dtype=np.uint8)
        for parity, members in enumerate(parsed):
            matrix[k + parity, sorted(members)] = 1
        super().__init__(k, len(parsed), matrix)

    @property
    def equations(self) -> Tuple[FrozenSet[int], ...]:
        return tuple(self._xor_rows[position] for position in range(self.k, self.n))

    @property
    def name(self) -> str:
        return f"FlatXOR({self.k},{self.m})"


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
