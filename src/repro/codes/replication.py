"""n-way replication, the simplest redundancy scheme.

Replication creates ``n`` parallel recovery paths of one block each
(paper, Fig. 1).  It is used in the evaluation as the upper envelope of
storage overhead: the paper compares against 2-, 3- and 4-way replication,
capping additional storage at 300%.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.codes.base import StripeCode
from repro.exceptions import InvalidParametersError


class ReplicationCode(StripeCode):
    """``n``-way replication expressed as a (1, n-1) stripe code.

    The stripe holds a single data block at position 0 and ``n - 1`` verbatim
    copies at positions 1..n-1: every parity row is the XOR row ``[1]``, so
    a repair reads one surviving copy.
    """

    mds = True

    def __init__(self, copies: int) -> None:
        if copies < 2:
            raise InvalidParametersError("replication requires at least 2 copies")
        super().__init__(1, copies - 1, np.ones((copies, 1), dtype=np.uint8))
        self._copies = copies

    @property
    def copies(self) -> int:
        """Total number of stored copies, including the original."""
        return self._copies

    @property
    def name(self) -> str:
        return f"{self._copies}-way replication"


#: Replication factors evaluated in the paper (up to 300% additional storage).
PAPER_REPLICATION_FACTORS = (2, 3, 4)


def paper_replication_codes() -> List[ReplicationCode]:
    """The replication settings plotted in Figs. 11 and 12."""
    return [ReplicationCode(copies) for copies in PAPER_REPLICATION_FACTORS]
