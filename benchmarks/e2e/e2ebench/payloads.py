"""Seeded inputs: document names, payloads and the mixed-loop schedules.

Every document name and payload byte comes from
``numpy.random.default_rng(seed)`` in the benchmark process; the program
itself never sees the seed (only the placement seed derived from it).  The
*shape* of the mixed loop -- which of a client's documents is put, read or
deleted at which step -- is part of the workload's definition and is drawn
from the fixed :data:`SHAPE_SEED`: two seeds must measure the same work, or
the spread between them would measure this generator instead of the program
(with a seeded shape the median operation flips between a cache hit and a
miss from one seed to the next).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Corpus", "Op", "build_corpus", "placement_seed"]

#: ``(kind, name, payload)``: the bytes to write for a ``put``, the bytes a
#: ``get`` must return, ``None`` for a ``delete``.
Op = Tuple[str, str, Optional[bytes]]

#: Share of puts / gets / deletes in the mixed closed loop.
MIX = (0.4, 0.5, 0.1)
#: Seed of the mixed loop's shape (operation order and document slots).
SHAPE_SEED = 20180625


@dataclass
class Corpus:
    """The inputs of one workload run (identical for every repetition)."""

    #: Preloaded documents, in put order.
    docs: Dict[str, bytes]
    #: One operation list per client; clients own disjoint names, so every
    #: get has exactly one correct answer whatever the thread interleaving.
    schedules: List[List[Op]]
    #: What the service must hold once the mixed loop has run.
    live: Dict[str, bytes]

    @property
    def preload_bytes(self) -> int:
        return sum(len(data) for data in self.docs.values())

    @property
    def live_bytes(self) -> int:
        return sum(len(data) for data in self.live.values())

    @property
    def put_count(self) -> int:
        """Puts issued over the repetition (preload + mixed loop)."""
        return len(self.docs) + sum(
            1 for schedule in self.schedules for kind, _, _ in schedule if kind == "put"
        )


def placement_seed(seed: int) -> int:
    """The program-side seed (block placement), derived from ``--seed``."""
    return int(np.random.default_rng([seed, 0x9E3779B9]).integers(1, 2**31 - 1))


def build_corpus(
    seed: int, docs: int, doc_bytes: int, clients: int, ops_per_client: int
) -> Corpus:
    rng = np.random.default_rng(seed)
    shape = np.random.default_rng(SHAPE_SEED)
    token = int(rng.integers(0, 2**32))
    names = [f"doc-{token:08x}-{index:05d}" for index in range(docs)]
    preload = {name: rng.bytes(doc_bytes) for name in names}
    live = dict(preload)
    puts = round(ops_per_client * MIX[0])
    deletes = round(ops_per_client * MIX[2])
    kinds = ["put"] * puts + ["delete"] * deletes
    kinds += ["get"] * (ops_per_client - len(kinds))
    schedules: List[List[Op]] = []
    for client in range(clients):
        owned = names[client::clients]
        if deletes >= len(owned):
            raise ValueError(
                f"{deletes} deletes per client would empty its {len(owned)} documents"
            )
        schedule: List[Op] = []
        for position in shape.permutation(len(kinds)):
            kind = kinds[position]
            slot = int(shape.integers(len(owned)))
            name = owned[slot]
            if kind == "put":
                live[name] = rng.bytes(doc_bytes)
                schedule.append((kind, name, live[name]))
            elif kind == "get":
                schedule.append((kind, name, live[name]))
            else:
                owned[slot] = owned[-1]
                owned.pop()
                del live[name]
                schedule.append((kind, name, None))
        schedules.append(schedule)
    return Corpus(docs=preload, schedules=schedules, live=live)
