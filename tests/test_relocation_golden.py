"""Golden relocations: where ``relocate_many`` sends rebuilt blocks.

``tests/test_placement_golden.py`` pins ``spread-domains`` through the
service's repair with full avoid lists; this file pins the relocation
choice itself for what that one does not reach: the other registered
policies, the cooperative backup's ``OwnerHomePlacement`` (node level),
``spread-domains`` at rack level and with spare domains to rank, partial and
widened avoid lists, capacity-limited clusters, and AE as well as stripe
ids.

Each trial puts a block set on a bare cluster, fails one target and
relocates the blocks that lived there, restores it, fails a second target
and relocates again.  A digest is a sha256 over every trial's
``(repr(block_id), target)`` pairs in request order, for every avoid mode,
capacity setting and seed of one case (recorded on ``5da2aaa``).  A round
that runs out of room is recorded as its refusal.  ``PYTHONPATH=src:. python
tests/test_relocation_golden.py`` prints the table (record on the parent of a
relocation change, never to make a failing test pass).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core.blocks import BlockId, DataId, ParityId
from repro.core.parameters import AEParameters, STRAND_CLASS_ORDER
from repro.exceptions import PlacementError
from repro.schemes.stripe import StripeBlockId
from repro.storage import placement
from repro.storage.cluster import StorageCluster
from repro.storage.placement import PlacementPolicy
from repro.system.backup import OwnerHomePlacement

PAYLOAD = b"\x5a" * 8
SEEDS = (1, 7)
AVOID_MODES = ("full", "partial", "widened")
#: ``None``: unlimited locations; an int: this many blocks of headroom over
#: the fullest location after the put, so relocations fill survivors (with
#: 2, some rounds run out of room and are refused).
CAPACITY_SLACK = (None, 2, 8)

#: case -> (policy factory over a seed, the two failure targets).
CASES: Dict[str, Tuple[Callable[[int], PlacementPolicy], Tuple[str, str]]] = {
    "spread-site-spare": (
        lambda seed: placement.get(
            "spread-domains", "sites=7,racks=1,nodes=2",
            params=AEParameters.parse("AE(2,2,5)"), seed=seed,
        ),
        ("site:0", "site:3"),
    ),
    "spread-site-full-width": (
        lambda seed: placement.get(
            "spread-domains", "sites=4,racks=2,nodes=2",
            params=AEParameters.parse("AE(3,2,5)"), seed=seed,
        ),
        ("site:0", "rack:1/0"),
    ),
    "spread-rack": (
        lambda seed: placement.get(
            "spread-domains", "sites=2,racks=3,nodes=2",
            params=AEParameters.parse("AE(2,2,5)"), seed=seed, level="rack",
        ),
        ("rack:0/0", "rack:1/2"),
    ),
    "random": (
        lambda seed: placement.get("random", "sites=3,racks=2,nodes=2", seed=seed),
        ("site:0", "rack:1/1"),
    ),
    "weighted": (
        lambda seed: placement.get("weighted", "sites=3,racks=2,nodes=2", seed=seed),
        ("site:1", "rack:2/0"),
    ),
    "round-robin": (
        lambda seed: placement.get(
            "round-robin", "sites=3,racks=2,nodes=2",
            params=AEParameters.parse("AE(3,2,5)"), seed=seed,
        ),
        ("site:2", "rack:0/1"),
    ),
    "owner-home": (
        lambda seed: OwnerHomePlacement(f"node-{seed % 6}", seed % 6, 6),
        ("node:1", "node:4"),
    ),
}
#: The cases placed over AE ids only (the backup network holds AE lattices).
AE_ONLY = {"owner-home"}


def ae_ids(alpha: int = 3, nodes: int = 60) -> List[BlockId]:
    ids: List[BlockId] = []
    for index in range(1, nodes + 1):
        ids.append(DataId(index))
        ids.extend(ParityId(index, cls) for cls in STRAND_CLASS_ORDER[:alpha])
    return ids


def stripe_ids(stripes: int = 17, width: int = 14) -> List[BlockId]:
    return [StripeBlockId(stripe, position) for stripe in range(stripes) for position in range(width)]


ID_SETS: Dict[str, Callable[[], List[BlockId]]] = {"ae": ae_ids, "stripe": stripe_ids}


def _avoid(failed: Sequence[int], mode: str, location_count: int) -> List[int]:
    if mode == "full":
        return list(failed)
    if mode == "partial":  # some failed locations are not on the list
        return list(failed[: len(failed) // 2])
    # widened: one location that is up is ruled out too
    return list(failed) + [max(set(range(location_count)) - set(failed))]


def trial(
    policy: PlacementPolicy,
    targets: Tuple[str, str],
    block_ids: List[BlockId],
    mode: str,
    capacity_blocks: Optional[int],
) -> List[Tuple[str, object]]:
    """Put, then two fail -> relocate -> restore rounds; every target chosen."""
    cluster = StorageCluster(placement=policy, capacity_blocks=capacity_blocks)
    cluster.put_many((block_id, PAYLOAD) for block_id in block_ids)
    chosen: List[Tuple[str, object]] = []
    for target in targets:
        failed = list(cluster.topology.locations_for_target(target))
        down = set(failed)
        lost = [block_id for block_id in block_ids if cluster.location_of(block_id) in down]
        cluster.fail_locations(failed)
        try:
            moved = cluster.relocate_many(
                ((block_id, PAYLOAD) for block_id in lost),
                avoid=_avoid(failed, mode, cluster.location_count),
            )
        except PlacementError as exc:  # nothing is written before the refusal
            chosen.append(("refused", str(exc)))
        else:
            chosen.extend((repr(block_id), moved[block_id]) for block_id in lost)
        cluster.restore_locations(failed)
    return chosen


def _fullest(policy: PlacementPolicy, block_ids: List[BlockId]) -> int:
    counts: Dict[int, int] = {}
    for location in policy.locations_for(block_ids):
        counts[location] = counts.get(location, 0) + 1
    return max(counts.values())


def relocation_digest(case: str, id_set: str) -> str:
    factory, targets = CASES[case]
    block_ids = ID_SETS[id_set]()
    chosen = []
    for seed in SEEDS:
        for slack in CAPACITY_SLACK:
            capacity = None if slack is None else _fullest(factory(seed), block_ids) + slack
            for mode in AVOID_MODES:
                chosen.append(trial(factory(seed), targets, block_ids, mode, capacity))
    return hashlib.sha256(repr(chosen).encode("utf-8")).hexdigest()


def _cases() -> List[Tuple[str, str]]:
    return [
        (case, id_set)
        for case in CASES
        for id_set in ID_SETS
        if id_set == "ae" or case not in AE_ONLY
    ]


RELOCATION_GOLDEN: Dict[Tuple[str, str], str] = {
    ('spread-site-spare', 'ae'): '683908db4133a2aa4a2812ec8e299ebd430ff61b68f90bdc29a495a960f37395',
    ('spread-site-spare', 'stripe'): '96f6ec1f43e71802016c7badd59634dcc76c3e05336bb33e3071656d5ee80b46',
    ('spread-site-full-width', 'ae'): '95a470b080455ffd0e720d56c26e27edef722bbc8e428cde7a8dfe914fab6391',
    ('spread-site-full-width', 'stripe'): '86b5d74981d0050870611ccf7e0f50ee8819fb742be1077db2131954eaee35ee',
    ('spread-rack', 'ae'): 'bb7b10a282e0d008d7ad39a06f5bf6f454d20edabe117252e0596a1752d78d74',
    ('spread-rack', 'stripe'): '533e0c8cbe29157a6366291faba30970fd318b45fa22daca6b77894f55fb1077',
    ('random', 'ae'): '4a188542d87f2543388f68265c9538188e8b4d8b65fb61ef63a198f57a01422a',
    ('random', 'stripe'): '10423333a5f51cdbea25116d8686d305e9ab4b086593fcd03a73a33c8b218b9c',
    ('weighted', 'ae'): '909a57a81251d4dfb089a43c3bdc945ca036adc11601bbb6746e501f98e2d18e',
    ('weighted', 'stripe'): 'd5d133c385079b24fbf17ca399fd825a1d48aca2b67ed7b6d41a263cb29e98fb',
    ('round-robin', 'ae'): '6e788051159b0764e01e6b273596c71998989497dc85c793ea6afe91f2189d32',
    ('round-robin', 'stripe'): '8f530dc99e0962f0fdb2d49dfc891432fff76eaa9fccb33b046284892568f10b',
    ('owner-home', 'ae'): '00c696baab99a7f5da9966c6d60344650609c9da9aed8dbcbb79f2f8a9f0f9ee',
}


@pytest.mark.parametrize("case,id_set", _cases())
def test_relocation_targets(case, id_set):
    assert relocation_digest(case, id_set) == RELOCATION_GOLDEN[case, id_set]


def test_every_case_is_pinned():
    assert sorted(RELOCATION_GOLDEN) == sorted(_cases())


if __name__ == "__main__":  # pragma: no cover - recording aid
    print("RELOCATION_GOLDEN: Dict[Tuple[str, str], str] = {")
    for key in _cases():
        print(f"    {key!r}: {relocation_digest(*key)!r},")
    print("}")
