"""Golden AE repair output: recovered bytes, read sets and targets, bit for bit.

The literals below were recorded on the commit *before* block ids became
named tuples and ``execute_plan`` became one gather-free pairwise XOR pass
(PR 18's parent, ``365b7d7``) and pin the contract that change had to keep:
``EntanglementScheme.repair`` recovers exactly the same blocks with exactly
the same bytes, reports the same ``unrecovered`` list, ``blocks_read`` and
``rounds``, and a service repair relocates every rebuilt block onto the same
location.  The equivalence tests prove the batched path agrees with the
per-block decoder; a change to tuple choice order, to the round loop or to a
set iteration order both share would keep that agreement and break these
hashes.

Each scheme-level digest is a sha256 over six loss patterns -- a single data
block, a single parity, blocks at strand starts (virtual zero input), a
multi-round hole (once through the bulk hooks, once through a plain
callable), an unrecoverable tail and a round whose chosen input disappears
between plan and fetch -- at block sizes 1, 7 and 4096.  The service-level
digests are one ``ae-3-2-5`` lifecycle (put -> fail ``site:0`` -> degraded
get -> ``repair()``) on the ``memory`` backend and on the ``segment`` log,
whose reads are read-only mmap views.  Ids enter the hashes through
``repr`` and ``block_sort_key`` only, so the file does not care how an id is
represented.  ``PYTHONPATH=src:. python tests/test_ae_repair_golden.py``
prints the tables (use it to record on the parent of a repair-path change,
never to make a failing test pass).
"""

from __future__ import annotations

import hashlib
import tempfile
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np
import pytest

import repro.schemes as schemes
from repro.core.batch_repair import block_sort_key, plan_round
from repro.core.blocks import BlockId, DataId, ParityId
from repro.system.service import StorageConfig, StorageService

SCHEMES = ("ae-3-2-5", "ae-2-2-5", "ae-1-1-0", "ae-3-2-5-p80")
SIZES = (1, 7, 4096)
BACKENDS = ("memory", "segment")
SEED = 20182
#: Lattice nodes encoded per scheme-level digest.
NODES = 64


def _digest(parts: Iterable[object]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        blob = part.encode("utf-8") if isinstance(part, str) else bytes(part)
        sha.update(len(blob).to_bytes(8, "little"))
        sha.update(blob)
    return sha.hexdigest()


class _Source:
    """A block source with the bulk hooks of ``ClusterBlockSource``.

    Blocks in ``vanishing`` are reported available but never arrive -- the
    location died between the round's plan and its fetch.
    """

    def __init__(
        self, blocks: Dict[BlockId, np.ndarray], vanishing: Iterable[BlockId] = ()
    ) -> None:
        self._blocks = blocks
        self._vanishing = set(vanishing)

    def __call__(self, block_id: BlockId) -> Optional[np.ndarray]:
        if block_id in self._vanishing:
            return None
        return self._blocks.get(block_id)

    def is_available(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def try_get_many(self, block_ids: Iterable[BlockId]) -> List[Optional[np.ndarray]]:
        return [self(block_id) for block_id in block_ids]


def _node(index: int, classes: Iterable[object]) -> List[BlockId]:
    return [DataId(index), *(ParityId(index, strand_class) for strand_class in classes)]


def repair_digest(scheme_id: str, size: int) -> str:
    """Six loss patterns through ``scheme.repair`` on a 64-node lattice."""
    scheme = schemes.get(scheme_id, block_size=size)
    rng = np.random.default_rng([SEED, size])
    part = scheme.encode(rng.integers(0, 256, size=NODES * size, dtype=np.uint8).tobytes())
    store = {block_id: np.array(blob, copy=True) for block_id, blob in part.blocks}
    classes = scheme.params.strand_classes
    first_parity = next(
        ParityId(index, classes[0])
        for index in range(30, NODES)
        if ParityId(index, classes[0]) in store
    )
    # The first tuple the planner picks for d40 loses its output parity.
    dying = next(parity for parity in _node(40, classes)[1:] if parity in store)
    # Whole nodes lost, as wide as every setting still repairs: 1, 4, 7 nodes.
    hole = [
        block_id
        for index in range(20, 20 + 3 * len(classes) - 2)
        for block_id in _node(index, classes)
    ]
    tail = [block_id for index in range(NODES - 9, NODES + 1) for block_id in _node(index, classes)]
    patterns: List[Tuple[str, List[BlockId], List[BlockId], bool]] = [
        ("data", [DataId(30)], [], True),
        ("parity", [first_parity], [], True),
        ("strand-start", [DataId(1), DataId(2), *_node(3, classes)[1:]], [], True),
        ("multi-round", hole, [], True),
        ("multi-round-plain", hole, [], False),
        ("unrecoverable", tail, [], True),
        ("vanishing", [DataId(40)], [dying], True),
    ]
    parts: List[object] = [f"{scheme_id}@{size}"]
    for name, lost, vanishing, hooks in patterns:
        # A punctured parity was never stored, so it cannot be lost.
        missing: Set[BlockId] = {block_id for block_id in lost if block_id in store}
        survivors = {b: blob for b, blob in store.items() if b not in missing}
        source = _Source(survivors, vanishing)
        outcome = scheme.repair(set(missing), source if hooks else source.__call__)
        recovered = sorted(outcome.recovered, key=block_sort_key)
        for block_id in recovered:
            assert bytes(outcome.recovered[block_id]) == bytes(store[block_id])
            assert outcome.recovered[block_id].flags.writeable
        assert set(recovered) | set(outcome.unrecovered) == missing
        if name == "strand-start":
            steps = plan_round(scheme.lattice, sorted(missing, key=block_sort_key), source.is_available)
            assert any(step.first is None or step.second is None for step in steps)
        if name.startswith("multi-round"):
            assert outcome.rounds > 1 and not outcome.unrecovered
        if name == "unrecoverable":
            assert outcome.unrecovered
        if name == "vanishing":
            # Another strand class takes over; the single chain has none.
            assert (recovered == [DataId(40)]) == (len(classes) > 1)
        parts.append(name)
        parts.append(repr(sorted(missing, key=block_sort_key)))
        parts.append(repr(recovered))
        parts.extend(outcome.recovered[block_id] for block_id in recovered)
        parts.append(repr(outcome.unrecovered))
        parts.append(repr((outcome.blocks_read, outcome.rounds)))
    return _digest(parts)


def service_digest(backend: str, data_dir: Optional[str]) -> str:
    """put -> fail ``site:0`` -> degraded get -> ``repair()`` on ``ae-3-2-5``."""
    service = StorageService.open(
        StorageConfig(
            scheme="ae-3-2-5",
            block_size=4096,
            topology="sites=7,racks=2,nodes=2",
            placement="spread-domains",
            seed=1,
            backend=backend,
            data_dir=data_dir,
            # No read cache: on ``segment`` every repair input is a fresh
            # read-only mmap view.
            cache_blocks=0,
        )
    )
    try:
        rng = np.random.default_rng([SEED, 3])
        documents = {
            f"doc-{number}": rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
            for number, length in enumerate((256 * 1024, 100_000, 4096 * 10, 17))
        }
        for name, data in documents.items():
            service.put(name, data)
        service.fail_locations(service.topology.locations_for_target("site:0"))
        parts: List[object] = [backend]
        for name, data in documents.items():
            recovered = service.get(name)
            assert recovered == data
            parts.append(recovered)
        report = service.repair()
        assert report.data_loss == 0 and not report.unrecovered and report.repaired
        cluster = service.cluster
        parts.append(repr(report.repaired))
        parts.append(repr((report.blocks_read, report.rounds)))
        parts.append(repr([cluster.location_of(block_id) for block_id in report.repaired]))
        parts.extend(cluster.try_get_block(block_id) for block_id in report.repaired)
        for name, data in documents.items():
            recovered = service.get(name)
            assert recovered == data
            parts.append(recovered)
        return _digest(parts)
    finally:
        service.close()


REPAIR_GOLDEN: Dict[Tuple[str, int], str] = {
    ('ae-3-2-5', 1): '9bef537ebd55379063232475dcc94c685eb9a9c088ab2b788b01b2269132f9b1',
    ('ae-3-2-5', 7): 'aef67e0428dcec246f52c347f2e84a2daadd0a549d5f8b777ac24e6b0e4da148',
    ('ae-3-2-5', 4096): 'cf2991a0b075fdcaa8dd06f6082135674cc1ac4432ebb989df879237210086f1',
    ('ae-2-2-5', 1): '6383994787916962a1ae4cdab62c7e308c7471e4831254848367fc03d4d44e9e',
    ('ae-2-2-5', 7): '0b9729daa6f4d1c10a26dac5af7ffa22de466ce22a7e70ef0642ca57b202ac72',
    ('ae-2-2-5', 4096): 'f5b4378b1f1cdb7da60494d8bd52b70a7d6ff82f85f3cde9d720f285bb83f3d4',
    ('ae-1-1-0', 1): '270cdab9fe143a3a69fc42f9b8a0327f948cc3aa47264c9a2ca31f66ed17d655',
    ('ae-1-1-0', 7): '2153be22fce359530cfbcc17145d8151bcdfe10010e52f24efed0c15c0cda255',
    ('ae-1-1-0', 4096): '0bf5a0fb31564ab6d9eadda48336f5285c008ea1f3749326817d9b025754f8dd',
    ('ae-3-2-5-p80', 1): '5c9c73489ae43053c7330dd78293195b52ed8887197696f890045ef541a9f062',
    ('ae-3-2-5-p80', 7): 'a915182c65154067293791638ee50461da6349bd7ef605c8f7181129db2d8fa8',
    ('ae-3-2-5-p80', 4096): 'd77ac3c6379b11b85a99389e5122e20042d135c5f908729ba4b770957f5a5278',
}

SERVICE_GOLDEN: Dict[str, str] = {
    'memory': 'd05002868d075d39540377186e86fa588d33dc75ee6fe6e86e980b4aeab85cd5',
    'segment': '3fba15872a9ecf110fafb66bddf286913bb8fa8acb240a8c1939fdf4f4add857',
}


@pytest.mark.parametrize("scheme_id", SCHEMES)
@pytest.mark.parametrize("size", SIZES)
def test_scheme_repair_is_unchanged(scheme_id: str, size: int) -> None:
    assert repair_digest(scheme_id, size) == REPAIR_GOLDEN[(scheme_id, size)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_service_lifecycle_is_unchanged(backend: str, tmp_path) -> None:
    data_dir = None if backend == "memory" else str(tmp_path / "service")
    assert service_digest(backend, data_dir) == SERVICE_GOLDEN[backend]


if __name__ == "__main__":  # pragma: no cover - recording helper
    print("REPAIR_GOLDEN: Dict[Tuple[str, int], str] = {")
    for scheme_id in SCHEMES:
        for size in SIZES:
            print(f"    {(scheme_id, size)!r}: {repair_digest(scheme_id, size)!r},")
    print("}\n\nSERVICE_GOLDEN: Dict[str, str] = {")
    for backend in BACKENDS:
        with tempfile.TemporaryDirectory() as scratch:
            digest = service_digest(backend, None if backend == "memory" else scratch)
        print(f"    {backend!r}: {digest!r},")
    print("}")
