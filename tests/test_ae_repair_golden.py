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

Each scheme-level digest is a sha256 over one loss pattern -- a single data
block, a single parity, blocks at strand starts (virtual zero input), a
multi-round hole, an unrecoverable tail and a round whose chosen input
disappears between plan and fetch -- at block sizes 1, 7 and 4096, keyed per
(scheme, size, pattern) so one pattern moving names itself.  Re-keyed on
``2642e26`` (PR 24's parent) before ``src/`` was touched; on PR 24 every
``ae-3-2-5`` / ``ae-2-2-5`` entry passed unmodified, ``multi-round-plain``
retired with the plain-callable mode of ``RepairRun``, and twelve entries
were re-recorded on purpose: ``vanishing`` on ``ae-1-1-0`` (the single chain
now rebuilds the vanished parity as an intermediate and recovers ``d40``:
``(blocks_read, rounds)`` (1, 0) -> (4, 2)) and ``parity`` / ``multi-round``
/ ``unrecoverable`` on ``ae-3-2-5-p80`` (same recovered ids, bytes and
``unrecovered``; punctured parities are regenerated on demand, not all up
front: (92, 2) -> (6, 2), (125, 6) -> (69, 7), (80, 2) -> (2, 1)).  The
service-level
digests are one ``ae-3-2-5`` lifecycle (put -> fail ``site:0`` -> degraded
get -> ``repair()``) on the ``memory`` backend and on the ``segment`` log,
whose reads are read-only mmap views.  Ids enter the hashes through
``repr`` and ``block_sort_key`` only, so the file does not care how an id is
represented.  ``PYTHONPATH=src:. python tests/test_ae_repair_golden.py``
prints the tables (use it to record on the parent of a repair-path change,
never to make a failing test pass).
"""

from __future__ import annotations

import functools
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
PATTERNS = (
    "data",
    "parity",
    "strand-start",
    "multi-round",
    "unrecoverable",
    "vanishing",
)


def _digest(parts: Iterable[object]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        blob = part.encode("utf-8") if isinstance(part, str) else bytes(part)
        sha.update(len(blob).to_bytes(8, "little"))
        sha.update(blob)
    return sha.hexdigest()


class _Source:
    """A dict of payloads as a ``BlockSource``.

    Blocks in ``vanishing`` are reported available but never arrive -- the
    location died between the round's plan and its fetch.
    """

    def __init__(
        self, blocks: Dict[BlockId, np.ndarray], vanishing: Iterable[BlockId] = ()
    ) -> None:
        self._blocks = blocks
        self._vanishing = set(vanishing)

    def is_available(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def try_get_many(self, block_ids: Iterable[BlockId]) -> List[Optional[np.ndarray]]:
        return [
            None if block_id in self._vanishing else self._blocks.get(block_id)
            for block_id in block_ids
        ]


def _node(index: int, classes: Iterable[object]) -> List[BlockId]:
    return [DataId(index), *(ParityId(index, strand_class) for strand_class in classes)]


@functools.lru_cache(maxsize=None)
def repair_digests(scheme_id: str, size: int) -> Dict[str, str]:
    """One digest per loss pattern through ``scheme.repair`` on a 64-node lattice."""
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
    patterns: List[Tuple[str, List[BlockId], List[BlockId]]] = [
        ("data", [DataId(30)], []),
        ("parity", [first_parity], []),
        ("strand-start", [DataId(1), DataId(2), *_node(3, classes)[1:]], []),
        ("multi-round", hole, []),
        ("unrecoverable", tail, []),
        ("vanishing", [DataId(40)], [dying]),
    ]
    digests: Dict[str, str] = {}
    for name, lost, vanishing in patterns:
        parts: List[object] = [f"{scheme_id}@{size}", name]
        # A punctured parity was never stored, so it cannot be lost.
        missing: Set[BlockId] = {block_id for block_id in lost if block_id in store}
        survivors = {b: blob for b, blob in store.items() if b not in missing}
        source = _Source(survivors, vanishing)
        outcome = scheme.repair(set(missing), source)
        recovered = sorted(outcome.recovered, key=block_sort_key)
        for block_id in recovered:
            assert bytes(outcome.recovered[block_id]) == bytes(store[block_id])
            assert outcome.recovered[block_id].flags.writeable
        assert set(recovered) | set(outcome.unrecovered) == missing
        if name == "strand-start":
            steps = plan_round(scheme.lattice, sorted(missing, key=block_sort_key), source.is_available)
            assert any(step.first is None or step.second is None for step in steps)
        if name == "multi-round":
            assert outcome.rounds > 1 and not outcome.unrecovered
        if name == "unrecoverable":
            assert outcome.unrecovered
        if name == "vanishing":
            # Another strand class takes over; the single chain has none and
            # rebuilds the vanished parity as an intermediate.
            assert recovered == [DataId(40)]
        parts.append(repr(sorted(missing, key=block_sort_key)))
        parts.append(repr(recovered))
        parts.extend(outcome.recovered[block_id] for block_id in recovered)
        parts.append(repr(outcome.unrecovered))
        parts.append(repr((outcome.blocks_read, outcome.rounds)))
        digests[name] = _digest(parts)
    return digests


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


REPAIR_GOLDEN: Dict[Tuple[str, int, str], str] = {
    ('ae-3-2-5', 1, 'data'): 'b70348ecfcde7eb12f7bf6331dd1b5016c30a1b0140da1ecfa31f6959a5ec2eb',
    ('ae-3-2-5', 1, 'parity'): 'aef8732815d81fa02defe037a6e7d1d3fae1c69e9e7baef995636f13afbcbf05',
    ('ae-3-2-5', 1, 'strand-start'): '7373c6a6deb19dd2d9de98686f820ca8404879f80f0320b30c327614e19a85ca',
    ('ae-3-2-5', 1, 'multi-round'): '0eeba7c1d611609893431301acf8894313ce5f3462b4c535c903ca1986afd456',
    ('ae-3-2-5', 1, 'unrecoverable'): 'a9cd2b9d1d0bef3dcf505a37c79df5de42b00b86c61866a1fc2bc39f3c066f59',
    ('ae-3-2-5', 1, 'vanishing'): 'acc57e8a3c0faa51775d4bf42347a52f1e5365a30737b7e1bf66521ab02c9625',
    ('ae-3-2-5', 7, 'data'): 'ac3e5e92885151a074b3dde16b5afe7b69b8488a39be40612c0357120704190f',
    ('ae-3-2-5', 7, 'parity'): 'ed801233c2eb078368a66ca8c15e25a2a28cdc33f3b24c40031d2ee62a2cf072',
    ('ae-3-2-5', 7, 'strand-start'): '9aad2c4987d1e41f5e9ad059bbaf7adf72fc3cc971aa3b05a2d9da6db9e76313',
    ('ae-3-2-5', 7, 'multi-round'): '5123ebe4f81b755713e726b632b358a7c05028d62610f2fa1003fd6327d88c2f',
    ('ae-3-2-5', 7, 'unrecoverable'): '0d75b6c27c8c2b23029078718d010fa2cc0799c3ef7d8e27029e1c66b18797dc',
    ('ae-3-2-5', 7, 'vanishing'): '6149183d985a84a746bf975eebefd4c30efc70ca01963414ab8d7562fd892a8c',
    ('ae-3-2-5', 4096, 'data'): 'e86526ad616397146b4f0acdd93acb97d6707e96cc546bc6ca842177381107e4',
    ('ae-3-2-5', 4096, 'parity'): '7e9f254ff8c7e863952b302a1bbe6c33d37b80f6dd193b7a30747fc0cf6ca26f',
    ('ae-3-2-5', 4096, 'strand-start'): '67ae7480e5d2463cc4218bede344ab9481b789a8febaf6b988e42bf2ec923935',
    ('ae-3-2-5', 4096, 'multi-round'): '5f7883dd477725f5b2c83dbf4a997b47e799d3c97e7716b3d6fa1cd1a4b57385',
    ('ae-3-2-5', 4096, 'unrecoverable'): 'beccca87784058d64ee345020e216e2feb0215ab46486a064b67a3402dd26338',
    ('ae-3-2-5', 4096, 'vanishing'): '1f9e9f455bb6bf2e6263133e44d8166af69aa8fa0020b12d19913a193e937fdd',
    ('ae-2-2-5', 1, 'data'): '1c4d723b93709a8618737e583087187c3763968009f00dc46500117037d73abc',
    ('ae-2-2-5', 1, 'parity'): 'aee3fd9b14b0fe32d39dcdf777dd2d3197490228e014295ba701d0d49ce2dad0',
    ('ae-2-2-5', 1, 'strand-start'): '2a0bff2b11cb63dbb1bc6a909943e6b24f214fcace85f763ac9850f470da496c',
    ('ae-2-2-5', 1, 'multi-round'): '80affc15760d8ebd66973d2368c5dc44b035a27771c1a5f3db16b9ae3749a14c',
    ('ae-2-2-5', 1, 'unrecoverable'): '2ab2215563aa5262b41fd92ac1ed0d938b2baf93277cc17356916d4ab0cb4579',
    ('ae-2-2-5', 1, 'vanishing'): '55564b0e5bc67f2349598f2b9ca419524b3538c47177b073d5797e2568fbbfc3',
    ('ae-2-2-5', 7, 'data'): '50517c24ac6aa31ecf6e2a7a915c5e3b3f638716fa896d6e9f19945624fb927a',
    ('ae-2-2-5', 7, 'parity'): '15d286c726601ab9734373cc2d0f9a15ee79e934fb73e8cb29b00df453d2190c',
    ('ae-2-2-5', 7, 'strand-start'): 'df3ebcc98448e0cc9ef02bda2b4f4874a735c72d8e0f23199bc96d40023d7b25',
    ('ae-2-2-5', 7, 'multi-round'): '022858f56e8f979f88cb99071532d620734f46606c74be5b50ee4d337821b984',
    ('ae-2-2-5', 7, 'unrecoverable'): '9aaf26a80c3e3146f1ea7f08e494a300fd139ccc514d356045666d12636fc35d',
    ('ae-2-2-5', 7, 'vanishing'): '4fb0137d816913e8a997bab8ad1787ae81397b32609e9e91cfeeebf27e754e98',
    ('ae-2-2-5', 4096, 'data'): '156d9a758b8f84233043ca188c2d2d3b3330977bce51bea53f7296a5fc8a471f',
    ('ae-2-2-5', 4096, 'parity'): 'c1c470faae8d79a9a1e45b17f2c3573f5687a1c9718a304ffa7f3b34a9aa34f8',
    ('ae-2-2-5', 4096, 'strand-start'): '0206b40adbe44753825411bb70a3d39699a13c378b7d44d9940d0240a896a5ed',
    ('ae-2-2-5', 4096, 'multi-round'): '8d619a2e61f6e405a59dcc4e71c0fe4accb981216fd8771759249125393ca2a8',
    ('ae-2-2-5', 4096, 'unrecoverable'): 'c1776b4960dd3ee4572265b47cc0943d1fc2f9b42037aa57f6a4816639e50a6e',
    ('ae-2-2-5', 4096, 'vanishing'): 'e64e8dc0c0f2d57dff703591d71098f171e45f989c3e54a51dbb888feebfd048',
    ('ae-1-1-0', 1, 'data'): 'b0dde3cef72ddbb751129858d7de0738bfb6c4259933157ecf5e8d320f0b90e8',
    ('ae-1-1-0', 1, 'parity'): '2261d2b7b11316498b48af9585594b8f74b10a4894984edc775ed70012fdf259',
    ('ae-1-1-0', 1, 'strand-start'): 'cd3dc724125904b5f74514b9bda9481ed1d6f0c233901ff3de63299fea657564',
    ('ae-1-1-0', 1, 'multi-round'): 'c4cb509d29c814c3d77042e058af0434620185abdfed96baabced7b36d695848',
    ('ae-1-1-0', 1, 'unrecoverable'): 'ea50e44e199bd7b10e369602ae65f5b7cec0a301620375e02627f0215147154b',
    ('ae-1-1-0', 1, 'vanishing'): 'ad1e31ab020893f8159786c8cc83391a6c911e846b9e324e26cf048a8a0d24d8',
    ('ae-1-1-0', 7, 'data'): '3f2467a132cc749da228f735b0c9060e4ca3d306f4c3be8cbd8d8f7f0a0e58fa',
    ('ae-1-1-0', 7, 'parity'): 'd5fd83c4e465c0e91f31f8c07f8865d2121df4920b29018fab91688cd019d910',
    ('ae-1-1-0', 7, 'strand-start'): '9d48651f358d019b7598469fc27d2d3f9b4dede8751538089b0316262d3e4318',
    ('ae-1-1-0', 7, 'multi-round'): '773d4e5b9b69ca81f8f595d006152afb0f91e040e8f94db4bcd464b72ee8c168',
    ('ae-1-1-0', 7, 'unrecoverable'): '0abc1f5779e21e8f08343592af1fea91f4e08bbe7dff802aae27f6c75dbb11f7',
    ('ae-1-1-0', 7, 'vanishing'): '44872f1a06c950a545fa22fb3dd4461745e260538ee233fa9cce9dcb9e76c437',
    ('ae-1-1-0', 4096, 'data'): '2eb14d12c68e8607b61d7a2ece3d40ce7021440833f0a6245ba7d36c1f549f84',
    ('ae-1-1-0', 4096, 'parity'): '92e6254d08a06697ed9355010518c99648fa25a6af52cda5a70c9342f410cafe',
    ('ae-1-1-0', 4096, 'strand-start'): 'd30723e8f005192177c1fca5d042c21eb47669e27dd8993c1eb1b120e38f403c',
    ('ae-1-1-0', 4096, 'multi-round'): 'aa6da6bb31e43cbac0b5ad699e9894065980f8057c6dce739da1b79953b55965',
    ('ae-1-1-0', 4096, 'unrecoverable'): '0a08ec71da33aa659d8e7894626b358279599c4793290458faf6387363928bad',
    ('ae-1-1-0', 4096, 'vanishing'): 'e44ff64336c895bc573a0830f69961f5b3b77803b62f6985aabda30eeec22ec1',
    ('ae-3-2-5-p80', 1, 'data'): '95fec3d7548404e159e510b956c20d197c39b716e59bf3641d3d2137dcd6c511',
    ('ae-3-2-5-p80', 1, 'parity'): '4e443ebbdb45633f3c5d484840efc8885d89a6d9a0cc287658a59a913966ad59',
    ('ae-3-2-5-p80', 1, 'strand-start'): '247c0573301472061742dfb15927d2b8dbdf7ab686956787808e119734bb8b74',
    ('ae-3-2-5-p80', 1, 'multi-round'): '289c50f5dc441efeff41ac9c2e07d09e252150ab9ae2788c4ab264290b375b2d',
    ('ae-3-2-5-p80', 1, 'unrecoverable'): '1b7a33810701b40387bd2f4dfa0bbc5325dee325075f42782c14fd6bf647972f',
    ('ae-3-2-5-p80', 1, 'vanishing'): '0963401cedfe653b358cf65003818051171243307a1df530799cffc38a0f094d',
    ('ae-3-2-5-p80', 7, 'data'): 'd6716745d1738d047552528eedbc16196335c62179413f198fcf7cf4cc38b26a',
    ('ae-3-2-5-p80', 7, 'parity'): 'eeb0b31f691cb97dfc42bfbcc6c0d89f91cd181f6f7fb39703766a997a65a79b',
    ('ae-3-2-5-p80', 7, 'strand-start'): '3fec370918a3097b9c3e559f0631466309b879a9bea974ba4a2113a2ef4f0e76',
    ('ae-3-2-5-p80', 7, 'multi-round'): '07eee1aa3d637075ed8fc22a06240c8b16518cdd56143d55f1835f681ad4d43b',
    ('ae-3-2-5-p80', 7, 'unrecoverable'): 'e9b187d32d7d46896311f14818a1cc04ac6b45b8098e60eb2780d9ef1362471b',
    ('ae-3-2-5-p80', 7, 'vanishing'): '4bbc4c85d101c840a8c046db22529b8e3574c16aa8c80c7d6ae9f4976a554c15',
    ('ae-3-2-5-p80', 4096, 'data'): 'e6faecc5dd5ad20354a39c5268fcdf4cc12b9e861ea3de1a7c1c05e18a721927',
    ('ae-3-2-5-p80', 4096, 'parity'): '296edea741ad0bada59c71dd82e9aaa41ffa8fef9cf4758bffddcb6973362135',
    ('ae-3-2-5-p80', 4096, 'strand-start'): 'f6dc738146ecaeda9df6f31c7c8151d412a7b24ef4a608fc57db12520d76cf7e',
    ('ae-3-2-5-p80', 4096, 'multi-round'): 'a3a9558af8c98dca244ecefebb3742aa11172cc9330119bc2e12ddad0a4e5850',
    ('ae-3-2-5-p80', 4096, 'unrecoverable'): '4c3a2c39d81fbe97214f5278775afc53ac78a39614e6a0f7a280ce148af37757',
    ('ae-3-2-5-p80', 4096, 'vanishing'): 'f91a36c4afcd2343ab6defd082a4762e06697f8ab8668325a448fb413d6cae3e',
}

SERVICE_GOLDEN: Dict[str, str] = {
    'memory': 'd05002868d075d39540377186e86fa588d33dc75ee6fe6e86e980b4aeab85cd5',
    'segment': '3fba15872a9ecf110fafb66bddf286913bb8fa8acb240a8c1939fdf4f4add857',
}


@pytest.mark.parametrize("scheme_id", SCHEMES)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("pattern", PATTERNS)
def test_scheme_repair_is_unchanged(scheme_id: str, size: int, pattern: str) -> None:
    assert repair_digests(scheme_id, size)[pattern] == REPAIR_GOLDEN[(scheme_id, size, pattern)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_service_lifecycle_is_unchanged(backend: str, tmp_path) -> None:
    data_dir = None if backend == "memory" else str(tmp_path / "service")
    assert service_digest(backend, data_dir) == SERVICE_GOLDEN[backend]


if __name__ == "__main__":  # pragma: no cover - recording helper
    print("REPAIR_GOLDEN: Dict[Tuple[str, int, str], str] = {")
    for scheme_id in SCHEMES:
        for size in SIZES:
            for pattern, digest in repair_digests(scheme_id, size).items():
                print(f"    {(scheme_id, size, pattern)!r}: {digest!r},")
    print("}\n\nSERVICE_GOLDEN: Dict[str, str] = {")
    for backend in BACKENDS:
        with tempfile.TemporaryDirectory() as scratch:
            digest = service_digest(backend, None if backend == "memory" else scratch)
        print(f"    {backend!r}: {digest!r},")
    print("}")
