"""Golden placements: where every block lives after put and two repairs.

The literals below were recorded on the commit *before* placement became a
batch function (PR 15's parent, ``01d8bef``) and pin the contract that change
had to keep: ``spread-domains`` puts, and the domain-aware relocation of
rebuilt blocks, land every block on exactly the location the per-block code
chose.  The ``LATTICE_GOLDEN`` / ``CAPACITY_GOLDEN`` literals were recorded
through the cluster repair manager's per-block loop; since PR 21 they are
reproduced by ``StorageService.repair()`` over the same lattice (checked on
PR 21's parent, ``b2ce1fa``, before the manager was deleted), so they pin
the one remaining repair path to where that loop put every block.

Each digest is a sha256 over the sorted ``(repr(block_id), location)``
directory after put -> fail a domain -> ``repair()`` -> restore -> fail a
second domain -> ``repair()``.  ``PYTHONPATH=src:. python
tests/test_placement_golden.py`` prints the tables (use it to record on the
parent of a placement change, never to make a failing test pass).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Tuple

import pytest

from repro.codes.entanglement import EntanglementScheme
from repro.core.blocks import BlockId, DataId, ParityId
from repro.core.parameters import AEParameters, STRAND_CLASS_ORDER
from repro.schemes.stripe import StripeBlockId
from repro.storage import placement
from repro.storage.cluster import StorageCluster
from repro.storage.topology import Topology, TopologyNode
from repro.system.service import StorageConfig, StorageService

from tests.conftest import make_payload

BLOCK_SIZE = 64

#: topology spec -> the two disasters, repaired one after the other.
DISASTERS: Dict[str, Tuple[str, str]] = {
    "sites=7,racks=2,nodes=2": ("site:0", "rack:1/0"),
    "sites=4,racks=2,nodes=2": ("site:0", "rack:1/0"),
    "sites=1,racks=3,nodes=4": ("rack:0/0", "rack:0/1"),
}
SCHEMES = ("ae-3-2-5", "ae-2-2-5", "rs-10-4", "rep-3")
AE_SPECS = {"ae-3-2-5": "AE(3,2,5)", "ae-2-2-5": "AE(2,2,5)"}
SEEDS = (1, 7)


def directory_digest(cluster: StorageCluster) -> str:
    entries = sorted(
        (repr(block_id), cluster.location_of(block_id))
        for block_id in cluster.block_ids()
    )
    return hashlib.sha256(repr(entries).encode("utf-8")).hexdigest()


def two_disasters(cluster: StorageCluster, spec: str, repair) -> None:
    for target in DISASTERS[spec]:
        failed = cluster.topology.locations_for_target(target)
        cluster.fail_locations(failed)
        repair()
        cluster.restore_locations(failed)


def service_digest(scheme_id: str, spec: str, seed: int) -> str:
    service = StorageService.open(
        StorageConfig(
            scheme=scheme_id,
            block_size=BLOCK_SIZE,
            topology=spec,
            placement="spread-domains",
            seed=seed,
        )
    )
    for number, blocks in enumerate((37, 90, 11)):
        size = blocks * BLOCK_SIZE - 5 * number
        service.put(f"doc-{number}", bytes((seed + 7 * i) % 251 for i in range(size)))
    two_disasters(service.cluster, spec, service.repair)
    return directory_digest(service.cluster)


def lattice_digest(scheme_id: str, spec: str, seed: int, capacity_blocks=None) -> str:
    """One 120-block AE lattice on a bare cluster, repaired by the service.

    With ``capacity_blocks`` the relocation candidates change as locations
    fill.
    """
    params = AEParameters.parse(AE_SPECS[scheme_id])
    topology = Topology.parse(spec)
    policy = placement.get("spread-domains", topology, params=params, seed=seed)
    cluster = StorageCluster(placement=policy, capacity_blocks=capacity_blocks)
    service = StorageService(EntanglementScheme(params, BLOCK_SIZE), cluster)
    service.put(
        "lattice", b"".join(make_payload(index, BLOCK_SIZE) for index in range(1, 121))
    )
    two_disasters(cluster, spec, service.repair)
    return directory_digest(cluster)


def mixed_ids() -> List[BlockId]:
    ids: List[BlockId] = []
    for index in range(1, 400):
        ids.append(DataId(index))
        ids.extend(ParityId(index, cls) for cls in STRAND_CLASS_ORDER)
        ids.append(StripeBlockId(index // 14, index % 14))
    return ids


def uneven_topology() -> Topology:
    """3 sites x 2 racks with 1-3 nodes per rack and capacities 0.5-3.0."""
    nodes = []
    for site in range(3):
        for rack in range(2):
            for _ in range(1 + (site + rack) % 3):
                nodes.append(
                    TopologyNode(
                        len(nodes),
                        f"site-{site}",
                        f"rack-{rack}",
                        f"n{len(nodes)}",
                        capacity=0.5 + (len(nodes) * 7 % 6) / 2,
                    )
                )
    return Topology(nodes)


def policy_digest(name: str) -> str:
    """Every registered policy over uneven capacities, without any repair."""
    policy = placement.get(
        name, uneven_topology(), params=AEParameters.parse("AE(3,2,5)"), seed=5
    )
    ids = mixed_ids()
    if name == "strand-aware":  # an AE-only policy: it has no lane for stripes
        ids = [block_id for block_id in ids if not isinstance(block_id, StripeBlockId)]
    bulk = policy.locations_for(ids)
    assert bulk == [policy.location_for(block_id) for block_id in ids]
    return hashlib.sha256(repr(bulk).encode("utf-8")).hexdigest()


SERVICE_GOLDEN: Dict[Tuple[str, str, int], str] = {
    ('ae-3-2-5', 'sites=7,racks=2,nodes=2', 1): '17071a92e098f9d17be6e38f2c4bead708e49d5f23715e35a15bf729297cb422',
    ('ae-3-2-5', 'sites=7,racks=2,nodes=2', 7): '0dbb94909ea09b9344ce6dd1808ce55ebfb10bb9230c1e8c405b2a216d014da7',
    ('ae-3-2-5', 'sites=4,racks=2,nodes=2', 1): '8a31d42cc49f381a5e08987843809549bb4c6b9c481ddeb1303408dc8b435de0',
    ('ae-3-2-5', 'sites=4,racks=2,nodes=2', 7): '240ff2576e7b0be6b62415b2d375ebcef974a8495c82ae7d9a1a36d48ff159c5',
    ('ae-3-2-5', 'sites=1,racks=3,nodes=4', 1): '8c10b84157f879aaffa115b0eaa60be07810abbadc891c6788f7738ce143a92c',
    ('ae-3-2-5', 'sites=1,racks=3,nodes=4', 7): '35e0fbaf4f4308c1d98ed1dc48cd6f2fcb3c1dc6b89743d839e0eae1ba8a732f',
    ('ae-2-2-5', 'sites=7,racks=2,nodes=2', 1): 'b62fe8d31d70b991856d88c171c2d8e51db3a9c3336d349d8c9b5a65919f6444',
    ('ae-2-2-5', 'sites=7,racks=2,nodes=2', 7): '350b715d8e011b3836144393fa6bd8dd6c3e191bb9a4f58d05c417eccb20f787',
    ('ae-2-2-5', 'sites=4,racks=2,nodes=2', 1): 'f98ca68324ef2945caf2a054b51e2a11779ef2576501e8502f27a14e21a35107',
    ('ae-2-2-5', 'sites=4,racks=2,nodes=2', 7): 'd0c6db632aee7a7c1518815763eb01ef52549a1e18134a3d2f9fda5cc8bbd506',
    ('ae-2-2-5', 'sites=1,racks=3,nodes=4', 1): '7919c451be820caa0016a2f0430dcd0a40ca1b3cefe561de51cd8c56ac88670b',
    ('ae-2-2-5', 'sites=1,racks=3,nodes=4', 7): 'a6569365acf364ea237099ebb47f99b6bc7d5c4dac1d87bddafd5fa59c19ee98',
    ('rs-10-4', 'sites=7,racks=2,nodes=2', 1): 'bf8cf47c68e748d46d073098c5e8e746be9e594b880de61993d492295df63cd7',
    ('rs-10-4', 'sites=7,racks=2,nodes=2', 7): 'bc731aa64a893256a9591f37c94bd9c1349e5785e1a7a01509249b1a7b1646e4',
    ('rs-10-4', 'sites=4,racks=2,nodes=2', 1): 'c23eeb96acc327425983a3995912c0ef5f2b07169bba63211ce6f1419d276620',
    ('rs-10-4', 'sites=4,racks=2,nodes=2', 7): '2dedd8c1942d68e0cecb02b96b0cd5a6ef75d6c491467f20d717c4ec807413e7',
    ('rs-10-4', 'sites=1,racks=3,nodes=4', 1): '4fed331a7441fc37845de3749b188dae914104705acc93335e4787cf01259335',
    ('rs-10-4', 'sites=1,racks=3,nodes=4', 7): 'f05291b9191dc42fccdb5a06a456d43b49a8a1e8d5a00bfd8fc2bbbfed2515cc',
    ('rep-3', 'sites=7,racks=2,nodes=2', 1): '059bff977aa854f7efd713049d88efd63e03f45055303b0806d5023cf5e25113',
    ('rep-3', 'sites=7,racks=2,nodes=2', 7): 'd5f48a9c1cfd9815268cfaf19dfb2ee370f83308ccc1d4e641f2c322c06d7167',
    ('rep-3', 'sites=4,racks=2,nodes=2', 1): '61899f9b56a9c4458e0f2e153dfcd73455739126287802d40451da9ba9f25272',
    ('rep-3', 'sites=4,racks=2,nodes=2', 7): 'ba35d763e63a6000412e2c034a4fd87b64a51b81efae627c22486e61a7b1c2e5',
    ('rep-3', 'sites=1,racks=3,nodes=4', 1): '0fc1400de701b6980e681c74f5dcdce253444b0f0ef18ceb786fa30c10eedfd7',
    ('rep-3', 'sites=1,racks=3,nodes=4', 7): '1628739b03de51d1b0fd7d2308705854f65e778e10032e39caa95aba4e1959f1',
}

LATTICE_GOLDEN: Dict[Tuple[str, str, int], str] = {
    ('ae-3-2-5', 'sites=7,racks=2,nodes=2', 1): 'da7957c21a6a75815ab2c8bb277d819e83562931610e98c3a2c3f20966d095dc',
    ('ae-3-2-5', 'sites=7,racks=2,nodes=2', 7): '006b349d6e26720d2112f4adbcd062c32c3a3f3b76b15212da1b2cc0fc0e235e',
    ('ae-3-2-5', 'sites=4,racks=2,nodes=2', 1): 'c38d602b00a0dc3a20ab541d74e7e39bb142919c2616419b2374c9af258a7527',
    ('ae-3-2-5', 'sites=4,racks=2,nodes=2', 7): 'd8ba5b03104ce7107eb5806d615eda42dc7bab973732bb6e827136679e98b23a',
    ('ae-3-2-5', 'sites=1,racks=3,nodes=4', 1): 'ee3f6e1ac51e9fbd11d237dcd81f91691d4a5a861a2acc000c63e1622fcd0625',
    ('ae-3-2-5', 'sites=1,racks=3,nodes=4', 7): '46b8bda23da4d618428953474f780972e0a3e69bf9339aa934d00141378e7ed3',
    ('ae-2-2-5', 'sites=7,racks=2,nodes=2', 1): 'e53a9cfced1c3978605852c6579722ab23aff6dd7e0511f9892eb420145e5efb',
    ('ae-2-2-5', 'sites=7,racks=2,nodes=2', 7): '37b7e07ec41556c788cce6d926614e56e5096de6e70ad196ca2efc9d5271283c',
    ('ae-2-2-5', 'sites=4,racks=2,nodes=2', 1): '82d577d414a4a4735b5538d63e03795ef1b74dc02d8ea39df6f14ada9267790d',
    ('ae-2-2-5', 'sites=4,racks=2,nodes=2', 7): 'f1ce8f96720c1e903b0e1b2669a035e7772179a96e8930bd7d6c47f265260cf3',
    ('ae-2-2-5', 'sites=1,racks=3,nodes=4', 1): '03b6ec8e41a992765cd2e689b6c5a666b54769d01574696eeaadc77bbb87e757',
    ('ae-2-2-5', 'sites=1,racks=3,nodes=4', 7): 'ec0eb4ed5c29f58dc027c99271a0a2c7544b05b562f08d52274bc66e4d3f6f34',
}

#: Locations hold at most this many blocks: the first disaster's rebuilt
#: blocks fill some survivors, so the per-block candidate list shrinks mid-round.
CAPACITY_CASE = ("ae-3-2-5", "sites=7,racks=2,nodes=2")
CAPACITY_BLOCKS = 27
CAPACITY_GOLDEN: Dict[int, str] = {
    1: '34ef8f3ca5530f4a0d542ca52d49c08ca95dc0b5dcedf3f876b8ff4c8b3968f6',
    7: '7a6f1acffd14800993a7c4b9bbff91b77fd759fbf010852135a444b298564081',
}

POLICY_GOLDEN: Dict[str, str] = {
    'random': 'e0ead27703fca884bc871d8cf8d4b029069b607c84c5bfbbae32fde5fcda4dfa',
    'round-robin': '76da47516e9b5b88fd01d7f3e833cc9f4f1798464fde26c0becab4ab04b894e9',
    'spread-domains': '577d95b57f0791b31f46ee1d56d964a8232a928b21cdb66b0e75eba1c34bdb75',
    'strand-aware': '7714fdc5cbf67914fd999bc1cb9fd8604b883e0f5c72a7b6f8e3561eedbc95d7',
    'weighted': '277f566bd0edf428e84de4bfb441b5e43ef3d974da08139c2ed723dc311fda86',
}


def _cases(scheme_ids: Iterable[str]) -> List[Tuple[str, str, int]]:
    return [
        (scheme_id, spec, seed)
        for scheme_id in scheme_ids
        for spec in DISASTERS
        for seed in SEEDS
    ]


@pytest.mark.parametrize("scheme_id,spec,seed", _cases(SCHEMES))
def test_service_repair_directory(scheme_id, spec, seed):
    assert service_digest(scheme_id, spec, seed) == SERVICE_GOLDEN[scheme_id, spec, seed]


@pytest.mark.parametrize("scheme_id,spec,seed", _cases(AE_SPECS))
def test_lattice_repair_directory(scheme_id, spec, seed):
    assert lattice_digest(scheme_id, spec, seed) == LATTICE_GOLDEN[scheme_id, spec, seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_lattice_repair_directory_with_full_locations(seed):
    assert (
        lattice_digest(*CAPACITY_CASE, seed, capacity_blocks=CAPACITY_BLOCKS)
        == CAPACITY_GOLDEN[seed]
    )


@pytest.mark.parametrize("name", sorted(POLICY_GOLDEN))
def test_policy_locations(name):
    assert policy_digest(name) == POLICY_GOLDEN[name]


def test_every_registered_policy_is_pinned():
    assert sorted(POLICY_GOLDEN) == placement.available()


if __name__ == "__main__":  # pragma: no cover - recording aid
    print("SERVICE_GOLDEN = {")
    for case in _cases(SCHEMES):
        print(f"    {case!r}: {service_digest(*case)!r},")
    print("}\nLATTICE_GOLDEN = {")
    for case in _cases(AE_SPECS):
        print(f"    {case!r}: {lattice_digest(*case)!r},")
    print("}\nCAPACITY_GOLDEN = {")
    for seed in SEEDS:
        digest = lattice_digest(*CAPACITY_CASE, seed, capacity_blocks=CAPACITY_BLOCKS)
        print(f"    {seed!r}: {digest!r},")
    print("}\nPOLICY_GOLDEN = {")
    for name in placement.available():
        print(f"    {name!r}: {policy_digest(name)!r},")
    print("}")
