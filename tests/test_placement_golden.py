"""Golden placements: where every block lives after put and two repairs.

The literals below were recorded on the commit *before* placement became a
batch function (PR 15's parent, ``01d8bef``) and pin the contract that change
had to keep: ``spread-domains`` puts, and the domain-aware relocation of
rebuilt blocks, land every block on exactly the location the per-block code
chose.  The ``LATTICE_GOLDEN`` / ``CAPACITY_GOLDEN`` literals were recorded
through the cluster repair manager's per-block loop; since PR 21 they are
reproduced by ``StorageService.repair()`` over the same lattice (checked on
PR 21's parent, ``b2ce1fa``, before the manager was deleted), so they pin
the one remaining repair path to where that loop put every block.  Every
location digest of ``spread-domains`` (the three tables below and its
``POLICY_GOLDEN`` row) was re-recorded on purpose when its node draw became
one SplitMix64 pass over packed keys (child of ``4f06494``): that change
moves the node inside each domain and, as ``DOMAIN_GOLDEN`` shows, no
domain.

Each digest is a sha256 over the sorted ``(repr(block_id), location)``
directory after put -> fail a domain -> ``repair()`` -> restore -> fail a
second domain -> ``repair()``.  ``PYTHONPATH=src:. python
tests/test_placement_golden.py`` prints the tables (use it to record on the
parent of a placement change, never to make a failing test pass).

``DOMAIN_GOLDEN`` pins less and must survive more: per service and lattice
case, a sha256 over the sorted ``(repr(block_id), domain)`` pairs -- the
failure domain at the policy's spread level -- after the put and after the
first disaster's ``repair()``.  A change to the node draw *inside* a domain
moves the location digests but none of these: the put picks each block's
domain without the draw, and the first disaster fails whole domains, so its
repair sees the same lost set and re-places it by domain alone.  The
second, rack-level disaster is not pinned here: which blocks it takes
depends on the node the draw picked inside each site.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
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


def domain_digest(cluster: StorageCluster) -> str:
    domain_of = cluster.topology.location_domains(cluster.placement.spread_level())
    entries = sorted(
        (repr(block_id), domain_of[cluster.location_of(block_id)])
        for block_id in cluster.block_ids()
    )
    return hashlib.sha256(repr(entries).encode("utf-8")).hexdigest()


def two_disasters(cluster: StorageCluster, spec: str, repair) -> Tuple[str, str]:
    """Run both disasters; the domain digests after put and first repair."""
    domains = [domain_digest(cluster)]
    for target in DISASTERS[spec]:
        failed = cluster.topology.locations_for_target(target)
        cluster.fail_locations(failed)
        repair()
        domains.append(domain_digest(cluster))
        cluster.restore_locations(failed)
    return domains[0], domains[1]


#: One run per case: ``(domains after put, after first repair)`` and the
#: final directory digest.
Run = Tuple[Tuple[str, str], str]


@lru_cache(maxsize=None)
def service_run(scheme_id: str, spec: str, seed: int) -> Run:
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
    domains = two_disasters(service.cluster, spec, service.repair)
    return domains, directory_digest(service.cluster)


def service_digest(scheme_id: str, spec: str, seed: int) -> str:
    return service_run(scheme_id, spec, seed)[1]


@lru_cache(maxsize=None)
def lattice_run(scheme_id: str, spec: str, seed: int, capacity_blocks=None) -> Run:
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
    domains = two_disasters(cluster, spec, service.repair)
    return domains, directory_digest(cluster)


def lattice_digest(scheme_id: str, spec: str, seed: int, capacity_blocks=None) -> str:
    return lattice_run(scheme_id, spec, seed, capacity_blocks)[1]


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
    return hashlib.sha256(repr(bulk).encode("utf-8")).hexdigest()


SERVICE_GOLDEN: Dict[Tuple[str, str, int], str] = {
    ('ae-3-2-5', 'sites=7,racks=2,nodes=2', 1): '0192d7a93cea2c40454e2e1ef9d4c25bf48a0dd665f04fe3a31a1fc00e9f46e4',
    ('ae-3-2-5', 'sites=7,racks=2,nodes=2', 7): '92f65ed001b05949ef30383544eeed05f691f61aa8e5b8a1638b768986ac6316',
    ('ae-3-2-5', 'sites=4,racks=2,nodes=2', 1): '016c9f51d29769525c69e68af99931708ccdcacbfb72fe52946898b2cd4c167a',
    ('ae-3-2-5', 'sites=4,racks=2,nodes=2', 7): '822ef40bd6adc86732a91443243cffa7c5f5b73e440bda8a92e6f2fb97a5da8b',
    ('ae-3-2-5', 'sites=1,racks=3,nodes=4', 1): '5e0e93feeab6e60acb47abe697b5de8d3fdaa6fc1d58a6a8f94d0de2aad978a8',
    ('ae-3-2-5', 'sites=1,racks=3,nodes=4', 7): '329cf355def19996c79888c2811a9e7eee12e85389938243e1d86656309118cd',
    ('ae-2-2-5', 'sites=7,racks=2,nodes=2', 1): 'e850e72977e7e64a5455a437cac288510e7bc23f57de5f0cfc87b81aae6030fb',
    ('ae-2-2-5', 'sites=7,racks=2,nodes=2', 7): '360cb8c36800e1931317a3169dc4dab8c07ed2cbf926065382c7c458f0c28085',
    ('ae-2-2-5', 'sites=4,racks=2,nodes=2', 1): '09d3a1e26adb15aa62ff6a00e8c22eec92de5bd0110eeab3051ae093e1b81780',
    ('ae-2-2-5', 'sites=4,racks=2,nodes=2', 7): '255e73f53369d9bd1076bd525f22e1bad368933e100a956b2af658c92586b948',
    ('ae-2-2-5', 'sites=1,racks=3,nodes=4', 1): '2eef95dbc7871aeb156c56597cb9ef88fdbd332966f29b52cb1baf002a460f76',
    ('ae-2-2-5', 'sites=1,racks=3,nodes=4', 7): 'f2f14d996c163faa0de7f8f14f968636c7d0783f7a33b5730b57d87e9ec64ecb',
    ('rs-10-4', 'sites=7,racks=2,nodes=2', 1): '79a51706038203b296f0f37bce55b567d1fc25ee2db8f0f7862b5c5af53e07ac',
    ('rs-10-4', 'sites=7,racks=2,nodes=2', 7): '45cc40ed4705067845703853084efa747249d07db41fa4453a44467a25677124',
    ('rs-10-4', 'sites=4,racks=2,nodes=2', 1): 'dfbe832423f6517dd2205bcab367aee5c5ca2cdce6b8cc2ec6ec89d664fef6f3',
    ('rs-10-4', 'sites=4,racks=2,nodes=2', 7): '91f8ab292ec247ab4a609ac726262eeedabaa7ebba275975197fdc76acad5726',
    ('rs-10-4', 'sites=1,racks=3,nodes=4', 1): 'b4c8dbc3e64e604d7d8fb5b316ef47f267e399d383c209054c4027cc355e7a5c',
    ('rs-10-4', 'sites=1,racks=3,nodes=4', 7): '9afea3ffb84d4d3b5b2cfc533280a81012132c4553ee888ad102dcfafccc202b',
    ('rep-3', 'sites=7,racks=2,nodes=2', 1): '869cf080b638515c01cab1e126153dae3b84c613034293fade6a7110655ed638',
    ('rep-3', 'sites=7,racks=2,nodes=2', 7): 'bb18dbadb89926a68d51a577908b19e7eba0a97f5e431e05bed35c0eb87b6746',
    ('rep-3', 'sites=4,racks=2,nodes=2', 1): '220396592fff2070156ab45fb33948198a73af7ecd162fbdbf717ea9cf1aa1c2',
    ('rep-3', 'sites=4,racks=2,nodes=2', 7): 'ee9e6fe9df54a685bb6a984d43c49a6ee137404238c1627346dd61771503fd55',
    ('rep-3', 'sites=1,racks=3,nodes=4', 1): 'bef2b14954c6c29dde70ae846e3a5feef7525cc0ec6772eadea8e856271b5537',
    ('rep-3', 'sites=1,racks=3,nodes=4', 7): 'ee6de5ad915e03e5adb9d18504f714f577d856476ec492ff98a22eb4de2970bc',
}

LATTICE_GOLDEN: Dict[Tuple[str, str, int], str] = {
    ('ae-3-2-5', 'sites=7,racks=2,nodes=2', 1): '2e2e77c9362846552e2bcb433bf0889504ae242961d23c648c50cad44dcce8f0',
    ('ae-3-2-5', 'sites=7,racks=2,nodes=2', 7): '726225e7cc35e7890fd830316035cb5647ef2e15704b0aabed79d9446de21c12',
    ('ae-3-2-5', 'sites=4,racks=2,nodes=2', 1): '895a46d5c6159364e5e700328a945f623eed8c95a9027d7cebd351bd4c9e61a6',
    ('ae-3-2-5', 'sites=4,racks=2,nodes=2', 7): 'a1fb869891b8f87bd419ae0cd0c1876597beaf28774db948470ae78a17ea0141',
    ('ae-3-2-5', 'sites=1,racks=3,nodes=4', 1): 'ed1fbe304908bb42d296b4969fd6ee238959844c860175d534953dd926ddd7eb',
    ('ae-3-2-5', 'sites=1,racks=3,nodes=4', 7): 'd954f17af0e62f6617e62badf887d10894e030867a4ef267b968f6f99c9fc11e',
    ('ae-2-2-5', 'sites=7,racks=2,nodes=2', 1): 'e6a7eeae79d8666d6dab048321f1ba8b3057f712b292d9e0f92aa60ee8d9530b',
    ('ae-2-2-5', 'sites=7,racks=2,nodes=2', 7): 'e1a331d24d54d484362035284310364759eb78fc1da5fedfd62a6648eb1d746b',
    ('ae-2-2-5', 'sites=4,racks=2,nodes=2', 1): 'bd9761ff48c2c93863ec011a442239e92c196a92978dae95c5347df42c11134a',
    ('ae-2-2-5', 'sites=4,racks=2,nodes=2', 7): '312392715f19ca73eeba35827c3ecb5953491d2cc6a02fc357f29477a775b9c8',
    ('ae-2-2-5', 'sites=1,racks=3,nodes=4', 1): 'a7ead716002f42c2003458e9907f8d8f53e6464606e9e12e85f6858c0c3b5d5e',
    ('ae-2-2-5', 'sites=1,racks=3,nodes=4', 7): 'fb835a834fab4df40a7d2459673d957dbeaaf419c1e38ca43ba197263bd24ed9',
}

#: Locations hold at most this many blocks: the first disaster's rebuilt
#: blocks fill some survivors, so the per-block candidate list shrinks mid-round.
CAPACITY_CASE = ("ae-3-2-5", "sites=7,racks=2,nodes=2")
CAPACITY_BLOCKS = 27
CAPACITY_GOLDEN: Dict[int, str] = {
    1: '5568263d19b414e82947f5fe6063000fd869464d8261d580ea620f8929e1740b',
    7: '9abe1d6e235fba4e8f06441b8106fd9776138e69c4ae61a9b541ff1610a06360',
}

POLICY_GOLDEN: Dict[str, str] = {
    'random': 'e0ead27703fca884bc871d8cf8d4b029069b607c84c5bfbbae32fde5fcda4dfa',
    'round-robin': '76da47516e9b5b88fd01d7f3e833cc9f4f1798464fde26c0becab4ab04b894e9',
    'spread-domains': '2290af813435c01354afaba505941225703e036755080fbcdf85529d3580ac91',
    'strand-aware': '7714fdc5cbf67914fd999bc1cb9fd8604b883e0f5c72a7b6f8e3561eedbc95d7',
    'weighted': '277f566bd0edf428e84de4bfb441b5e43ef3d974da08139c2ed723dc311fda86',
}


#: Recorded on ``4f06494``, before the node draw inside a domain changed, and
#: held unmodified by that change.
DOMAIN_GOLDEN: Dict[Tuple[str, str, str, int], Tuple[str, str]] = {
    ('service', 'ae-3-2-5', 'sites=7,racks=2,nodes=2', 1): (
        'f64ce8c6e4aed85062d1f47c7d6a02a484ff66fa5878ee1ced79f60a7bd839b4',
        '90958dd6b9c77d7b34269b4e04f5def31a5beab5fb12fd1ed41bd7f764452e91',
    ),
    ('service', 'ae-3-2-5', 'sites=7,racks=2,nodes=2', 7): (
        'f64ce8c6e4aed85062d1f47c7d6a02a484ff66fa5878ee1ced79f60a7bd839b4',
        '90958dd6b9c77d7b34269b4e04f5def31a5beab5fb12fd1ed41bd7f764452e91',
    ),
    ('service', 'ae-3-2-5', 'sites=4,racks=2,nodes=2', 1): (
        '0b80f13b2ece2b56a8e1de075aa87e5348187ceea8e4adac95e34bab08ecfa86',
        '2551259aa5c2fcc48404a86db4dde3aa5528ac6e246124eec3d4682f6f988f00',
    ),
    ('service', 'ae-3-2-5', 'sites=4,racks=2,nodes=2', 7): (
        '0b80f13b2ece2b56a8e1de075aa87e5348187ceea8e4adac95e34bab08ecfa86',
        '2551259aa5c2fcc48404a86db4dde3aa5528ac6e246124eec3d4682f6f988f00',
    ),
    ('service', 'ae-3-2-5', 'sites=1,racks=3,nodes=4', 1): (
        '023c42833f1dd217efcf75078a6a340e4fac5c77e2b430443f10ad1479f04b35',
        '53719d9ead03f62ef41b04787b3d58eb322ce8e61675a76256c395b1bb85d5f8',
    ),
    ('service', 'ae-3-2-5', 'sites=1,racks=3,nodes=4', 7): (
        '023c42833f1dd217efcf75078a6a340e4fac5c77e2b430443f10ad1479f04b35',
        '53719d9ead03f62ef41b04787b3d58eb322ce8e61675a76256c395b1bb85d5f8',
    ),
    ('service', 'ae-2-2-5', 'sites=7,racks=2,nodes=2', 1): (
        '56a704774c73e138cf1c36bf1f9bde9c6236c398f9918dc535b146a4cee5eaf2',
        'b9dfc05f8c185ea94e1a039235cc1b9b4ca0804cd274e52f94e1beed0158a555',
    ),
    ('service', 'ae-2-2-5', 'sites=7,racks=2,nodes=2', 7): (
        '56a704774c73e138cf1c36bf1f9bde9c6236c398f9918dc535b146a4cee5eaf2',
        'b9dfc05f8c185ea94e1a039235cc1b9b4ca0804cd274e52f94e1beed0158a555',
    ),
    ('service', 'ae-2-2-5', 'sites=4,racks=2,nodes=2', 1): (
        '5334e55dac487f17d5117ece7d8217a2766afa340e90e29a52c909046fcf3c45',
        'b08df446a475ec3b993fa9cc03dede6ac4f663aa9246fcf74050274658529149',
    ),
    ('service', 'ae-2-2-5', 'sites=4,racks=2,nodes=2', 7): (
        '5334e55dac487f17d5117ece7d8217a2766afa340e90e29a52c909046fcf3c45',
        'b08df446a475ec3b993fa9cc03dede6ac4f663aa9246fcf74050274658529149',
    ),
    ('service', 'ae-2-2-5', 'sites=1,racks=3,nodes=4', 1): (
        '7de6e8d77b075ef29dbb4880bd709d2c6b10a07b4a189ff9aa391ef8fcf20b11',
        '2c42f3946743fc418c56240049e5e49bd86e43f2852a1c3e7d7329f75b0d4e9f',
    ),
    ('service', 'ae-2-2-5', 'sites=1,racks=3,nodes=4', 7): (
        '7de6e8d77b075ef29dbb4880bd709d2c6b10a07b4a189ff9aa391ef8fcf20b11',
        '2c42f3946743fc418c56240049e5e49bd86e43f2852a1c3e7d7329f75b0d4e9f',
    ),
    ('service', 'rs-10-4', 'sites=7,racks=2,nodes=2', 1): (
        'f68f9a9a7444c4d6df204bb576e30756fd17e5d4f63c29309cb1623dc9213ff8',
        '9abdec1d497f825a4dc4158db99e583c746e449546120ebf9cc0a1a2ea90aa2e',
    ),
    ('service', 'rs-10-4', 'sites=7,racks=2,nodes=2', 7): (
        'f68f9a9a7444c4d6df204bb576e30756fd17e5d4f63c29309cb1623dc9213ff8',
        '9abdec1d497f825a4dc4158db99e583c746e449546120ebf9cc0a1a2ea90aa2e',
    ),
    ('service', 'rs-10-4', 'sites=4,racks=2,nodes=2', 1): (
        '71f7f7a6dbc15b774647780e56cfddc27b95bf3eac1c42d775960c504b7d9a27',
        '65189104fe59d11f6db0759647862707dce4a4da9dccdc0add4fea0b0a80b2e3',
    ),
    ('service', 'rs-10-4', 'sites=4,racks=2,nodes=2', 7): (
        '71f7f7a6dbc15b774647780e56cfddc27b95bf3eac1c42d775960c504b7d9a27',
        '65189104fe59d11f6db0759647862707dce4a4da9dccdc0add4fea0b0a80b2e3',
    ),
    ('service', 'rs-10-4', 'sites=1,racks=3,nodes=4', 1): (
        'd499359bf54841afd32064ced27e4a096447c34b4283786874fe1de3ead0802d',
        '4438900763595b7457770e8d326cb7d1c222d5597aa7f0e1f4e30deba53f5c5b',
    ),
    ('service', 'rs-10-4', 'sites=1,racks=3,nodes=4', 7): (
        'd499359bf54841afd32064ced27e4a096447c34b4283786874fe1de3ead0802d',
        '4438900763595b7457770e8d326cb7d1c222d5597aa7f0e1f4e30deba53f5c5b',
    ),
    ('service', 'rep-3', 'sites=7,racks=2,nodes=2', 1): (
        'b6f42462e056ada27858768b2e58f398bedaa16ba0ed48fcab3cc3df3cfc077c',
        '770fa279881a5357694ad67af44195f93959c2ed19604926aa99da019858bc9b',
    ),
    ('service', 'rep-3', 'sites=7,racks=2,nodes=2', 7): (
        'b6f42462e056ada27858768b2e58f398bedaa16ba0ed48fcab3cc3df3cfc077c',
        '770fa279881a5357694ad67af44195f93959c2ed19604926aa99da019858bc9b',
    ),
    ('service', 'rep-3', 'sites=4,racks=2,nodes=2', 1): (
        '56cc24491369b2b39f0c87a07180dbb2824ee35fc7533e201b389b97f95d2fa5',
        '8d79402407a522a2bb1c52bf8a92a8ef0df45b2593d6827b7c79a6445b600a83',
    ),
    ('service', 'rep-3', 'sites=4,racks=2,nodes=2', 7): (
        '56cc24491369b2b39f0c87a07180dbb2824ee35fc7533e201b389b97f95d2fa5',
        '8d79402407a522a2bb1c52bf8a92a8ef0df45b2593d6827b7c79a6445b600a83',
    ),
    ('service', 'rep-3', 'sites=1,racks=3,nodes=4', 1): (
        '1c1464dc706ba3b893af3b3f013e9fc5560b813616f02e04af8f364fce20dc60',
        'c16f09995a0357b1a95a99655e3b6604b594391bd56a46a75d06b31270aa5857',
    ),
    ('service', 'rep-3', 'sites=1,racks=3,nodes=4', 7): (
        '1c1464dc706ba3b893af3b3f013e9fc5560b813616f02e04af8f364fce20dc60',
        'c16f09995a0357b1a95a99655e3b6604b594391bd56a46a75d06b31270aa5857',
    ),
    ('lattice', 'ae-3-2-5', 'sites=7,racks=2,nodes=2', 1): (
        'b13c0ab31418737015d6336e6a2cae1e47502bf51d549c56baf14c49e15c16ae',
        'e7ba171aa4441b4435de97fc20128d39c7aab761835d88f943444ad4be4672c4',
    ),
    ('lattice', 'ae-3-2-5', 'sites=7,racks=2,nodes=2', 7): (
        'b13c0ab31418737015d6336e6a2cae1e47502bf51d549c56baf14c49e15c16ae',
        'e7ba171aa4441b4435de97fc20128d39c7aab761835d88f943444ad4be4672c4',
    ),
    ('lattice', 'ae-3-2-5', 'sites=4,racks=2,nodes=2', 1): (
        '2dad0ec6d2dc5bc98d64c089235abd4d46b7235c15347f813ce0c9d06a58a1d8',
        '258ee1bc41f08532f81e5eedf58862990f690506ef8727f340519204aa5c5413',
    ),
    ('lattice', 'ae-3-2-5', 'sites=4,racks=2,nodes=2', 7): (
        '2dad0ec6d2dc5bc98d64c089235abd4d46b7235c15347f813ce0c9d06a58a1d8',
        '258ee1bc41f08532f81e5eedf58862990f690506ef8727f340519204aa5c5413',
    ),
    ('lattice', 'ae-3-2-5', 'sites=1,racks=3,nodes=4', 1): (
        'df3e55383ac12f3d6df041291a0b1fd9815edbb0557aa12f1b731144ea397c2c',
        'd0a6f99ef2bbb0899a542517ebfeeb2c57548f76c9e810040da925ccf89c79f6',
    ),
    ('lattice', 'ae-3-2-5', 'sites=1,racks=3,nodes=4', 7): (
        'df3e55383ac12f3d6df041291a0b1fd9815edbb0557aa12f1b731144ea397c2c',
        'd0a6f99ef2bbb0899a542517ebfeeb2c57548f76c9e810040da925ccf89c79f6',
    ),
    ('lattice', 'ae-2-2-5', 'sites=7,racks=2,nodes=2', 1): (
        'e135f24c239bcc0a4699b78ee45461181d0972d98a6e5dae4dbb9c6919ae8e59',
        '27d7a037834be84d19fb1074851f06da6f0a06248f9bf5291a5fc02429586d17',
    ),
    ('lattice', 'ae-2-2-5', 'sites=7,racks=2,nodes=2', 7): (
        'e135f24c239bcc0a4699b78ee45461181d0972d98a6e5dae4dbb9c6919ae8e59',
        '27d7a037834be84d19fb1074851f06da6f0a06248f9bf5291a5fc02429586d17',
    ),
    ('lattice', 'ae-2-2-5', 'sites=4,racks=2,nodes=2', 1): (
        '677a06053bf3ba546c0b40f57f3a2eb1f0418e462e7932af48e653ea92c3917b',
        '802c71272bcbb153ee6b547c78e4d073626e0d8205e290c4c5f944354629020c',
    ),
    ('lattice', 'ae-2-2-5', 'sites=4,racks=2,nodes=2', 7): (
        '677a06053bf3ba546c0b40f57f3a2eb1f0418e462e7932af48e653ea92c3917b',
        '802c71272bcbb153ee6b547c78e4d073626e0d8205e290c4c5f944354629020c',
    ),
    ('lattice', 'ae-2-2-5', 'sites=1,racks=3,nodes=4', 1): (
        '9d598a4133d91251664eda2059b842d862cd9c6eecb94f5494e5db0e97bdf61e',
        '36bd5f9b44759a5188e4e3f7a9d2b48595446bd90c572aefdcbb2ef58254f1e1',
    ),
    ('lattice', 'ae-2-2-5', 'sites=1,racks=3,nodes=4', 7): (
        '9d598a4133d91251664eda2059b842d862cd9c6eecb94f5494e5db0e97bdf61e',
        '36bd5f9b44759a5188e4e3f7a9d2b48595446bd90c572aefdcbb2ef58254f1e1',
    ),
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


@pytest.mark.parametrize("scheme_id,spec,seed", _cases(SCHEMES))
def test_service_domains_after_put_and_first_repair(scheme_id, spec, seed):
    assert service_run(scheme_id, spec, seed)[0] == DOMAIN_GOLDEN["service", scheme_id, spec, seed]


@pytest.mark.parametrize("scheme_id,spec,seed", _cases(AE_SPECS))
def test_lattice_domains_after_put_and_first_repair(scheme_id, spec, seed):
    assert lattice_run(scheme_id, spec, seed)[0] == DOMAIN_GOLDEN["lattice", scheme_id, spec, seed]


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
    print("}\nDOMAIN_GOLDEN = {")
    for kind, run, cases in (
        ("service", service_run, _cases(SCHEMES)),
        ("lattice", lattice_run, _cases(AE_SPECS)),
    ):
        for case in cases:
            print(f"    {(kind,) + case!r}: {run(*case)[0]!r},")
    print("}\nPOLICY_GOLDEN = {")
    for name in placement.available():
        print(f"    {name!r}: {policy_digest(name)!r},")
    print("}")
