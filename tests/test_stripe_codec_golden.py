"""Golden stripe-codec output: parities, decodes and repairs, bit for bit.

The literals below were recorded on the commit *before* GF(2^8) got its
table-driven matrix kernel (PR 17's parent, ``c73616f``) and pin the
contract that change had to keep: every stripe code -- the four paper RS
settings, both LRCs, flat XOR and replication -- produces exactly the
parities, full decodes and single/multi-position repairs the per-coefficient
log/exp kernels produced, and a ``StripeScheme`` put lays out exactly the
same blocks whether its stripes are encoded one by one or side by side.
The property tests prove the new kernel agrees with the scalar field; a bug
in a table both share would keep that agreement and break these hashes.

Each digest is a sha256 over the named outputs on fixed seeds, at block
sizes 1, 7 and 4096 and with a short (zero-padded) final stripe.  The
service-level digest is one ``rs-10-4`` lifecycle (put -> fail ``site:0`` ->
degraded get -> ``repair()``) hashing the recovered bytes, the repaired ids
and ``blocks_read``.  ``EXHAUSTIVE_GOLDEN`` (recorded on ``6138bd0``,
before LRC decoded through the recovery-matrix codec RS runs on) hashes
every pattern of one to three erasures of ``lrc-azure``, ``lrc-xorbas`` and
``rs-10-4``: ``can_decode``, the decode and the rebuild.  Its ``xor-geo``,
``xor-raid5-5``, ``xor-mirror-4`` and ``rep-3`` rows (recorded on
``a9a5b1f``, while flat XOR still decoded by peeling and replication by
copying) pin that rank decoding answers every small pattern of those codes
the same way.  ``BATCH_REPAIR_GOLDEN`` (recorded on ``a7265e7``, before
``StripeScheme.repair`` fetched a whole pass at once and rebuilt each
erasure pattern as one wide stripe) hashes one ``repair`` call over 18
stripes that share three loss patterns, through a source that refuses some
of the planned reads; its rows were re-recorded once, when the fallback
fetch of a short plan stopped asking again for the refused plan reads
(every other part of each digest held, each row lost 6 repeated ids).
``PYTHONPATH=src:. python
tests/test_stripe_codec_golden.py`` prints the tables (use it to record on
the parent of a codec change, never to make a failing test pass).
"""

from __future__ import annotations

import hashlib
from itertools import combinations
from typing import Dict, Iterable, List, Tuple

import numpy as np
import pytest

import repro.schemes as schemes
from repro.codes.base import StripeCode
from repro.system.service import StorageConfig, StorageService

from tests.conftest import DictSource, RefusingSource

SCHEMES = (
    "rs-10-4",
    "rs-8-2",
    "rs-5-5",
    "rs-4-12",
    "lrc-azure",
    "lrc-xorbas",
    "xor-geo",
    "xor-raid5-5",
    "rep-3",
)
SIZES = (1, 7, 4096)
SEED = 20181
#: Codes whose every pattern of one to three erasures is pinned, at one size.
EXHAUSTIVE_SCHEMES = (
    "lrc-azure",
    "lrc-xorbas",
    "rs-10-4",
    "xor-geo",
    "xor-raid5-5",
    "xor-mirror-4",
    "rep-3",
)
EXHAUSTIVE_SIZE = 7
#: Stripes of the batch-repair case (the last one short).
BATCH_STRIPES = 18


def _digest(parts: Iterable[object]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        blob = part.encode("utf-8") if isinstance(part, str) else bytes(part)
        sha.update(len(blob).to_bytes(8, "little"))
        sha.update(blob)
    return sha.hexdigest()


def _stripe(code: StripeCode, size: int, salt: int) -> Dict[int, np.ndarray]:
    rng = np.random.default_rng([SEED, size, salt])
    data = [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(code.k)]
    stripe = dict(enumerate(data))
    stripe.update({code.k + i: parity for i, parity in enumerate(code.encode(data))})
    return stripe


def _erasure_patterns(code: StripeCode, salt: int) -> List[Tuple[int, ...]]:
    """No erasure, every single erasure, every pair of a small code, and
    seeded larger patterns -- decodable ones only."""
    patterns: List[Tuple[int, ...]] = [()]
    patterns.extend((position,) for position in range(code.n))
    if code.n <= 6:
        patterns.extend(combinations(range(code.n), 2))
    rng = np.random.default_rng([SEED, code.n, salt])
    for erased in range(2, code.m + 1):
        for _ in range(6):
            patterns.append(
                tuple(sorted(int(p) for p in rng.choice(code.n, size=erased, replace=False)))
            )
    return [
        pattern
        for pattern in dict.fromkeys(patterns)
        if code.can_decode([p for p in range(code.n) if p not in pattern])
    ]


def codec_digest(scheme_id: str, size: int) -> str:
    """Parities, full decodes and single-position repairs of one stripe."""
    code = schemes.get(scheme_id, block_size=size).code
    stripe = _stripe(code, size, salt=0)
    parts: List[object] = [f"{scheme_id}@{size}"]
    parts.extend(stripe[position] for position in range(code.k, code.n))
    for pattern in _erasure_patterns(code, salt=1):
        available = {p: stripe[p] for p in range(code.n) if p not in pattern}
        decoded = code.decode(available)
        assert len(decoded) == code.k
        parts.append(f"decode{pattern}")
        parts.extend(decoded)
    for position in range(code.n):
        others = [p for p in range(code.n) if p != position]
        plan = code.repair_read_positions(position, others)
        assert plan is not None
        cheap = code.repair(position, {p: stripe[p] for p in plan})
        full = code.repair(position, {p: stripe[p] for p in others})
        assert bytes(cheap) == bytes(full) == bytes(stripe[position])
        parts.append(f"repair{position}:{plan}")
        parts.append(cheap)
    return _digest(parts)


def scheme_digest(scheme_id: str, size: int) -> str:
    """A multi-stripe put with a short final stripe, then multi-position
    repairs (within and beyond the code's tolerance) and a degraded read."""
    scheme = schemes.get(scheme_id, block_size=size)
    code = scheme.code
    rng = np.random.default_rng([SEED, size, 2])
    # Two full stripes plus a short one whose last block is itself short.
    blocks = 2 * code.k + max(1, code.k // 2)
    payload = rng.integers(0, 256, size=blocks * size, dtype=np.uint8).tobytes()
    if size > 1:
        payload = payload[: -(size // 2)]
    part = scheme.encode(payload)
    parts: List[object] = [f"{scheme_id}@{size}", repr(part.data_ids), repr(scheme.state())]
    for block_id, blob in part.blocks:
        parts.append(repr(block_id))
        parts.append(blob)
    store = {block_id: np.array(blob, copy=True) for block_id, blob in part.blocks}
    stripes = sorted({block_id.stripe for block_id in store})
    for lost_per_stripe in (1, 2, code.m, code.m + 1):
        lost_per_stripe = min(lost_per_stripe, code.n)
        missing = set()
        for stripe in stripes:
            for position in rng.choice(code.n, size=lost_per_stripe, replace=False):
                missing.add(schemes.StripeBlockId(stripe, int(position)))
        survivors = {b: blob for b, blob in store.items() if b not in missing}
        outcome = scheme.repair(missing, DictSource(survivors))
        for block_id, blob in outcome.recovered.items():
            assert bytes(blob) == bytes(store[block_id])
        parts.append(f"lost{lost_per_stripe}")
        parts.append(repr(sorted(missing)))
        parts.append(repr(sorted(outcome.recovered)))
        parts.extend(outcome.recovered[block_id] for block_id in sorted(outcome.recovered))
        parts.append(repr(sorted(outcome.unrecovered)))
        parts.append(repr((outcome.blocks_read, outcome.rounds)))
    victim = part.data_ids[-1]
    survivors = {b: blob for b, blob in store.items() if b != victim}
    parts.append(scheme.read_block(victim, DictSource(survivors)))
    return _digest(parts)


def service_digest() -> str:
    """put -> fail ``site:0`` -> degraded get -> ``repair()`` on ``rs-10-4``."""
    service = StorageService.open(
        StorageConfig(
            scheme="rs-10-4",
            block_size=4096,
            topology="sites=7,racks=2,nodes=2",
            placement="spread-domains",
            seed=1,
        )
    )
    rng = np.random.default_rng([SEED, 3])
    documents = {
        f"doc-{number}": rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
        for number, length in enumerate((256 * 1024, 100_000, 4096 * 10, 17))
    }
    for name, data in documents.items():
        service.put(name, data)
    service.fail_locations(service.topology.locations_for_target("site:0"))
    parts: List[object] = []
    for name, data in documents.items():
        recovered = service.get(name)
        assert recovered == data
        parts.append(recovered)
    report = service.repair()
    assert report.data_loss == 0 and not report.unrecovered
    parts.append(repr(report.repaired))
    parts.append(repr((report.blocks_read, report.rounds)))
    parts.extend(service.cluster.try_get_many([block_id])[0] for block_id in report.repaired)
    for name, data in documents.items():
        assert service.get(name) == data
    return _digest(parts)


def exhaustive_digest(scheme_id: str) -> str:
    """Every erasure pattern of one to three positions: ``can_decode``, and
    for a decodable one the full decode and the rebuild of the lost rows.

    Covers the LRC patterns whose first ``k`` surviving rows are dependent
    (two losses in one local group), which the seeded patterns may miss.
    """
    code = schemes.get(scheme_id, block_size=EXHAUSTIVE_SIZE).code
    stripe = _stripe(code, EXHAUSTIVE_SIZE, salt=4)
    parts: List[object] = [f"{scheme_id}@{EXHAUSTIVE_SIZE}"]
    for erased in range(1, 4):
        for pattern in combinations(range(code.n), erased):
            available = {p: stripe[p] for p in range(code.n) if p not in pattern}
            decodable = code.can_decode(sorted(available))
            parts.append(f"{pattern}:{decodable}")
            if decodable:
                parts.extend(code.decode(available))
                rebuilt = code.decode(available, list(pattern))
                assert [bytes(b) for b in rebuilt] == [bytes(stripe[p]) for p in pattern]
                parts.extend(rebuilt)
    return _digest(parts)


def _batch_patterns(code: StripeCode) -> Tuple[Tuple[int, ...], ...]:
    """A single loss, a data + parity loss (decodable if any such pair is)
    and ``m + 1`` losses, which no stripe survives."""
    pairs = [pair for pair in combinations(range(code.n), 2) if pair[0] < code.k <= pair[1]]
    multi = next(
        (
            pair
            for pair in pairs
            if code.can_decode([p for p in range(code.n) if p not in pair])
        ),
        (0, code.n - 1),
    )
    return (1,), multi, tuple(range(code.m + 1))


def batch_repair_digest(scheme_id: str, size: int) -> str:
    """One ``repair`` over :data:`BATCH_STRIPES` stripes whose losses follow
    three patterns, so several stripes share each; a third of the
    single-loss stripes and a third of the multi-loss ones have a planned
    read refused, so part of the pass falls back to every survivor."""
    scheme = schemes.get(scheme_id, block_size=size)
    code = scheme.code
    rng = np.random.default_rng([SEED, size, 5])
    blocks = (BATCH_STRIPES - 1) * code.k + max(1, code.k // 2)
    part = scheme.encode(rng.integers(0, 256, size=blocks * size, dtype=np.uint8).tobytes())
    store = {block_id: np.array(blob, copy=True) for block_id, blob in part.blocks}
    patterns = _batch_patterns(code)
    missing = set()
    refused = set()
    for stripe in range(BATCH_STRIPES):
        lost = patterns[(0, 0, 1, 0, 2, 1)[stripe % 6]]
        missing.update(schemes.StripeBlockId(stripe, position) for position in lost)
        others = [p for p in range(code.n) if p not in lost]
        plan = code.repair_read_positions(lost[0], others) if len(lost) == 1 else None
        reads = plan or others
        if len(lost) == 1 and stripe % 4 in (1, 3):
            refused.add(schemes.StripeBlockId(stripe, reads[0 if stripe % 4 == 1 else -1]))
        elif len(lost) == 2 and stripe % 4 == 2:
            refused.add(schemes.StripeBlockId(stripe, reads[0]))
    source = RefusingSource(
        {b: blob for b, blob in store.items() if b not in missing}, refused
    )
    outcome = scheme.repair(missing, source)
    for block_id, blob in outcome.recovered.items():
        assert bytes(blob) == bytes(store[block_id])
    parts: List[object] = [f"{scheme_id}@{size}", repr(sorted(missing)), repr(sorted(refused))]
    parts.append(repr(list(outcome.recovered)))
    parts.extend(outcome.recovered.values())
    parts.append(repr(outcome.unrecovered))
    parts.append(repr((outcome.blocks_read, outcome.rounds)))
    parts.append(repr(sorted(source.requests)))
    return _digest(parts)


CODEC_GOLDEN: Dict[Tuple[str, int], str] = {
    ('rs-10-4', 1): '0be74a31d603bd555a3097a0f6675c8794a55d2be6f338eb40969dd558e419cb',
    ('rs-10-4', 7): 'cbfea7e5ab7eab947e5f5ec4c7af080af7bf52decf76105cbfc7ebf748effa6c',
    ('rs-10-4', 4096): '19d5c02d3885eafccea71acf06d6648eff1f7e4ab026909a300d083c417b187c',
    ('rs-8-2', 1): '822035bac799d82ae904c7eac07a2b37e20b03ac81bacfe00c1907636d016b49',
    ('rs-8-2', 7): '8a3d20c3130d96f9769c5ca039a24c68666d889e466662564e81ad1f95ce7a5c',
    ('rs-8-2', 4096): 'a3ab37bb87966438350588ba75d473716bf1810fe13a40abcdb8958fb8baeb60',
    ('rs-5-5', 1): '7534f62907e5153ccd9a690dc6eb9f9c4ebcec6baccbe5d543667bcce198d24e',
    ('rs-5-5', 7): '370d4a1d5ec3e230c67f78a88fa4fc8ce898a4cebc4b4e7760e0b161c4c10bf4',
    ('rs-5-5', 4096): 'c14ff7f3debf9a2aee4253f0eb25c5de5dfd243b0ee8e3405b2d707db485b338',
    ('rs-4-12', 1): '63345965cea71ae2100fb661a838515bdc6d8742b794bd85bd70120933c33a35',
    ('rs-4-12', 7): '92d69150d07e5c4ebe7f8d17329d89a6bc5d216266b1a2f1ce8b36fb6454b6af',
    ('rs-4-12', 4096): 'afb29783abffb7634c520e8a321122c375e563823f7044141993567cfaec0604',
    ('lrc-azure', 1): 'a9eb9ae12ea952d6d411275665b03d1ac3e29ded6e6b1550568cb8481c08921b',
    ('lrc-azure', 7): '4d643187baca04345037d7545068b14414a9b070811a2b9d3602250918b47228',
    ('lrc-azure', 4096): '71a411291713d7374c92def92243a502cef8fb3274e94b013413494aa9931131',
    ('lrc-xorbas', 1): 'ec4119ac7612083dc66d63989e94c94c15a9df301efa4f9e88cb4a1eba892077',
    ('lrc-xorbas', 7): 'bb79908d3af491c7d74cee0f0d8accf2177f48f356e54a4d33609a5180a5ea6d',
    ('lrc-xorbas', 4096): '351a9397270127b69b4d24cd9e9680ad2836c771ed8e112838a1f11501cf6f8e',
    ('xor-geo', 1): '4086a7a3a669fb5fbcaac37fbd11ad7668d562079ebabcacdec061abdf22af23',
    ('xor-geo', 7): 'ce365ba6988be99bbc369d30ae636511cb718dd0ebc33f02f4ca657fb65d34af',
    ('xor-geo', 4096): '4207c6f79948115362cc3ccde49922630510da70064a2c1d42b7d3091cdb9fc5',
    ('xor-raid5-5', 1): '9ea7a813e53962caa7fd28ad156a71a95233acafd06a3ffc7b86fab4dae469d7',
    ('xor-raid5-5', 7): '65f75cb41b80789f5830be2c319b115d7e135190df012e34fc4b7a242132cf86',
    ('xor-raid5-5', 4096): '36f2a7e7c6cc6c617f14acd75ef5c6bbda5e3db808639638634919b43667a3fd',
    ('rep-3', 1): '552e83e45ba33146d7892590d8646d3a00342cfcb770b880f2568b78012aeb2c',
    ('rep-3', 7): '65261c735d2762e7ac09624a6ba1e48c1b51248746350629efb00a9db06e8194',
    ('rep-3', 4096): '50cea83eeb64cab1180d69692dd13f03fbe74b051bb4e967f9c5b78c6541ff8a',
}

SCHEME_GOLDEN: Dict[Tuple[str, int], str] = {
    ('rs-10-4', 1): '5a6ab2619037d84ec056118d7173c55391a444851af47040502fd02d6ac72749',
    ('rs-10-4', 7): '4e38f3acb6f50ccf23e51404ec64c3ea75c0edeefa82fbc232073aa8bea39540',
    ('rs-10-4', 4096): '7bd163fd3a98d6d2de35620ea63659324f5ef3621cf2cb4f1ee78f66be2c53f1',
    ('rs-8-2', 1): 'c4c7a9bd378f968ad00c1430a6061993ec447f96b94ec363b1a89daaeb43407d',
    ('rs-8-2', 7): 'f249dedfdb987324d6a426618f71730682f2dadfa17195aa02d914c22f75b002',
    ('rs-8-2', 4096): 'b7a7a16c9ebd8c0397993a2a404c06a0317b3ad50ded659fe6d301ed06cd169a',
    ('rs-5-5', 1): '8b6cf4d46ee26a289cefbe09cfd61bc8140b0a08829a059ec62f2ea688012bdb',
    ('rs-5-5', 7): '14dcb33a95daea2d765358330552b23273523b1857a8d32800467076558b6e64',
    ('rs-5-5', 4096): '37ea377c938d48409ab2bc9feb40d98a09c566f4a2f01fa44d51eaf398af3957',
    ('rs-4-12', 1): '12a5a51692fb8297b0930a89f708cd1456af444a2f0c32dbe8cc3f831e0be927',
    ('rs-4-12', 7): '83bfe9d1c6e6f51117f247c0227810bba7e3f0c94ac4856fa462e84bb0fc8fa0',
    ('rs-4-12', 4096): 'b2fadb737dd5daa1980b64f432b122013827b3725e449bc7310efe71fe6c16cc',
    ('lrc-azure', 1): '634cd4092d7f2045ad9b943674b63ae9f73734d57bb66332a89ec95c0686126e',
    ('lrc-azure', 7): '67d7952bf3e5063f2ddf7cfe938e00a739ab76c982715b39e4c95be987dba2f4',
    ('lrc-azure', 4096): '2fe4b0ea1f5dd59aae8db5c2e1263c69387e87db06ea8f0274bb1cac657ac4ec',
    ('lrc-xorbas', 1): 'df5d0be54d8cf0a1a4483a8a95f7492e22bd57a2fc6544db9a0676b747e397d9',
    ('lrc-xorbas', 7): 'dea9ec12e432fd78088dd4970db2138654cc42b74233d92a5424db64d0b7d372',
    ('lrc-xorbas', 4096): '03d7876892c484ba55ed79f243118ba82cfd25527e4b957bea5835444c65d935',
    ('xor-geo', 1): '6ed9d6349c6650bd9c35d1f2e616db6a0a1f99861ec25fbd0e5ea636c7b6d031',
    ('xor-geo', 7): '567cb1ab7ba9c74f004153467229d6057d8372a294c83feff815f71d443c8351',
    ('xor-geo', 4096): '9c77586d178a57baa68bc0c9cbf149fdb8f6b8d2f3877113450ff0a4eb3855c2',
    ('xor-raid5-5', 1): '1e7ccc9f7caddb5df613c70ea96d30d20139e2df7534a54cbee0b5433b690b98',
    ('xor-raid5-5', 7): 'cd09dd60de50178119c162dfa87489a4f43ad5dc17f79d32f7a6f393bd755b20',
    ('xor-raid5-5', 4096): '5d9b042464b6fbb0c9e320ca25cff8d96ba45f531f6f935e9b5cf2ee8e665c4f',
    ('rep-3', 1): '39748a9f781a9a63b3657149162acf4db9580a6166150736606c6c11d8b50f68',
    ('rep-3', 7): '6a36d14ef5d824be93f887bf7ed6c2e931bcec71cbf9fef15e28b9317266952d',
    ('rep-3', 4096): '14694b5029435e8a69896007c2f8de9061d203d0de27f37ac7a6e440d8e32e2b',
}

EXHAUSTIVE_GOLDEN: Dict[str, str] = {
    'lrc-azure': '82b3ced4d4cab9adcd08a8f5a506eb9cbfab92a24987386048832aea818c5bda',
    'lrc-xorbas': '1980ce7fb42630495b3f56ec66599a13c7f3fbf9410729fef5bf4d1b7a50ee1b',
    'rs-10-4': 'b4d7ab7a31ee4de85345d1d953876444419a40582e32c5f6ea6f12e9e2ab5bfc',
    'xor-geo': '8ea98c97f5fe73e122df44d1eb35346d16ecec238c77c748d52b38f1b437ec5e',
    'xor-raid5-5': 'a7f54307682928db5e9d34d7fdf4138b79d9146fe56914ce98eb3ee8a5e9fbe8',
    'xor-mirror-4': '9d10c1066be945fe4974304019e9643bf67371a69d198ab92e29119d7d18f30f',
    'rep-3': '1d86a9be1f1fed5bfe07dc5b626a0c3ce8b24d7d3347bf4ab195e2c0a00772f0',
}

BATCH_REPAIR_GOLDEN: Dict[Tuple[str, int], str] = {
    ('rs-10-4', 1): '3a5e12faa04ff3394615aa862926725f2679118f93f85d97725f72af0bcf7ea0',
    ('rs-10-4', 7): '7b6922598a8c14aad30173ecf2851a5675b1c7d70209ba85b1227fe0af74baae',
    ('rs-10-4', 4096): 'f6c723c764045ed710e2cb733b53f9ba20b05bda83c72c6fb997ca30f623dee3',
    ('rs-8-2', 1): 'ea598785155dd47058013fa4c99884193eb0f146f766132c4b829491c2a0a469',
    ('rs-8-2', 7): '4296350628c5003ef5169fa999fd09110424447e634f3fb55424d3530193dee3',
    ('rs-8-2', 4096): 'b8dc7bbf17d82c8d9ae1690ccf512ba8bec66343b19141f3c6c5851bdc754d9e',
    ('rs-5-5', 1): '7a8d5eea686722c4ded818f28581246082989de78cdfe4bb7088db1109d6d5a6',
    ('rs-5-5', 7): 'cb428e0c1a1a9b0af9f95826fdb6539cbd109820bb26d90fe5738950863046ca',
    ('rs-5-5', 4096): '8e38def764dd474eee26bfd994091044b2e5876aefe6c995782146f13032803a',
    ('rs-4-12', 1): '9c162db8e868322e8e5fa9b1664c071bdb762f5bd66eec834cd9820b4ee580c8',
    ('rs-4-12', 7): '5842c5c7d705ebe2057844918e93fc7228e0b6ef3609e32ff46f24307d5d73aa',
    ('rs-4-12', 4096): '6e65af58531cc5817a4a42535710876ae6f66393cff7fcbea509a1ed4be4835b',
    ('lrc-azure', 1): '0e3a9593f4ea9b2ba67a27662337a59aaf3794a5a74149b2e2c959b43f8e866c',
    ('lrc-azure', 7): 'e459115d2e576b98fc2ed575a4f6ac685e5342501eece53404e270acd707ac0d',
    ('lrc-azure', 4096): '6d9f08e6b6a91a9de030dba4596cc7b07659f26232c4f9502f8dc70aa9dc213b',
    ('lrc-xorbas', 1): '39446bd3b81d34c112f5b3d962c3cab0e8d38f4c6be3bff7058addd00e7d327e',
    ('lrc-xorbas', 7): 'e17762358a470e36f5fb77a52975751ac44c88fb55105286730841c59a966961',
    ('lrc-xorbas', 4096): 'fa270dc6124c2ca061559d5ed1d0ba967ef76552d972b4fff699d27b362a8a7f',
    ('xor-geo', 1): '97621ba8ad1e8cdab219d10e5645056280b45214410fb7bdd3a99dac6c714984',
    ('xor-geo', 7): '1e8a3f3ee8a276d6bdfe8918003a2e3c157b7a46347e638838df428cc3b321e9',
    ('xor-geo', 4096): 'd5a2f457ab1d9762431fc9a9cc54bd74bac71ad2ff9e918809ef8286ef24e5bc',
    ('xor-raid5-5', 1): 'f7ba4adc471d4d7443301a6eab89c900b072b3200e41037d8b315fa632179d81',
    ('xor-raid5-5', 7): '7c3388b0d01cd396f91df5c48c3f7ca16fa80e1dca3441bc9cf864ce5c79a799',
    ('xor-raid5-5', 4096): '6da8d7adf4b162ebb69b2a6698e3eca94e39be8fca841b71151c028b1cd1e4aa',
    ('rep-3', 1): '1c1a62b4ba5c8a9e4acf18661aeb38d99efae92b35d0bc30be3b1377aeac8d26',
    ('rep-3', 7): '6961ce8e5586fa4965e4e7fcbf88e49a5bead08e5b539dd7b9072e89aa7309d5',
    ('rep-3', 4096): 'cbb97757c075d0873cd6930cc04dadf9cb791e0dd0af6861c379aee4e7c23a65',
}

SERVICE_GOLDEN = '274b0d101be066942bb076a3646e8d578b75b13e7271e03c673436843787f212'


@pytest.mark.parametrize("scheme_id", SCHEMES)
@pytest.mark.parametrize("size", SIZES)
def test_codec_output_is_unchanged(scheme_id: str, size: int) -> None:
    assert codec_digest(scheme_id, size) == CODEC_GOLDEN[(scheme_id, size)]


@pytest.mark.parametrize("scheme_id", SCHEMES)
@pytest.mark.parametrize("size", SIZES)
def test_scheme_put_and_repair_are_unchanged(scheme_id: str, size: int) -> None:
    assert scheme_digest(scheme_id, size) == SCHEME_GOLDEN[(scheme_id, size)]


@pytest.mark.parametrize("scheme_id", EXHAUSTIVE_SCHEMES)
def test_every_small_erasure_pattern_is_unchanged(scheme_id: str) -> None:
    assert exhaustive_digest(scheme_id) == EXHAUSTIVE_GOLDEN[scheme_id]


@pytest.mark.parametrize("scheme_id", SCHEMES)
@pytest.mark.parametrize("size", SIZES)
def test_batch_repair_is_unchanged(scheme_id: str, size: int) -> None:
    assert batch_repair_digest(scheme_id, size) == BATCH_REPAIR_GOLDEN[(scheme_id, size)]


def test_service_lifecycle_is_unchanged() -> None:
    assert service_digest() == SERVICE_GOLDEN


if __name__ == "__main__":  # pragma: no cover - recording helper
    print("CODEC_GOLDEN: Dict[Tuple[str, int], str] = {")
    for scheme_id in SCHEMES:
        for size in SIZES:
            print(f"    {(scheme_id, size)!r}: {codec_digest(scheme_id, size)!r},")
    print("}\n\nSCHEME_GOLDEN: Dict[Tuple[str, int], str] = {")
    for scheme_id in SCHEMES:
        for size in SIZES:
            print(f"    {(scheme_id, size)!r}: {scheme_digest(scheme_id, size)!r},")
    print("}\n\nEXHAUSTIVE_GOLDEN: Dict[str, str] = {")
    for scheme_id in EXHAUSTIVE_SCHEMES:
        print(f"    {scheme_id!r}: {exhaustive_digest(scheme_id)!r},")
    print("}\n\nBATCH_REPAIR_GOLDEN: Dict[Tuple[str, int], str] = {")
    for scheme_id in SCHEMES:
        for size in SIZES:
            print(f"    {(scheme_id, size)!r}: {batch_repair_digest(scheme_id, size)!r},")
    print("}\n")
    print(f"SERVICE_GOLDEN = {service_digest()!r}")
