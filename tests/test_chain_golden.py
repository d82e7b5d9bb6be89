"""Golden chain analysis: what the AE(1) mirror, the chain predicates and the
ME(x) validator say can still be rebuilt, bit for bit.

The literals below were recorded on ``b767997``, while the entangled mirror
still ran on its own byte-level chain (``SimpleEntanglementChain``) and
``recoverable_blocks`` / ``open_chain_survives`` each had their own
fixpoint.  They pin the contract moving all three onto
``core/batch_repair.plan_round`` had to keep:

* ``recoverable_blocks`` over seeded erasure patterns inside the lattice
  (recovered ids per pattern, half with an explicit ``lattice_size``, half
  with the default margin) for ``ae-1``, AE(2,2,5), AE(3,2,5) and AE(3,5,5);
* ``open_chain_survives`` and ``closed_chain_survives`` on every failure set
  of 1 to 6 drive pairs;
* ``five_year_comparison``'s loss events for three seeds;
* the open entangled mirror's survival and the bytes it reads back, for every
  failure set of 1 to 5 drive pairs over a chain of ``3 * pairs + 1`` blocks.
  The mirror's API changed with its engine, so :func:`_replay_mirror` drives
  whichever array is importable: the byte-level one the digests were taken
  from (``fail_drives`` / ``data_survives`` / ``read(position)``) or the
  RAID-AE one (``fail_disk`` / ``rebuild().data_loss`` / ``read(DataId)``).
  Drive ``2i`` is data drive ``i`` and drive ``2i + 1`` parity drive ``i``.

Ids enter the hashes through ``repr`` and ``block_sort_key`` only.
``PYTHONPATH=src:. python tests/test_chain_golden.py`` prints the tables
(record on the parent of a change, never to make a failing test pass).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.analysis.erasure_patterns import ErasurePattern, recoverable_blocks
from repro.analysis.reliability import (
    DriveModel,
    closed_chain_survives,
    five_year_comparison,
    open_chain_survives,
)
from repro.core.batch_repair import block_sort_key
from repro.core.parameters import AEParameters
from repro.system.raid import EntangledMirrorArray

from tests.conftest import make_payload

SETTINGS: Dict[str, AEParameters] = {
    "ae-1": AEParameters.single(),
    "AE(2,2,5)": AEParameters(2, 2, 5),
    "AE(3,2,5)": AEParameters(3, 2, 5),
    "AE(3,5,5)": AEParameters(3, 5, 5),
}
#: Seeded erasure patterns hashed per setting.
PATTERNS = 400
SEED = 35
CHAIN_PAIRS = range(1, 7)
MIRROR_PAIRS = range(1, 6)
MIRROR_BLOCK = 16
RELIABILITY_SEEDS = (0, 1, 2)


def _digest(parts: Iterable[str]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        blob = part.encode("utf-8")
        sha.update(len(blob).to_bytes(8, "little"))
        sha.update(blob)
    return sha.hexdigest()


def _patterns(params: AEParameters) -> List[Tuple[ErasurePattern, Optional[int]]]:
    """Clustered erasures (data nodes and parity edges inside one window of
    the lattice) so that repair chains, partial recoveries and irrecoverable
    cores all occur."""
    rng = np.random.default_rng(SEED)
    classes = params.strand_classes
    patterns: List[Tuple[ErasurePattern, Optional[int]]] = []
    for number in range(PATTERNS):
        size = int(rng.integers(4, 60))
        width = int(rng.integers(2, 8 + 2 * params.s))
        low = int(rng.integers(1, size + 1))
        high = min(size, low + width)
        nodes = frozenset(
            int(index)
            for index in rng.integers(low, high + 1, size=int(rng.integers(0, 4 + 2 * params.alpha)))
        )
        edges = frozenset(
            (int(index), classes[int(rng.integers(0, len(classes)))])
            for index in rng.integers(low, high + 1, size=int(rng.integers(0, 12 * params.alpha)))
        )
        patterns.append((ErasurePattern(nodes, edges), size if number % 2 else None))
    return patterns


def recoverable_digest(name: str) -> str:
    params = SETTINGS[name]
    parts: List[str] = []
    for pattern, lattice_size in _patterns(params):
        recovered = recoverable_blocks(pattern, params, lattice_size=lattice_size)
        parts.append(repr((lattice_size, pattern.block_ids())))
        parts.append(repr(sorted(recovered, key=block_sort_key)))
    return _digest(parts)


def _failure_sets(pairs: int) -> List[List[int]]:
    return [
        [drive for drive in range(2 * pairs) if mask >> drive & 1]
        for mask in range(4**pairs)
    ]


def chain_digest(layout: str, pairs: int) -> str:
    predicate = open_chain_survives if layout == "open" else closed_chain_survives
    return _digest(
        "1" if predicate(set(failed), pairs) else "0" for failed in _failure_sets(pairs)
    )


def _replay_mirror(
    pairs: int, payloads: Sequence[bytes], failed: Sequence[int]
) -> Optional[List[bytes]]:
    """Every block read back after ``failed`` drives die, or ``None`` when the
    array reports data loss."""
    if hasattr(EntangledMirrorArray, "fail_drives"):  # the byte-level chain array
        old = EntangledMirrorArray(pairs)
        for payload in payloads:
            old.write(payload)
        old.fail_drives(
            data_drives=[drive // 2 for drive in failed if drive % 2 == 0],
            parity_drives=[drive // 2 for drive in failed if drive % 2 == 1],
        )
        if not old.data_survives():
            return None
        return [bytes(old.read(position)) for position in range(len(payloads))]
    array = EntangledMirrorArray(pairs, block_size=MIRROR_BLOCK)
    ids = [array.write(payload) for payload in payloads]
    for drive in failed:
        array.fail_disk(drive)
    if array.rebuild().data_loss:
        return None
    return [bytes(array.read(data_id)) for data_id in ids]


def mirror_digest(pairs: int) -> str:
    payloads = [make_payload(index, MIRROR_BLOCK) for index in range(3 * pairs + 1)]
    parts: List[str] = []
    for failed in _failure_sets(pairs):
        reads = _replay_mirror(pairs, payloads, failed)
        parts.append(repr(failed))
        parts.append("lost" if reads is None else hashlib.sha256(b"".join(reads)).hexdigest())
    return _digest(parts)


def loss_events(seed: int) -> Dict[str, int]:
    """Drives weak enough that every layout loses data in some trials."""
    drive = DriveModel(mttf_hours=20_000.0, repair_hours=500.0)
    results = five_year_comparison(drive_pairs=10, drive=drive, trials=300, seed=seed)
    return {layout: result.loss_events for layout, result in results.items()}


RECOVERABLE_GOLDEN: Dict[str, str] = {
    'AE(2,2,5)': '497a9d5caa9ed404cd3224055015b63c27f10ebfa4799644f7c748944d129dc9',
    'AE(3,2,5)': '34f31f279b9685fdcc3353c271f1a60a5216f45666741a05959ea117c47139b6',
    'AE(3,5,5)': 'd3beceeb54f7506ccf8909fd90d7edfb9483e0565b0e2600668b1d3adda1f89f',
    'ae-1': '7a25f43bb8de989e328d1d848e8552fea38d4a062f8ca83e1b27f3ebeea0846d',
}

CHAIN_GOLDEN: Dict[Tuple[str, int], str] = {
    ('open', 1): '6df96e1282622f4d112c6ce9b0d1fe19ead0397f2faa381b3f5b05441da59363',
    ('open', 2): 'dba4e24b287ad2aca1b2c8a555960a5a4dac863f76010a5dac031b49fc6c00bc',
    ('open', 3): '42f558413909423a020bb6d44f61ee4b43da5e5dcc234b904b3190939b73d9e0',
    ('open', 4): '3dc6073a5a3f15e793a808a0103fb4f7208eaabc5778b7e7782d52671e7de004',
    ('open', 5): '0637f52876d4826f63bd45e5004ea262e6fb4b5ac71fc0dd69f384833e8d0839',
    ('open', 6): '6773e69f90cfa7498deba2537ca10256e3b3e1561571fbacdc03e42c2362ba28',
    ('closed', 1): '6df96e1282622f4d112c6ce9b0d1fe19ead0397f2faa381b3f5b05441da59363',
    ('closed', 2): '3b8dce7f04c9563099a19ac7ddd27bb0364aa57bdc34dfb1d98a44650be48c15',
    ('closed', 3): '57b55b232a1ade127227c183d3e539b1491ad4f06bc37232d9625f155e605ab4',
    ('closed', 4): '3122c0463f7d4f640cb479e8f4d66e0026d8ea416ce71774c8df93d5d8e5bfc2',
    ('closed', 5): 'e165f6b7768d13f665f537372354476b3bf1c544f7e56e27bd3457474e4d0b6f',
    ('closed', 6): '0f47f66e504176e8b7460bd1848946b698ad2036ba7b5e69823fda7a27ace25c',
}

MIRROR_GOLDEN: Dict[int, str] = {
    1: '7c46d91ec766dba138449af01148cf2cd931e6ff49df3233d597fa2d7bca4184',
    2: '3362a4bd6965351e1394c0598e3eaaca698060a76ef112ed88c736639b1a5de9',
    3: '3d4f9e7f67f39cbb4c2775b1632f44660c5e484403b61dcf4f221aba659f861a',
    4: '1fa36b926041b74f98d52f5feec7cb07be32e02da5bbe10d623224369a697fca',
    5: '7ff81091c491a03101281b26b47b9ebf1c0926fa7a758c6f098591322f76d7f9',
}

RELIABILITY_GOLDEN: Dict[int, Dict[str, int]] = {
    0: {'mirroring': 174, 'entangled-open': 38, 'entangled-closed': 8},
    1: {'mirroring': 167, 'entangled-open': 40, 'entangled-closed': 8},
    2: {'mirroring': 186, 'entangled-open': 23, 'entangled-closed': 10},
}


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_recoverable_blocks_are_unchanged(name: str) -> None:
    assert recoverable_digest(name) == RECOVERABLE_GOLDEN[name]


@pytest.mark.parametrize("layout", ("open", "closed"))
@pytest.mark.parametrize("pairs", CHAIN_PAIRS)
def test_chain_predicates_are_unchanged(layout: str, pairs: int) -> None:
    assert chain_digest(layout, pairs) == CHAIN_GOLDEN[(layout, pairs)]


@pytest.mark.parametrize("pairs", MIRROR_PAIRS)
def test_mirror_survival_and_reads_are_unchanged(pairs: int) -> None:
    assert mirror_digest(pairs) == MIRROR_GOLDEN[pairs]


@pytest.mark.parametrize("seed", RELIABILITY_SEEDS)
def test_five_year_loss_events_are_unchanged(seed: int) -> None:
    assert loss_events(seed) == RELIABILITY_GOLDEN[seed]


def test_the_mirror_replay_reads_what_was_written() -> None:
    """The replay itself is sound: no failure reads every block back."""
    payloads = [make_payload(index, MIRROR_BLOCK) for index in range(7)]
    assert _replay_mirror(2, payloads, []) == payloads
    assert _replay_mirror(2, payloads, [0, 1, 2, 3]) is None


if __name__ == "__main__":  # pragma: no cover - recording helper
    print("RECOVERABLE_GOLDEN: Dict[str, str] = {")
    for name in sorted(SETTINGS):
        print(f"    {name!r}: {recoverable_digest(name)!r},")
    print("}\n\nCHAIN_GOLDEN: Dict[Tuple[str, int], str] = {")
    for layout in ("open", "closed"):
        for pairs in CHAIN_PAIRS:
            print(f"    {(layout, pairs)!r}: {chain_digest(layout, pairs)!r},")
    print("}\n\nMIRROR_GOLDEN: Dict[int, str] = {")
    for pairs in MIRROR_PAIRS:
        print(f"    {pairs}: {mirror_digest(pairs)!r},")
    print("}\n\nRELIABILITY_GOLDEN: Dict[int, Dict[str, int]] = {")
    for seed in RELIABILITY_SEEDS:
        print(f"    {seed}: {loss_events(seed)!r},")
    print("}")
