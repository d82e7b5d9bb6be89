"""Golden punctured sets: every policy's decisions and one repuncture chain.

The literals below were recorded on the commit *before* the punctured set
became one vectorised mask (``e118288``), through the scalar per-parity
``is_punctured`` of that commit.  They pin what the change had to keep:

- ``MASK_GOLDEN``: for each built-in policy, the sha256 of its decisions (one
  byte per parity, nodes in index order, strand classes in
  ``params.strand_classes`` order) over nodes ``1..20 000`` and two
  512-node windows straddling 2**32 and 2**40 -- where a 64-bit wrap of the
  ``puncture_rate`` hash would show.
- ``OVERHEAD_GOLDEN``: ``capabilities().storage_overhead`` of three rates.
- ``CHAIN_GOLDEN``: a durable 2-shard ``ae-3-2-5`` federation taken through
  ``p80 -> p50 -> p90 -> ae-3-2-5``; per hop and shard, the report's
  ``blocks_written`` / ``blocks_deleted`` and a digest of every location's
  sorted block ids as its backend lists them.

``PYTHONPATH=src:. python tests/test_puncturing_golden.py`` prints the tables
(record on the parent of a change to ``core/puncturing.py``, the punctured
scheme or the repuncture transition only, never to make a failing test pass).
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.schemes as schemes
from repro.core.blocks import ParityId
from repro.core.parameters import AEParameters, StrandClass
from repro.core.puncturing import (
    PuncturedCode,
    no_puncturing,
    puncture_periodic,
    puncture_rate,
    puncture_strand_class,
)
from repro.system.opening import open_service
from repro.system.service import StorageConfig

#: ``(first node, node count)`` of every range a mask digest covers.
RANGES: Tuple[Tuple[int, int], ...] = ((1, 20_000), (2**32 - 256, 512), (2**40 - 256, 512))
DOUBLE = AEParameters.double(2, 5)
TRIPLE = AEParameters.triple(2, 5)
KEEPS = (0.5, 0.75, 0.8, 0.9, 1.0)


def policies() -> Dict[str, PuncturedCode]:
    codes: Dict[str, PuncturedCode] = {}
    for alpha, params in ((2, DOUBLE), (3, TRIPLE)):
        for keep in KEEPS:
            codes[f"rate-{keep:.2f}-a{alpha}"] = puncture_rate(params, keep)
    codes["periodic-4-0-a2"] = puncture_periodic(DOUBLE, 4)
    # An offset above the first index: the decision is Python's floor modulo.
    codes["periodic-3-5-a3"] = puncture_periodic(TRIPLE, 3, offset=5)
    for strand_class in TRIPLE.strand_classes:
        codes[f"class-{strand_class.value}-a3"] = puncture_strand_class(TRIPLE, strand_class)
    codes["class-h-a2"] = puncture_strand_class(DOUBLE, StrandClass.HORIZONTAL)
    codes["none-a3"] = no_puncturing(TRIPLE)
    return codes


def mask_digest(code: PuncturedCode) -> str:
    digest = hashlib.sha256()
    for start, count in RANGES:
        digest.update(code.mask(count, start=start).astype(np.uint8).tobytes())
    return digest.hexdigest()


MASK_GOLDEN: Dict[str, str] = {
    'rate-0.50-a2': 'c1e91a347d5b0ce6f6f0c1f850714d096527c73a51915c9cb2e1f81ac1e8d0cb',
    'rate-0.75-a2': '84ce93559c96040a5050949a807b56ce0d7f416e3329cbd4ea11962d10ec3ecd',
    'rate-0.80-a2': '9f2e9530773e2566c3bca054faaa3ca145cfd324d536fcfb67d06dbcb6289bf2',
    'rate-0.90-a2': 'e482a8442563ca81fade37a7ce6f89cf1e9ca347938fdb711a953d1a3bdfcfb4',
    'rate-1.00-a2': '5323458b21162d45c59ceaad3b32b94446ea83257f14683b56935d914ddb1fea',
    'rate-0.50-a3': 'f54268dd10ad3daa0b5c01882dad256b28566fdad6c67b5bcfcec69355feaa65',
    'rate-0.75-a3': 'b8b3bac85e6dfbd982ef1e8428a9117b7dbf1632c396195b80b49f1f795966b0',
    'rate-0.80-a3': '57a97830a142780de068551bc472942b25f25f20d426d629120b89db83255cae',
    'rate-0.90-a3': '3b996bbed5d3c096a033ba27d4e8bae18113576749c9dd13915e32fa721bda8e',
    'rate-1.00-a3': 'ba107a37736123ff9c552064b2b376a0dfc0abd40c044bd6227cf90a77204f4d',
    'periodic-4-0-a2': '1a20624adf2b1761c7288efef0bbee4cf107124910d92bde619b7b420c98fb5e',
    'periodic-3-5-a3': 'f4f169860970ff80e74c3efb7b236f1e85ff28ce5d6c83052e3646554d86b5f8',
    'class-h-a3': 'b786b7e63aec3681b9dfbdacd392ecc375ed625708346c14c5e49d4c9b413108',
    'class-rh-a3': '173eb09ca415346ce067161f44016d0e6d86479cb0ae7dcf009cd20bca1e4c11',
    'class-lh-a3': '36413d9ec800bd796cb843eb5218b38dfca1fa13a0ba882ea133bdf53ba419c1',
    'class-h-a2': '3fdb93c0c2aa27bb7666be8b244d42e47aeca3d26220403dff050bc1c7abd9c2',
    'none-a3': 'ba107a37736123ff9c552064b2b376a0dfc0abd40c044bd6227cf90a77204f4d',
}

OVERHEAD_GOLDEN: Dict[str, float] = {
    'ae-3-2-5-p50': 1.481,
    'ae-3-2-5-p75': 2.237,
    'ae-3-2-5-p80': 2.396,
}


@pytest.mark.parametrize("name", sorted(MASK_GOLDEN))
def test_mask_reproduces_the_scalar_decisions(name):
    assert mask_digest(policies()[name]) == MASK_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(MASK_GOLDEN))
def test_one_parity_view_agrees_with_the_mask(name):
    """``is_punctured`` is the mask read one parity at a time, at the wrap too."""
    code = policies()[name]
    for start, _ in RANGES:
        mask = code.mask(40, start=start)
        for row in range(40):
            for column, strand_class in enumerate(code.params.strand_classes):
                parity = ParityId(start + row, strand_class)
                assert code.is_punctured(parity) is bool(mask[row, column])


@pytest.mark.parametrize("scheme_id", sorted(OVERHEAD_GOLDEN))
def test_storage_overhead_is_unchanged(scheme_id):
    scheme = schemes.get(scheme_id, block_size=512)
    assert scheme.capabilities().storage_overhead == OVERHEAD_GOLDEN[scheme_id]


def reference_rate_decision(index: int, salt: int, keep_fraction: float) -> bool:
    """``puncture_rate``'s hash in unbounded Python ints, masked to 32 bits."""
    mixed = (index * 2654435761 + salt * 40503) & 0xFFFFFFFF
    mixed ^= mixed >> 16
    mixed = (mixed * 2246822519) & 0xFFFFFFFF
    mixed ^= mixed >> 13
    return mixed > int(keep_fraction * 0xFFFFFFFF)


@settings(max_examples=300, deadline=None)
@given(
    index=st.integers(min_value=1, max_value=2**62 - 1),
    alpha=st.sampled_from((2, 3)),
    column=st.integers(min_value=0, max_value=2),
    keep_fraction=st.floats(min_value=0.01, max_value=1.0),
)
def test_rate_policy_matches_the_integer_reference(index, alpha, column, keep_fraction):
    params = DOUBLE if alpha == 2 else TRIPLE
    column %= alpha
    strand_class = params.strand_classes[column]
    code = puncture_rate(params, keep_fraction)
    expected = reference_rate_decision(index, column + 1, keep_fraction)
    assert code.is_punctured(ParityId(index, strand_class)) is expected
    assert bool(code.mask(1, start=index)[0, column]) is expected


# ----------------------------------------------------------------------
# One durable repuncture chain
# ----------------------------------------------------------------------
HOPS = ("ae-3-2-5-p80", "ae-3-2-5-p50", "ae-3-2-5-p90", "ae-3-2-5")


def chain_rows(root: Path) -> List[Tuple[str, int, int, int, str]]:
    """``(target, shard, blocks_written, blocks_deleted, locations digest)``
    for every hop of the chain, reads checked byte-exact after each hop."""
    rng = random.Random(11)
    documents = {f"doc-{number:02d}": rng.randbytes(700 + 311 * number) for number in range(12)}
    federation = open_service(
        StorageConfig(
            scheme="ae-3-2-5", topology=12, block_size=256, seed=5,
            backend="segment", data_dir=str(root), shards=2,
        )
    )
    for name, payload in documents.items():
        federation.put(name, payload)
    rows = []
    for target in HOPS:
        reports = federation.transition_to(target).per_shard
        for name, payload in documents.items():
            assert federation.get(name) == payload, f"{name} after {target}"
        for shard_id in sorted(reports):
            report = reports[shard_id]
            cluster = federation.shard(shard_id).service.cluster
            held = [sorted(map(repr, store.block_ids())) for store in cluster.locations()]
            rows.append(
                (
                    target,
                    shard_id,
                    report.blocks_written,
                    report.blocks_deleted,
                    hashlib.sha256(repr(held).encode("utf-8")).hexdigest(),
                )
            )
    federation.close()
    return rows


CHAIN_GOLDEN: List[Tuple[str, int, int, int, str]] = [
    ('ae-3-2-5-p80', 0, 0, 71, '57329c6bc18836ca6a2e69c1caee8235f45e1fe7c3e358583dad4c5fc2209d3a'),
    ('ae-3-2-5-p80', 1, 0, 42, '64f18172a5edde5b87934d19f8391150b9fe71cc89fea8dbad7c6edf20614638'),
    ('ae-3-2-5-p50', 0, 0, 65, '0cebc95684b93f8813ac7d4f549fce462c52890a44b3c4566d32cb3140934f0a'),
    ('ae-3-2-5-p50', 1, 0, 35, 'd71134944f0bbca3eb1d8539dac421d2bf791e9460660c62ea886e0e19930d56'),
    ('ae-3-2-5-p90', 0, 103, 0, '76818e925e6a35af42f067cd7ade912d3894536ded712a350e2572f58a88449d'),
    ('ae-3-2-5-p90', 1, 59, 0, '65a67b498d24a8b4a6a97e0fc2d184bbaa99d5eda8958cda2c564e0b17d6c2c9'),
    ('ae-3-2-5', 0, 33, 0, '437a5d88b4424ec3729026982a74464c2768bfdf4708145cb3b31922f0d8cce7'),
    ('ae-3-2-5', 1, 18, 0, '04952d4d281283c4af752f5066b1a6ae0a5531fcd8985862935cc22d8bb6d501'),
]


def test_repuncture_chain_reproduces_every_hop(tmp_path):
    assert chain_rows(tmp_path / "fed") == CHAIN_GOLDEN


if __name__ == "__main__":  # pragma: no cover - recording aid
    import tempfile

    print("MASK_GOLDEN = {")
    for name, code in policies().items():
        print(f"    {name!r}: {mask_digest(code)!r},")
    print("}\nOVERHEAD_GOLDEN = {")
    for scheme_id in sorted(OVERHEAD_GOLDEN):
        overhead = schemes.get(scheme_id, block_size=512).capabilities().storage_overhead
        print(f"    {scheme_id!r}: {overhead!r},")
    print("}\nCHAIN_GOLDEN = [")
    with tempfile.TemporaryDirectory() as scratch:
        for row in chain_rows(Path(scratch) / "fed"):
            print(f"    {row!r},")
    print("]")
