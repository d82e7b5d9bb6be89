"""The live service's scrub: the entanglement-equation pass, its attribution
and the rebuild of what it attributes (paper, Sec. III-B anti-tampering).

``SWEEP`` is golden: every block of a 30-node lattice under ``ae-1``,
``ae-2-2-5`` and ``ae-3-2-5`` tampered one at a time (byte 0 flipped on its
location), with the equations each case violates and the suspects an
equations-only scrub attributed.  The rows were recorded before the scrub
became a verb of the service, with the retired ``Scrubber(manifest=None)``;
a row reads ``tampered: violated equations | suspects``, an equation named by
the parity it closes.  ``scrub()`` must reproduce every row except the rows in
``NARROWED``: there the old rule ("every incident equation violated") also
named blocks whose violated equations are a strict subset of the tampered
block's, and the strict-subset rule leaves the tampered block alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocks import DataId, ParityId
from repro.core.parameters import StrandClass
from repro.schemes.stripe import StripeBlockId
from repro.system.service import ServiceScrubReport, StorageConfig, StorageService

BLOCK_SIZE = 64
H = StrandClass.HORIZONTAL


def build(scheme: str = "ae-3-2-5", blocks: int = 30, **config):
    """A service holding one document of ``blocks`` random blocks."""
    service = StorageService.open(
        StorageConfig(scheme=scheme, topology=20, block_size=BLOCK_SIZE, seed=0, **config)
    )
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=blocks * BLOCK_SIZE, dtype=np.uint8).tobytes()
    service.put("doc", data)
    return service, data


def tamper(service: StorageService, block_id) -> bytes:
    """Flip byte 0 of a stored block behind the service's back; returns the
    original bytes."""
    cluster = service.cluster
    store = cluster.location(cluster.location_of(block_id))
    original = np.asarray(store.try_get(block_id), dtype=np.uint8).copy()
    changed = original.copy()
    changed[0] ^= 0xFF
    store.put(block_id, changed)
    return original.tobytes()


def stored(service: StorageService):
    """Every stored block's bytes, by id."""
    cluster = service.cluster
    return {b: bytes(cluster.try_get_block(b)) for b in cluster.block_ids()}


def labels(block_ids):
    return sorted(map(repr, block_ids))


SWEEP = {
    "ae-1": """\
d1: p[1,h] | d1
p[1,h]: p[1,h] p[2,h] | d1 d2 p[1,h]
d2: p[2,h] | d2
p[2,h]: p[2,h] p[3,h] | d2 d3 p[2,h]
d3: p[3,h] | d3
p[3,h]: p[3,h] p[4,h] | d3 d4 p[3,h]
d4: p[4,h] | d4
p[4,h]: p[4,h] p[5,h] | d4 d5 p[4,h]
d5: p[5,h] | d5
p[5,h]: p[5,h] p[6,h] | d5 d6 p[5,h]
d6: p[6,h] | d6
p[6,h]: p[6,h] p[7,h] | d6 d7 p[6,h]
d7: p[7,h] | d7
p[7,h]: p[7,h] p[8,h] | d7 d8 p[7,h]
d8: p[8,h] | d8
p[8,h]: p[8,h] p[9,h] | d8 d9 p[8,h]
d9: p[9,h] | d9
p[9,h]: p[9,h] p[10,h] | d9 d10 p[9,h]
d10: p[10,h] | d10
p[10,h]: p[10,h] p[11,h] | d10 d11 p[10,h]
d11: p[11,h] | d11
p[11,h]: p[11,h] p[12,h] | d11 d12 p[11,h]
d12: p[12,h] | d12
p[12,h]: p[12,h] p[13,h] | d12 d13 p[12,h]
d13: p[13,h] | d13
p[13,h]: p[13,h] p[14,h] | d13 d14 p[13,h]
d14: p[14,h] | d14
p[14,h]: p[14,h] p[15,h] | d14 d15 p[14,h]
d15: p[15,h] | d15
p[15,h]: p[15,h] p[16,h] | d15 d16 p[15,h]
d16: p[16,h] | d16
p[16,h]: p[16,h] p[17,h] | d16 d17 p[16,h]
d17: p[17,h] | d17
p[17,h]: p[17,h] p[18,h] | d17 d18 p[17,h]
d18: p[18,h] | d18
p[18,h]: p[18,h] p[19,h] | d18 d19 p[18,h]
d19: p[19,h] | d19
p[19,h]: p[19,h] p[20,h] | d19 d20 p[19,h]
d20: p[20,h] | d20
p[20,h]: p[20,h] p[21,h] | d20 d21 p[20,h]
d21: p[21,h] | d21
p[21,h]: p[21,h] p[22,h] | d21 d22 p[21,h]
d22: p[22,h] | d22
p[22,h]: p[22,h] p[23,h] | d22 d23 p[22,h]
d23: p[23,h] | d23
p[23,h]: p[23,h] p[24,h] | d23 d24 p[23,h]
d24: p[24,h] | d24
p[24,h]: p[24,h] p[25,h] | d24 d25 p[24,h]
d25: p[25,h] | d25
p[25,h]: p[25,h] p[26,h] | d25 d26 p[25,h]
d26: p[26,h] | d26
p[26,h]: p[26,h] p[27,h] | d26 d27 p[26,h]
d27: p[27,h] | d27
p[27,h]: p[27,h] p[28,h] | d27 d28 p[27,h]
d28: p[28,h] | d28
p[28,h]: p[28,h] p[29,h] | d28 d29 p[28,h]
d29: p[29,h] | d29
p[29,h]: p[29,h] p[30,h] | d29 d30 p[29,h] p[30,h]
d30: p[30,h] | d30 p[30,h]
p[30,h]: p[30,h] | d30 p[30,h]
""",
    "ae-2-2-5": """\
d1: p[1,h] p[1,rh] | d1
p[1,h]: p[1,h] p[3,h] | p[1,h]
p[1,rh]: p[1,rh] p[4,rh] | p[1,rh]
d2: p[2,h] p[2,rh] | d2
p[2,h]: p[2,h] p[4,h] | p[2,h]
p[2,rh]: p[2,rh] p[9,rh] | p[2,rh]
d3: p[3,h] p[3,rh] | d3
p[3,h]: p[3,h] p[5,h] | p[3,h]
p[3,rh]: p[3,rh] p[6,rh] | p[3,rh]
d4: p[4,h] p[4,rh] | d4
p[4,h]: p[4,h] p[6,h] | p[4,h]
p[4,rh]: p[4,rh] p[11,rh] | p[4,rh]
d5: p[5,h] p[5,rh] | d5
p[5,h]: p[5,h] p[7,h] | p[5,h]
p[5,rh]: p[5,rh] p[8,rh] | p[5,rh]
d6: p[6,h] p[6,rh] | d6
p[6,h]: p[6,h] p[8,h] | p[6,h]
p[6,rh]: p[6,rh] p[13,rh] | p[6,rh]
d7: p[7,h] p[7,rh] | d7
p[7,h]: p[7,h] p[9,h] | p[7,h]
p[7,rh]: p[7,rh] p[10,rh] | p[7,rh]
d8: p[8,h] p[8,rh] | d8
p[8,h]: p[8,h] p[10,h] | p[8,h]
p[8,rh]: p[8,rh] p[15,rh] | p[8,rh]
d9: p[9,h] p[9,rh] | d9
p[9,h]: p[9,h] p[11,h] | p[9,h]
p[9,rh]: p[9,rh] p[12,rh] | p[9,rh]
d10: p[10,h] p[10,rh] | d10
p[10,h]: p[10,h] p[12,h] | p[10,h]
p[10,rh]: p[10,rh] p[17,rh] | p[10,rh]
d11: p[11,h] p[11,rh] | d11
p[11,h]: p[11,h] p[13,h] | p[11,h]
p[11,rh]: p[11,rh] p[14,rh] | p[11,rh]
d12: p[12,h] p[12,rh] | d12
p[12,h]: p[12,h] p[14,h] | p[12,h]
p[12,rh]: p[12,rh] p[19,rh] | p[12,rh]
d13: p[13,h] p[13,rh] | d13
p[13,h]: p[13,h] p[15,h] | p[13,h]
p[13,rh]: p[13,rh] p[16,rh] | p[13,rh]
d14: p[14,h] p[14,rh] | d14
p[14,h]: p[14,h] p[16,h] | p[14,h]
p[14,rh]: p[14,rh] p[21,rh] | p[14,rh]
d15: p[15,h] p[15,rh] | d15
p[15,h]: p[15,h] p[17,h] | p[15,h]
p[15,rh]: p[15,rh] p[18,rh] | p[15,rh]
d16: p[16,h] p[16,rh] | d16
p[16,h]: p[16,h] p[18,h] | p[16,h]
p[16,rh]: p[16,rh] p[23,rh] | p[16,rh]
d17: p[17,h] p[17,rh] | d17
p[17,h]: p[17,h] p[19,h] | p[17,h]
p[17,rh]: p[17,rh] p[20,rh] | p[17,rh]
d18: p[18,h] p[18,rh] | d18
p[18,h]: p[18,h] p[20,h] | p[18,h]
p[18,rh]: p[18,rh] p[25,rh] | p[18,rh]
d19: p[19,h] p[19,rh] | d19
p[19,h]: p[19,h] p[21,h] | p[19,h]
p[19,rh]: p[19,rh] p[22,rh] | p[19,rh]
d20: p[20,h] p[20,rh] | d20
p[20,h]: p[20,h] p[22,h] | p[20,h]
p[20,rh]: p[20,rh] p[27,rh] | p[20,rh]
d21: p[21,h] p[21,rh] | d21
p[21,h]: p[21,h] p[23,h] | p[21,h]
p[21,rh]: p[21,rh] p[24,rh] | p[21,rh] p[24,rh]
d22: p[22,h] p[22,rh] | d22
p[22,h]: p[22,h] p[24,h] | p[22,h]
p[22,rh]: p[22,rh] p[29,rh] | p[22,rh] p[29,rh]
d23: p[23,h] p[23,rh] | d23
p[23,h]: p[23,h] p[25,h] | p[23,h]
p[23,rh]: p[23,rh] p[26,rh] | p[23,rh] p[26,rh]
d24: p[24,h] p[24,rh] | d24 p[24,rh]
p[24,h]: p[24,h] p[26,h] | p[24,h]
p[24,rh]: p[24,rh] | p[24,rh]
d25: p[25,h] p[25,rh] | d25
p[25,h]: p[25,h] p[27,h] | p[25,h]
p[25,rh]: p[25,rh] p[28,rh] | p[25,rh] p[28,rh]
d26: p[26,h] p[26,rh] | d26 p[26,rh]
p[26,h]: p[26,h] p[28,h] | p[26,h]
p[26,rh]: p[26,rh] | p[26,rh]
d27: p[27,h] p[27,rh] | d27
p[27,h]: p[27,h] p[29,h] | p[27,h] p[29,h]
p[27,rh]: p[27,rh] p[30,rh] | p[27,rh] p[30,rh]
d28: p[28,h] p[28,rh] | d28 p[28,rh]
p[28,h]: p[28,h] p[30,h] | p[28,h] p[30,h]
p[28,rh]: p[28,rh] | p[28,rh]
d29: p[29,h] p[29,rh] | d29 p[29,h] p[29,rh]
p[29,h]: p[29,h] | p[29,h]
p[29,rh]: p[29,rh] | p[29,rh]
d30: p[30,h] p[30,rh] | d30 p[30,h] p[30,rh]
p[30,h]: p[30,h] | p[30,h]
p[30,rh]: p[30,rh] | p[30,rh]
""",
    "ae-3-2-5": """\
d1: p[1,h] p[1,rh] p[1,lh] | d1
p[1,h]: p[1,h] p[3,h] | p[1,h]
p[1,lh]: p[1,lh] p[10,lh] | p[1,lh]
p[1,rh]: p[1,rh] p[4,rh] | p[1,rh]
d2: p[2,h] p[2,rh] p[2,lh] | d2
p[2,h]: p[2,h] p[4,h] | p[2,h]
p[2,lh]: p[2,lh] p[3,lh] | p[2,lh]
p[2,rh]: p[2,rh] p[9,rh] | p[2,rh]
d3: p[3,h] p[3,rh] p[3,lh] | d3
p[3,h]: p[3,h] p[5,h] | p[3,h]
p[3,lh]: p[3,lh] p[12,lh] | p[3,lh]
p[3,rh]: p[3,rh] p[6,rh] | p[3,rh]
d4: p[4,h] p[4,rh] p[4,lh] | d4
p[4,h]: p[4,h] p[6,h] | p[4,h]
p[4,lh]: p[4,lh] p[5,lh] | p[4,lh]
p[4,rh]: p[4,rh] p[11,rh] | p[4,rh]
d5: p[5,h] p[5,rh] p[5,lh] | d5
p[5,h]: p[5,h] p[7,h] | p[5,h]
p[5,lh]: p[5,lh] p[14,lh] | p[5,lh]
p[5,rh]: p[5,rh] p[8,rh] | p[5,rh]
d6: p[6,h] p[6,rh] p[6,lh] | d6
p[6,h]: p[6,h] p[8,h] | p[6,h]
p[6,lh]: p[6,lh] p[7,lh] | p[6,lh]
p[6,rh]: p[6,rh] p[13,rh] | p[6,rh]
d7: p[7,h] p[7,rh] p[7,lh] | d7
p[7,h]: p[7,h] p[9,h] | p[7,h]
p[7,lh]: p[7,lh] p[16,lh] | p[7,lh]
p[7,rh]: p[7,rh] p[10,rh] | p[7,rh]
d8: p[8,h] p[8,rh] p[8,lh] | d8
p[8,h]: p[8,h] p[10,h] | p[8,h]
p[8,lh]: p[8,lh] p[9,lh] | p[8,lh]
p[8,rh]: p[8,rh] p[15,rh] | p[8,rh]
d9: p[9,h] p[9,rh] p[9,lh] | d9
p[9,h]: p[9,h] p[11,h] | p[9,h]
p[9,lh]: p[9,lh] p[18,lh] | p[9,lh]
p[9,rh]: p[9,rh] p[12,rh] | p[9,rh]
d10: p[10,h] p[10,rh] p[10,lh] | d10
p[10,h]: p[10,h] p[12,h] | p[10,h]
p[10,lh]: p[10,lh] p[11,lh] | p[10,lh]
p[10,rh]: p[10,rh] p[17,rh] | p[10,rh]
d11: p[11,h] p[11,rh] p[11,lh] | d11
p[11,h]: p[11,h] p[13,h] | p[11,h]
p[11,lh]: p[11,lh] p[20,lh] | p[11,lh]
p[11,rh]: p[11,rh] p[14,rh] | p[11,rh]
d12: p[12,h] p[12,rh] p[12,lh] | d12
p[12,h]: p[12,h] p[14,h] | p[12,h]
p[12,lh]: p[12,lh] p[13,lh] | p[12,lh]
p[12,rh]: p[12,rh] p[19,rh] | p[12,rh]
d13: p[13,h] p[13,rh] p[13,lh] | d13
p[13,h]: p[13,h] p[15,h] | p[13,h]
p[13,lh]: p[13,lh] p[22,lh] | p[13,lh]
p[13,rh]: p[13,rh] p[16,rh] | p[13,rh]
d14: p[14,h] p[14,rh] p[14,lh] | d14
p[14,h]: p[14,h] p[16,h] | p[14,h]
p[14,lh]: p[14,lh] p[15,lh] | p[14,lh]
p[14,rh]: p[14,rh] p[21,rh] | p[14,rh]
d15: p[15,h] p[15,rh] p[15,lh] | d15
p[15,h]: p[15,h] p[17,h] | p[15,h]
p[15,lh]: p[15,lh] p[24,lh] | p[15,lh]
p[15,rh]: p[15,rh] p[18,rh] | p[15,rh]
d16: p[16,h] p[16,rh] p[16,lh] | d16
p[16,h]: p[16,h] p[18,h] | p[16,h]
p[16,lh]: p[16,lh] p[17,lh] | p[16,lh]
p[16,rh]: p[16,rh] p[23,rh] | p[16,rh]
d17: p[17,h] p[17,rh] p[17,lh] | d17
p[17,h]: p[17,h] p[19,h] | p[17,h]
p[17,lh]: p[17,lh] p[26,lh] | p[17,lh]
p[17,rh]: p[17,rh] p[20,rh] | p[17,rh]
d18: p[18,h] p[18,rh] p[18,lh] | d18
p[18,h]: p[18,h] p[20,h] | p[18,h]
p[18,lh]: p[18,lh] p[19,lh] | p[18,lh]
p[18,rh]: p[18,rh] p[25,rh] | p[18,rh]
d19: p[19,h] p[19,rh] p[19,lh] | d19
p[19,h]: p[19,h] p[21,h] | p[19,h]
p[19,lh]: p[19,lh] p[28,lh] | p[19,lh]
p[19,rh]: p[19,rh] p[22,rh] | p[19,rh]
d20: p[20,h] p[20,rh] p[20,lh] | d20
p[20,h]: p[20,h] p[22,h] | p[20,h]
p[20,lh]: p[20,lh] p[21,lh] | p[20,lh]
p[20,rh]: p[20,rh] p[27,rh] | p[20,rh]
d21: p[21,h] p[21,rh] p[21,lh] | d21
p[21,h]: p[21,h] p[23,h] | p[21,h]
p[21,lh]: p[21,lh] p[30,lh] | p[21,lh] p[30,lh]
p[21,rh]: p[21,rh] p[24,rh] | p[21,rh] p[24,rh]
d22: p[22,h] p[22,rh] p[22,lh] | d22
p[22,h]: p[22,h] p[24,h] | p[22,h]
p[22,lh]: p[22,lh] p[23,lh] | p[22,lh] p[23,lh]
p[22,rh]: p[22,rh] p[29,rh] | p[22,rh] p[29,rh]
d23: p[23,h] p[23,rh] p[23,lh] | d23 p[23,lh]
p[23,h]: p[23,h] p[25,h] | p[23,h]
p[23,lh]: p[23,lh] | p[23,lh]
p[23,rh]: p[23,rh] p[26,rh] | p[23,rh] p[26,rh]
d24: p[24,h] p[24,rh] p[24,lh] | d24 p[24,rh]
p[24,h]: p[24,h] p[26,h] | p[24,h]
p[24,lh]: p[24,lh] p[25,lh] | p[24,lh] p[25,lh]
p[24,rh]: p[24,rh] | p[24,rh]
d25: p[25,h] p[25,rh] p[25,lh] | d25 p[25,lh]
p[25,h]: p[25,h] p[27,h] | p[25,h]
p[25,lh]: p[25,lh] | p[25,lh]
p[25,rh]: p[25,rh] p[28,rh] | p[25,rh] p[28,rh]
d26: p[26,h] p[26,rh] p[26,lh] | d26 p[26,rh]
p[26,h]: p[26,h] p[28,h] | p[26,h]
p[26,lh]: p[26,lh] p[27,lh] | p[26,lh] p[27,lh]
p[26,rh]: p[26,rh] | p[26,rh]
d27: p[27,h] p[27,rh] p[27,lh] | d27 p[27,lh]
p[27,h]: p[27,h] p[29,h] | p[27,h] p[29,h]
p[27,lh]: p[27,lh] | p[27,lh]
p[27,rh]: p[27,rh] p[30,rh] | p[27,rh] p[30,rh]
d28: p[28,h] p[28,rh] p[28,lh] | d28 p[28,rh]
p[28,h]: p[28,h] p[30,h] | p[28,h] p[30,h]
p[28,lh]: p[28,lh] p[29,lh] | p[28,lh] p[29,lh]
p[28,rh]: p[28,rh] | p[28,rh]
d29: p[29,h] p[29,rh] p[29,lh] | d29 p[29,h] p[29,lh] p[29,rh]
p[29,h]: p[29,h] | p[29,h]
p[29,lh]: p[29,lh] | p[29,lh]
p[29,rh]: p[29,rh] | p[29,rh]
d30: p[30,h] p[30,rh] p[30,lh] | d30 p[30,h] p[30,lh] p[30,rh]
p[30,h]: p[30,h] | p[30,h]
p[30,lh]: p[30,lh] | p[30,lh]
p[30,rh]: p[30,rh] | p[30,rh]
""",
}

NARROWED = {
    "ae-1": " ".join(f"p[{i},h]" for i in range(1, 30)),
    "ae-2-2-5": "p[21,rh] p[22,rh] p[23,rh] d24 p[25,rh] d26 p[27,h] p[27,rh] d28 p[28,h] d29 d30",
    "ae-3-2-5": (
        "p[21,lh] p[21,rh] p[22,lh] p[22,rh] d23 p[23,rh] d24 p[24,lh] d25 p[25,rh] d26 "
        "p[26,lh] d27 p[27,h] p[27,rh] d28 p[28,h] p[28,lh] d29 d30"
    ),
}


def sweep_rows(scheme: str):
    """``(tampered, violated, suspects)`` labels of every recorded row."""
    for line in SWEEP[scheme].splitlines():
        tampered, rest = line.split(": ")
        violated, suspects = rest.split(" | ")
        yield tampered, sorted(violated.split()), sorted(suspects.split())


def put_back(service: StorageService, block_id, original: bytes) -> None:
    store = service.cluster.location(service.cluster.location_of(block_id))
    store.put(block_id, np.frombuffer(original, dtype=np.uint8))


class TestSingleTamperSweep:
    @pytest.mark.parametrize("scheme", sorted(SWEEP))
    def test_every_block_tampered_once(self, scheme):
        service, data = build(scheme)
        clean = stored(service)
        by_label = {repr(block_id): block_id for block_id in clean}
        rows = list(sweep_rows(scheme))
        assert sorted(row[0] for row in rows) == sorted(by_label)
        narrowed = []
        for tampered, violated, suspects in rows:
            block_id = by_label[tampered]
            original = tamper(service, block_id)
            report = service.scrub()
            assert labels(report.violated) == violated, tampered
            if labels(report.suspects) != suspects:
                assert labels(report.suspects) == [tampered], tampered
                narrowed.append(tampered)
            after = stored(service)
            if after == clean:
                assert report.repaired == [block_id], tampered
            else:
                # Ambiguous: reported, and nothing written.
                assert block_id in report.unrecovered and report.repaired == [], tampered
                assert [b for b in after if after[b] != clean[b]] == [block_id], tampered
                put_back(service, block_id, original)
        assert narrowed == NARROWED[scheme].split()
        assert service.get("doc") == data


class TestAttributionAndRebuild:
    def test_ae1_tampered_parity_is_rewritten_from_untouched_blocks(self):
        """Regression: an equations-only scrub of ``ae-1`` attributed a
        tampered ``p[10,h]`` to d10, d11 and p[10,h] and rebuilt d10 and d11
        from that parity, so a re-scrub read clean while ``get`` differed at
        byte offsets 576 and 640."""
        service, data = build("ae-1")
        target = ParityId(10, H)
        tamper(service, target)
        report = service.scrub()
        assert labels(report.violated) == ["p[10,h]", "p[11,h]"]
        assert report.suspects == report.repaired == [target]
        assert report.unrecovered == []
        assert service.get("doc") == data
        assert service.scrub().clean

    def test_suspects_are_hidden_from_each_others_rebuild(self):
        """d15 and its horizontal parity tampered together: d15's first
        pp-tuple and the parity's left dp-tuple each hold the other, so d15
        comes back through another strand and the parity through its right
        dp-tuple."""
        service, data = build()
        clean = stored(service)
        for block_id, byte in ((DataId(15), 0), (ParityId(15, H), 1)):
            store = service.cluster.location(service.cluster.location_of(block_id))
            changed = np.asarray(store.try_get(block_id), dtype=np.uint8).copy()
            changed[byte] ^= 0xFF
            store.put(block_id, changed)
        report = service.scrub()
        assert report.suspects == report.repaired == [DataId(15), ParityId(15, H)]
        assert stored(service) == clean and service.get("doc") == data

    def test_an_ambiguous_suspect_is_reported_and_left_alone(self):
        """Under AE(1) the last node's data block and parity share their one
        equation: tampering either cannot be told from tampering the other."""
        service, _ = build("ae-1")
        target = DataId(30)
        tamper(service, target)
        before = stored(service)
        report = service.scrub()
        assert report.suspects == report.unrecovered == [target, ParityId(30, H)]
        assert report.repaired == [] and stored(service) == before

    def test_a_tampered_data_block_violates_its_alpha_equations(self):
        service, data = build()
        tamper(service, DataId(15))
        report = service.scrub()
        assert labels(report.violated) == ["p[15,h]", "p[15,lh]", "p[15,rh]"]
        assert report.repaired == [DataId(15)] and service.get("doc") == data

    def test_two_tampered_blocks_far_apart(self):
        service, data = build()
        targets = [DataId(8), ParityId(20, H)]
        for target in targets:
            tamper(service, target)
        assert service.scrub().repaired == targets
        assert service.scrub().clean and service.get("doc") == data

    def test_a_rewrite_moved_home_drops_the_bad_copy(self, tmp_path):
        """A block a repair put on another location, then tampered there: the
        rewrite goes back to its assigned location, and the bad copy is
        dropped -- a reopen keeps the first copy it finds."""
        config = {"backend": "segment", "data_dir": str(tmp_path / "root")}
        service, data = build(**config)
        cluster = service.cluster
        home = max(range(20), key=lambda location: len(cluster.blocks_at(location)))
        service.fail_locations([home])
        service.repair()
        service.restore_locations([home])
        moved = [b for b in service.scheme.lattice.block_ids() if cluster.location_of(b) < home]
        moved = [b for b in moved if cluster.placement.location_for(b) == home]
        target = moved[0]
        elsewhere = cluster.location_of(target)
        tamper(service, target)
        assert service.scrub().repaired == [target]
        assert cluster.location_of(target) == home
        assert not cluster.location(elsewhere).contains(target)
        service.close()
        reopen = StorageConfig(scheme="ae-3-2-5", topology=20, block_size=BLOCK_SIZE, **config)
        with StorageService.open(reopen) as reopened:
            assert reopened.get("doc") == data
            assert reopened.scrub().clean


class TestWhatIsChecked:
    def test_a_clean_lattice_checks_every_equation(self):
        service, _ = build("ae-2-2-2", blocks=12)
        report = service.scrub()
        assert isinstance(report, ServiceScrubReport) and report.clean
        assert (report.checked, report.unchecked) == (24, 0)
        assert "0 violated" in report.summary()

    def test_an_unreachable_block_leaves_its_equations_unchecked(self):
        service, data = build()
        location = service.cluster.location_of(DataId(15))
        service.fail_locations([location])
        report = service.scrub()
        assert report.clean and report.unchecked > 0
        assert report.checked + report.unchecked == 90
        assert service.get("doc") == data

    def test_punctured_parities_leave_their_equations_unchecked(self):
        service, _ = build("ae-3-2-5-p75")
        scheme, lattice = service.scheme, service.scheme.lattice
        punctured = set(scheme.punctured_parities())
        skipped = {
            (i, c)
            for i in range(1, 31)
            for c in scheme.params.strand_classes
            if ParityId(i, c) in punctured or lattice.input_parity(i, c) in punctured
        }
        report = service.scrub()
        assert report.clean and report.unchecked == len(skipped) > 0
        assert report.checked == 90 - len(skipped)


class TestStripeScrub:
    @pytest.mark.parametrize("scheme", ["rs-10-4", "lrc-azure"])
    def test_a_single_tampered_block_flags_exactly_its_stripe(self, scheme):
        service, data = build(scheme, blocks=35)
        stripes = service.scheme.stripes_written
        report = service.scrub()
        assert report.clean and (report.checked, report.unchecked) == (stripes, 0)
        for stripe in (0, stripes - 1):  # a whole stripe and the padded one
            for position in range(service.scheme.code.n):
                block_id = StripeBlockId(stripe, position)
                original = tamper(service, block_id)
                report = service.scrub()
                assert report.violated == [stripe], block_id
                assert report.suspects == report.repaired == [], block_id
                put_back(service, block_id, original)
        assert service.scrub().clean and service.get("doc") == data


def test_mid_transition_each_generation_checks_itself(monkeypatch):
    """A re-encode ``ae-3-2-5 -> rs-4-2`` cut after one document: the pending
    documents are checked by the equations of the retained source, the
    moved one by its stripes, and each tampering is found by its own
    generation."""
    service = StorageService.open(
        StorageConfig(scheme="ae-3-2-5", topology=20, block_size=BLOCK_SIZE, batch_blocks=10)
    )
    rng = np.random.default_rng(1)
    documents = {f"doc-{n}": rng.bytes(10 * BLOCK_SIZE) for n in range(3)}
    for name, data in documents.items():
        service.put(name, data)
    original = StorageService._land
    landed = []

    def crash_on_second(self, batch):
        if landed:
            raise RuntimeError("injected crash")
        landed.append(batch)
        return original(self, batch)

    monkeypatch.setattr(StorageService, "_land", crash_on_second)
    with pytest.raises(RuntimeError, match="injected crash"):
        service.transition_to("rs-4-2")
    monkeypatch.undo()
    pending = sorted(service.transition.pending)
    moved = sorted(set(documents) - set(pending))
    assert len(moved) == 1 and service.scrub().clean
    lattice_block = service.documents[pending[0]].data_ids[4]
    stripe_block = service.documents[moved[0]].data_ids[0]
    tamper(service, lattice_block)
    tamper(service, stripe_block)
    report = service.scrub()
    assert stripe_block.stripe in report.violated
    assert labels(b for b in report.violated if isinstance(b, ParityId)) == [
        f"p[{lattice_block.index},{c}]" for c in ("h", "lh", "rh")
    ]
    assert report.suspects == report.repaired == [lattice_block]
    # A stripe names no suspect: its tampered block stays as stored.
    for name, data in documents.items():
        assert (service.get(name) == data) == (name in pending)
