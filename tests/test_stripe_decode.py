"""``StripeCode.decode(available, positions)``, the codec's one recovery verb,
against a reference written here: solve the data with ``decode(available)``,
then apply each wanted parity's generator row to it.

Random sufficient erasure patterns and random ``positions`` that mix lost
data, lost parities and supplied blocks, over every code family: MDS
(RS(10,4), RS(4,12), ``rep-3``) and rank-decoded (``lrc-azure``,
``lrc-xorbas``, ``xor-geo``).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import schemes
from repro.codes.base import StripeCode
from repro.codes.gf256 import gf_dot_bytes
from repro.exceptions import DecodingError

SCHEMES = ["rs-10-4", "rs-4-12", "lrc-azure", "lrc-xorbas", "xor-geo", "rep-3"]
CODES = {scheme_id: schemes.get(scheme_id, block_size=8).code for scheme_id in SCHEMES}


def reference(code: StripeCode, available: Dict[int, np.ndarray], position: int) -> np.ndarray:
    """A supplied block as supplied, a data block from the plain decode, a
    parity as its generator row applied to the decoded data."""
    if position in available:
        return available[position]
    data = code.decode(available)
    if position < code.k:
        return data[position]
    return gf_dot_bytes(code.encoding_matrix[position].tolist(), data, data[0].size)


def stripe_of(code: StripeCode, rng: np.random.Generator, size: int) -> List[np.ndarray]:
    data = [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(code.k)]
    return [*data, *code.encode(data)]


@pytest.mark.parametrize("scheme_id", SCHEMES)
@given(seed=st.integers(0, 2**31 - 1), size=st.sampled_from([1, 7, 64]))
@settings(max_examples=30, deadline=None, database=None)
def test_decode_equals_decode_then_generator_rows(scheme_id: str, seed: int, size: int) -> None:
    code = CODES[scheme_id]
    rng = np.random.default_rng(seed)
    stripe = stripe_of(code, rng, size)
    while True:
        kept = sorted(int(p) for p in rng.choice(code.n, rng.integers(1, code.n + 1), replace=False))
        if code.can_decode(kept):
            break
    available = {p: stripe[p] for p in kept}
    lost = [p for p in range(code.n) if p not in available]
    # Every lost position, some supplied ones, shuffled: lost data, lost
    # parity and supplied blocks side by side in one call.
    positions = [*lost, *(p for p in kept if rng.random() < 0.5)]
    positions = [positions[i] for i in rng.permutation(len(positions))]
    decoded = code.decode(available, positions)
    assert len(decoded) == len(positions)
    for position, block in zip(positions, decoded):
        assert np.array_equal(block, reference(code, available, position)), position
        assert np.array_equal(block, stripe[position]), position
        if position in available:
            assert np.shares_memory(block, available[position])


@pytest.mark.parametrize("scheme_id", SCHEMES)
@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None, database=None)
def test_an_insufficient_set_is_refused(scheme_id: str, seed: int) -> None:
    code = CODES[scheme_id]
    rng = np.random.default_rng(seed)
    stripe = stripe_of(code, rng, 8)
    while True:
        kept = sorted(int(p) for p in rng.choice(code.n, rng.integers(0, code.n), replace=False))
        if not code.can_decode(kept):
            break
    available = {p: stripe[p] for p in kept}
    lost = [p for p in range(code.n) if p not in available]
    with pytest.raises(DecodingError):
        code.decode(available)
    with pytest.raises(DecodingError):
        code.decode(available, [int(rng.choice(lost))])
