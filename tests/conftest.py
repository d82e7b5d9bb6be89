"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parameters import AEParameters


@pytest.fixture
def paper_example_params() -> AEParameters:
    """AE(3,5,5), the worked example of Figure 4 and Tables I/II."""
    return AEParameters(3, 5, 5)


@pytest.fixture
def hec_params() -> AEParameters:
    """AE(3,2,5), the 5-HEC setting used throughout the evaluation."""
    return AEParameters.triple(2, 5)


@pytest.fixture(params=["AE(1,-,-)", "AE(2,2,2)", "AE(2,2,5)", "AE(3,2,5)", "AE(3,5,5)", "AE(3,1,4)"])
def any_params(request) -> AEParameters:
    """A spread of valid code settings exercised by parametrised tests."""
    return AEParameters.parse(request.param)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_payload(index: int, size: int = 64) -> bytes:
    """Deterministic, distinct payload for block ``index``."""
    seed = (index * 2654435761) % (2**32)
    generator = np.random.default_rng(seed)
    return generator.integers(0, 256, size=size, dtype=np.uint8).tobytes()


@pytest.fixture
def payload_factory():
    return make_payload


class DictSource:
    """A ``{block id: payload}`` dict as a :class:`repro.schemes.BlockSource`."""

    def __init__(self, blocks) -> None:
        self.blocks = blocks

    def try_get_many(self, block_ids):
        return [self.blocks.get(block_id) for block_id in block_ids]

    def is_available(self, block_id) -> bool:
        return block_id in self.blocks
