"""Shared fixtures for the test suite."""

from __future__ import annotations

import errno
import io
import os
import struct
import zlib
from typing import List, Tuple

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


def segment_records(path) -> List[Tuple[int, str, int, int]]:
    """``(offset, key, payload length, record length)`` of every record in a
    segment-log file, framed independently of the backend: key ``""`` is an
    index record, payload length -1 a tombstone."""
    with open(path, "rb") as handle:
        data = handle.read()
    records = []
    offset = 0
    while offset < len(data):
        magic, key_len, payload_len, _ = struct.unpack_from("<4sIiI", data, offset)
        assert magic == b"RSG1", f"no record at {path}:{offset}"
        key = data[offset + 16 : offset + 16 + key_len].decode("ascii")
        record_len = 16 + key_len + max(payload_len, 0)
        records.append((offset, key, payload_len, record_len))
        offset += record_len
    return records


def segment_dead_bytes(root) -> int:
    """File bytes of a segment-log root minus the bytes of the records a
    replay of its files leaves live.  A record that fails its CRC is rot: an
    erasure of its key."""
    directory = os.path.join(str(root), "segments")
    live = {}
    total = 0
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            data = handle.read()
        total += len(data)
        for offset, key, payload_len, record_len in segment_records(path):
            (crc,) = struct.unpack_from("<I", data, offset + 12)
            intact = zlib.crc32(data[offset + 16 : offset + record_len]) == crc
            if key and intact and payload_len >= 0:
                live[key] = record_len
            else:  # a tombstone, rot, or a keyless nonce / index record
                live.pop(key, None)
    return total - sum(live.values())


class RefusingFile(io.FileIO):
    """A segment writer's raw file whose ``write`` raises
    ``OSError(ENOSPC)`` while ``armed``: a disk that fills up under the log."""

    armed = False

    def write(self, data):
        if self.armed:
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        return super().write(data)


def refusing_writer(backend) -> RefusingFile:
    """Swap a segment log's active writer for a buffered writer over a
    :class:`RefusingFile` on the same file; returns that file, disarmed.  A
    roll opens the next segment through the log's own writer."""
    writer = backend._writer
    writer.flush()
    raw = RefusingFile(writer.name, "a")
    backend._writer = io.BufferedWriter(raw)
    writer.close()
    return raw


class DictSource:
    """A ``{block id: payload}`` dict as a :class:`repro.schemes.BlockSource`."""

    def __init__(self, blocks) -> None:
        self.blocks = blocks

    def try_get_many(self, block_ids):
        return [self.blocks.get(block_id) for block_id in block_ids]

    def is_available(self, block_id) -> bool:
        return block_id in self.blocks


class RefusingSource(DictSource):
    """A :class:`DictSource` that never serves ``refused`` and logs the ids
    of every bulk read in ``calls``."""

    def __init__(self, blocks, refused=()) -> None:
        super().__init__(blocks)
        self.refused = set(refused)
        self.calls = []

    @property
    def requests(self):
        """Every id asked for, in request order."""
        return [block_id for call in self.calls for block_id in call]

    def try_get_many(self, block_ids):
        block_ids = list(block_ids)
        self.calls.append(block_ids)
        return [
            None if block_id in self.refused else self.blocks.get(block_id)
            for block_id in block_ids
        ]
