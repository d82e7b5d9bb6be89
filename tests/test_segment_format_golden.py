"""Golden segment-log format: the files a scripted write sequence leaves.

How the log frames a batch -- record by record or in one buffer per stretch
of a segment -- must not change what lands on disk: every file holds the
same records in the same order and rolls at the same byte.  A scripted
sequence on a 600-byte ``segment_bytes`` puts, overwrites, writes duplicate
ids in one batch, deletes (duplicates and absent ids too), stores a record
larger than a segment, churns until the log compacts itself, compacts by
hand, closes, reopens and writes again.  After every phase the digest takes
each segment file's name and size and its record stream as ``(key, payload
length, CRC)``; the CRC of a keyless record (a nonce or an index) is masked,
since it covers the random nonce.

Recorded on the parent of the batched segment writer (``c3abd2d``).
``PYTHONPATH=src:. python tests/test_segment_format_golden.py`` prints the
table (record on the parent of a format-neutral change, never to make a
failing test pass).
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.core.blocks import DataId, ParityId
from repro.core.parameters import StrandClass
from repro.storage.backends import SegmentLogBackend
from tests.conftest import segment_records

SEGMENT_BYTES = 600


def payload(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.integers(0, 256, size=size, dtype=np.uint8)


def files(root: str) -> List[Tuple[str, int, List[Tuple[str, int, object]]]]:
    """Each segment file: name, size and ``(key, payload length, CRC)`` per
    record, the CRC masked for keyless records."""
    directory = os.path.join(root, "segments")
    table = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            data = handle.read()
        stream = [
            (key, payload_len, struct.unpack_from("<I", data, offset + 12)[0] if key else None)
            for offset, key, payload_len, _ in segment_records(path)
        ]
        table.append((name, len(data), stream))
    return table


def phases(root: str) -> Iterator[Tuple[str, SegmentLogBackend]]:
    """Run the script, yielding after each phase with the backend open."""
    rng = np.random.default_rng(43)
    data = [DataId(index) for index in range(1, 25)]
    parities = [ParityId(index, StrandClass.HORIZONTAL) for index in range(1, 9)]

    def open_log() -> SegmentLogBackend:
        return SegmentLogBackend(root, segment_bytes=SEGMENT_BYTES, compact_ratio=0.5)

    log = open_log()
    log.put_many([(data[0], payload(rng, 40))])
    log.put_many([(block_id, payload(rng, 1 + 17 * n)) for n, block_id in enumerate(data[1:4])])
    log.put_many([(block_id, payload(rng, 64)) for block_id in data[4:12] + parities[:4]])
    yield "puts", log
    log.put_many([(data[2], payload(rng, 7)), (data[5], payload(rng, 90)), (parities[1], payload(rng, 64))])
    yield "overwrites", log
    log.put_many(
        [(data[12], payload(rng, 30)), (data[3], payload(rng, 5)), (data[12], payload(rng, 31)),
         (data[3], payload(rng, 6)), (data[13], payload(rng, 0))]
    )
    yield "duplicates-in-a-batch", log
    log.delete_many([data[4], data[4], DataId(99), parities[0], data[12], data[4]])
    log.delete_many([DataId(98)])
    yield "deletes", log
    log.put_many([(data[14], payload(rng, 700)), (data[15], payload(rng, 3))])
    yield "a-record-past-a-segment", log
    for round_ in range(6):
        log.put_many([(block_id, payload(rng, 40 + round_)) for block_id in data[5:11]])
        log.delete_many(data[8 + round_ % 3 : 10 + round_ % 3])
    yield "churn-with-auto-compaction", log
    log.compact()
    yield "compact", log
    log.close()
    log = open_log()
    yield "reopen", log
    log.put_many([(block_id, payload(rng, 50)) for block_id in data[16:24] + parities[4:]])
    log.delete_many(data[16:20])
    log.close()
    log = open_log()
    yield "write-close-reopen", log
    log.close()


def digests(root: str) -> Dict[str, str]:
    table = {}
    for phase, log in phases(root):
        log.flush()
        table[phase] = hashlib.sha256(repr(files(root)).encode("ascii")).hexdigest()
    return table


#: Recorded on ``c3abd2d`` (one record per buffered write).
FORMAT_GOLDEN: Dict[str, str] = {
    'puts': 'f31b4e7af9d9d5e2665873038bc2f87f27fe2740a40e0f7b3bd927b9cb16d8d6',
    'overwrites': 'eb1ba21a6f0f783c019c0b13873699586de455226697c275f67b2eed348b907c',
    'duplicates-in-a-batch': 'b961e1fa2a07dbf63b9427aa5b4afe25fdc6d2a4373005e0ba94bcd130b0c519',
    'deletes': 'ad4045af4e1df35040530fda8898363c0128400cd0d176a3eb5201d8c4bfd2b6',
    'a-record-past-a-segment': 'cc679723290f320ba81d386dea74e4d8fcd7550aa2ad4e1ce736de5baafd4741',
    'churn-with-auto-compaction': '43c957ff52dd17a55f1e553cf3f0055ebdb69ca0c2162c758ee7835a92660029',
    'compact': '9a39d2776b35faf5a7e2ad42ffe362c4206745fa277b1390ec31149a9a9b05be',
    'reopen': '67c214040d4d64b947f5ebc1f6f0a957eab6220502fb93f6c70516237201cc3b',
    'write-close-reopen': '83bf9d96710cdad92797bcf28acb8e34422400a8c33cc13b121a9591fdc14688',
}


def test_the_script_rolls_and_compacts(tmp_path) -> None:
    """The sequence reaches what it is there to pin: rolls, a record past a
    segment, an auto-compaction (the first segment goes) and a reopen."""
    seen: Dict[str, List[str]] = {}
    for phase, _ in phases(str(tmp_path)):
        seen[phase] = sorted(os.listdir(os.path.join(str(tmp_path), "segments")))
    assert len(seen["puts"]) > 1
    assert "seg-00000000.log" in seen["a-record-past-a-segment"]
    assert "seg-00000000.log" not in seen["churn-with-auto-compaction"]


def test_the_files_match_the_recorded_format(tmp_path) -> None:
    assert digests(str(tmp_path)) == FORMAT_GOLDEN


if __name__ == "__main__":  # pragma: no cover - recording aid
    with tempfile.TemporaryDirectory() as workdir:
        print("FORMAT_GOLDEN: Dict[str, str] = {")
        for phase, digest in digests(workdir).items():
            print(f"    {phase!r}: {digest!r},")
        print("}")
