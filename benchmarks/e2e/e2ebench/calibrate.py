"""Host-speed calibration kernel.

The sandbox this benchmark runs on drifts in speed by up to 1.6x for minutes
at a time, so a wall-clock reading means little on its own.  :func:`sample`
times one fixed piece of work that mixes what the storage stack spends its
time on -- interpreter dict traffic, compact-JSON encode/decode, whole-row
numpy XOR, ``crc32`` over small slices, one ``blake2b`` -- and the harness
scales every timed sample by ``sample / CAL_REF_S``.  A run on a slow
minute and a run on a fast minute then land on the same number.

The kernel must never change: every recorded number is expressed in its
units.  If it ever has to, bump ``CALIBRATION_VERSION`` -- numbers across
versions are not comparable.  It imports only numpy and the standard
library, never ``repro``: a change to the program must not move the ruler.
"""

from __future__ import annotations

import hashlib
import json
import time
import zlib

import numpy as np

__all__ = ["CALIBRATION_VERSION", "CAL_REF_S", "sample"]

CALIBRATION_VERSION = 1
#: The kernel's nominal duration on the reference host.  A scale constant,
#: frozen with the kernel: calibrated value = raw value scaled by
#: ``sample() / CAL_REF_S``.
CAL_REF_S = 0.030

_ROWS = np.arange(96 * 4096, dtype=np.uint32).astype(np.uint8).reshape(96, 4096)
_BUFFER = bytes(_ROWS[:64].tobytes())
_RECORD = {
    "op": "put_doc",
    "name": "calibration-document-0001",
    "data_ids": [["d", 1000 + 3 * i, 3] for i in range(48)],
    "length": 196608,
    "state": {"size": 123456, "heads": list(range(40))},
    "seq": 4242,
}


def sample() -> float:
    """Run the fixed kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    # Interpreter: dict get/set and integer arithmetic.
    table: dict = {}
    for i in range(80000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    # Metadata path: compact JSON round trips of a WAL-sized record.
    for _ in range(192):
        json.loads(json.dumps(_RECORD, separators=(",", ":")))
    # XOR kernel: a running parity down 4 KiB rows, as the entangler does.
    rows = _ROWS.copy()
    for _ in range(96):
        for row in range(1, rows.shape[0]):
            np.bitwise_xor(rows[row], rows[row - 1], out=rows[row])
    # Framing checksums over 512-byte slices, as the WAL and segment log do.
    view = memoryview(_BUFFER)
    crc = 0
    for _ in range(36):
        for offset in range(0, len(view), 512):
            crc = zlib.crc32(view[offset : offset + 512], crc)
    # Digests over 256 KiB, as name hashing and routing do at scale.
    for _ in range(18):
        hashlib.blake2b(_BUFFER, digest_size=8).digest()
    return time.perf_counter() - start
