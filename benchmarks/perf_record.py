"""Recorded perf trajectory: write and gate ``BENCH_*.json`` snapshots.

Benchmarks call :func:`record_entry` to persist their measured numbers into a
small JSON snapshot (``BENCH_repair.json``, ``BENCH_ingest.json``, ...).
Committed snapshots at the repository root are the *baseline* trajectory; a
fresh run writes its snapshot wherever ``REPRO_BENCH_DIR`` points (CI uses a
scratch directory) and :func:`compare_snapshots` -- also the module's CLI --
fails when a gated metric regressed by more than the tolerance.

Snapshot format (``format`` 1)::

    {
      "format": 1,
      "benchmark": "repair",
      "entries": {
        "<key>": {
          "scheme": "ae-3-2-5",
          "block_size": 4096,
          "seed": 7,
          "metrics": {"speedup": 5.1, "batched_mb_s": 310.0, ...},
          "gates": ["speedup"],
          "host": {"cpu_count": 2, "python": "3.11.7", "platform": "Linux-...",
                   "smoke": false, "recorded_utc": "2026-10-01T09:30:00+00:00"}
        }
      }
    }

``host`` says where and when a run produced the entry's numbers (an entry
without one predates the stamp); the regression gate never reads it.

Only the metrics named in ``gates`` are regression-gated; the rest are
informational (absolute MB/s varies across machines, dimensionless ratios
and analytic read counts do not).  Metrics whose name mentions reads, bytes,
rounds, time or loss gate in the *lower-is-better* direction; everything else
(throughput, speedup) gates higher-is-better.  A lower-is-better baseline of
zero (e.g. ``data_loss``) therefore fails on *any* increase.

CLI::

    python benchmarks/perf_record.py --baseline BENCH_repair.json \
        --current /tmp/bench-out/BENCH_repair.json [--max-regression 0.2]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from datetime import datetime, timezone
from typing import Dict, List, Optional

SNAPSHOT_FORMAT = 1

#: Metric-name fragments gated in the lower-is-better direction.
_LOWER_BETTER = ("read", "bytes", "round", "time", "seconds", "loss")


def bench_dir() -> str:
    """Directory snapshots are written to (``REPRO_BENCH_DIR`` or repo root)."""
    configured = os.environ.get("REPRO_BENCH_DIR", "")
    if configured:
        os.makedirs(configured, exist_ok=True)
        return configured
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_path(name: str) -> str:
    """Path of the ``BENCH_<name>.json`` snapshot for this run."""
    return os.path.join(bench_dir(), f"BENCH_{name}.json")


def load_snapshot(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    if int(snapshot.get("format", 0)) != SNAPSHOT_FORMAT:
        raise ValueError(f"unsupported snapshot format in {path!r}")
    return snapshot


def host_stamp() -> Dict[str, object]:
    """Where and when this run measured: absolute numbers mean nothing without it."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "smoke": os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0"),
        "recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def record_entry(
    name: str,
    key: str,
    *,
    scheme: str,
    block_size: int,
    seed: int,
    metrics: Dict[str, float],
    gates: Optional[List[str]] = None,
) -> str:
    """Merge one benchmark entry into ``BENCH_<name>.json``; returns the path.

    Entries are keyed so several tests (and repeated runs) can contribute to
    one snapshot: a re-run of the same test replaces its own entry and leaves
    the others alone.
    """
    path = bench_path(name)
    try:
        snapshot = load_snapshot(path)
    except (FileNotFoundError, ValueError, json.JSONDecodeError):
        snapshot = {"format": SNAPSHOT_FORMAT, "benchmark": name, "entries": {}}
    entries = snapshot.setdefault("entries", {})
    entries[key] = {
        "scheme": scheme,
        "block_size": int(block_size),
        "seed": int(seed),
        "metrics": {metric: float(value) for metric, value in metrics.items()},
        "gates": list(gates or []),
        "host": host_stamp(),
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def _lower_is_better(metric: str) -> bool:
    lowered = metric.lower()
    return any(fragment in lowered for fragment in _LOWER_BETTER)


def compare_snapshots(
    baseline: Dict[str, object],
    current: Dict[str, object],
    max_regression: float = 0.2,
) -> List[str]:
    """Regression check of ``current`` against ``baseline``.

    Returns a list of human-readable failures (empty = pass).  Only metrics
    listed in a baseline entry's ``gates`` are compared; a gated metric
    missing from the current snapshot is itself a failure.  ``max_regression``
    is the tolerated relative drop (0.2 = 20%).
    """
    failures: List[str] = []
    base_entries = baseline.get("entries", {})
    cur_entries = current.get("entries", {})
    for key, base_entry in sorted(base_entries.items()):
        gates = base_entry.get("gates", [])
        if not gates:
            continue
        cur_entry = cur_entries.get(key)
        if cur_entry is None:
            failures.append(f"{key}: entry missing from current snapshot")
            continue
        for metric in gates:
            base_value = base_entry.get("metrics", {}).get(metric)
            cur_value = cur_entry.get("metrics", {}).get(metric)
            if base_value is None:
                continue
            if cur_value is None:
                failures.append(f"{key}.{metric}: missing from current snapshot")
                continue
            if _lower_is_better(metric):
                limit = base_value * (1.0 + max_regression)
                if cur_value > limit:
                    failures.append(
                        f"{key}.{metric}: {cur_value:g} exceeds baseline "
                        f"{base_value:g} by more than {max_regression:.0%}"
                    )
            else:
                limit = base_value * (1.0 - max_regression)
                if cur_value < limit:
                    failures.append(
                        f"{key}.{metric}: {cur_value:g} fell more than "
                        f"{max_regression:.0%} below baseline {base_value:g}"
                    )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate a fresh BENCH_*.json snapshot against the committed baseline."
    )
    parser.add_argument("--baseline", required=True, help="committed snapshot path")
    parser.add_argument("--current", required=True, help="freshly recorded snapshot path")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.2,
        help="tolerated relative regression on gated metrics (default 0.2 = 20%%)",
    )
    args = parser.parse_args(argv)
    try:
        baseline = load_snapshot(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read baseline {args.baseline!r}: {exc}", file=sys.stderr)
        return 2
    try:
        current = load_snapshot(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read current snapshot {args.current!r}: {exc}", file=sys.stderr)
        return 2
    failures = compare_snapshots(baseline, current, args.max_regression)
    if failures:
        print(f"perf regression vs {args.baseline}:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    gated = sum(1 for entry in baseline.get("entries", {}).values() if entry.get("gates"))
    print(f"{args.current}: {gated} gated entr{'y' if gated == 1 else 'ies'} within "
          f"{args.max_regression:.0%} of {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
